// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) and the deterministic-counter baselines CI pins
// (BENCH_*.json).  Registry lists them all: a figure driver returns a Result
// whose series mirror the lines/columns of the original plot, a baseline
// experiment fills a Baseline record; cmd/pivot-bench prints and writes
// them and bench_test.go runs them as Go benchmarks.
//
// Absolute times are not comparable to the paper's cluster (see DESIGN.md),
// so each experiment is parameterized by a Preset: Quick (laptop seconds,
// used by the test suite and benches) and Paper (the paper's Table 4
// parameters; hours of runtime, for full reproduction runs).
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/tree"
)

// Preset scales the workload.
type Preset struct {
	Name      string
	N         int   // samples (paper default 50K)
	DBar      int   // features per client (paper default 15)
	B         int   // max splits (paper default 8)
	H         int   // max depth (paper default 4)
	M         int   // clients (paper default 3)
	Classes   int   // classes for classification (paper default 4)
	W         int   // ensemble trees
	KeyBits   int   // Paillier modulus (paper default 1024)
	Ms        []int // sweep values for m
	Ns        []int // sweep values for n
	DBars     []int
	Bs        []int
	Hs        []int
	Ws        []int
	Trials    int // accuracy trials (paper: 10)
	AccuracyN int // samples for Table 3 stand-ins

	// NetDelay / NetJitter parameterize the WAN latency simulation used by
	// the predict experiment (zero = the experiment's defaults); set from
	// cmd/pivot-bench's -latency / -jitter flags.
	NetDelay  time.Duration
	NetJitter time.Duration
}

// Quick returns a laptop-scale preset preserving every protocol shape.
func Quick() Preset {
	return Preset{
		Name: "quick", N: 48, DBar: 2, B: 3, H: 3, M: 3, Classes: 2, W: 2,
		KeyBits: 256,
		Ms:      []int{2, 3, 4},
		Ns:      []int{24, 48, 96},
		DBars:   []int{1, 2, 4},
		Bs:      []int{2, 3, 6},
		Hs:      []int{1, 2, 3},
		Ws:      []int{1, 2},
		Trials:  2, AccuracyN: 400,
	}
}

// Paper returns the paper's Table 4 parameters (very long runs).
func Paper() Preset {
	return Preset{
		Name: "paper", N: 50000, DBar: 15, B: 8, H: 4, M: 3, Classes: 4, W: 8,
		KeyBits: 1024,
		Ms:      []int{2, 3, 4, 6, 8, 10},
		Ns:      []int{5000, 10000, 50000, 100000, 200000},
		DBars:   []int{5, 15, 30, 60, 120},
		Bs:      []int{2, 4, 8, 16, 32},
		Hs:      []int{2, 3, 4, 5, 6},
		Ws:      []int{2, 4, 8, 16, 32},
		Trials:  10, AccuracyN: 0, // 0 = the full stand-in datasets
	}
}

// Row is one x-axis point with one value per series.
type Row struct {
	X      float64
	Series map[string]float64
}

// Result is one regenerated table or figure.  ID and Title come from the
// experiment's Registry entry (Experiment.Exec stamps them).
type Result struct {
	ID     string
	Title  string
	XLabel string
	Unit   string
	Rows   []Row
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var names []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		for k := range row.Series {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s (unit: %s)\n", r.ID, r.Title, r.Unit)
	if len(r.Rows) == 1 {
		// A single point (a flat baseline record has dozens of series)
		// reads better one series per line than as one very wide row.
		fmt.Fprintf(&sb, "%36s  %g\n", r.XLabel, r.Rows[0].X)
		for _, n := range names {
			fmt.Fprintf(&sb, "%36s  %s\n", n, strconv.FormatFloat(r.Rows[0].Series[n], 'f', -1, 64))
		}
		return sb.String()
	}
	fmt.Fprintf(&sb, "%12s", r.XLabel)
	for _, n := range names {
		fmt.Fprintf(&sb, "  %22s", n)
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%12g", row.X)
		for _, n := range names {
			if v, ok := row.Series[n]; ok {
				fmt.Fprintf(&sb, "  %22.6g", v)
			} else {
				fmt.Fprintf(&sb, "  %22s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// cfgFor builds the Pivot config for a preset point.
func cfgFor(p Preset, protocol core.Protocol, workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = protocol
	cfg.KeyBits = p.KeyBits
	cfg.Tree = core.TreeHyper{MaxDepth: p.H, MaxSplits: p.B, MinSamplesSplit: 2, LeafOnZeroGain: true}
	cfg.Workers = workers
	cfg.NumTrees = p.W
	cfg.Seed = 7
	return cfg
}

// synth builds the synthetic efficiency dataset for a point (classification
// with p.Classes classes, like the paper's sklearn datasets).
func synth(p Preset, m int) *dataset.Dataset {
	return dataset.SyntheticClassification(p.N, p.DBar*m, p.Classes, 2.0, 99)
}

// trainKind trains one model of the given family on a fresh session over
// ds and reports the model, the session's aggregate stats (bring-up
// handshakes included) and the wall time of the training phase alone.
func trainKind(ds *dataset.Dataset, m int, cfg core.Config, kind core.ModelKind) (core.Predictor, core.RunStats, float64, error) {
	parts, err := dataset.VerticalPartition(ds, m, 0)
	if err != nil {
		return nil, core.RunStats{}, 0, err
	}
	s, err := core.NewSession(parts, cfg)
	if err != nil {
		return nil, core.RunStats{}, 0, err
	}
	defer s.Close()
	start := time.Now()
	mdl, err := core.Train(s, core.TrainSpec{Model: kind})
	secs := time.Since(start).Seconds()
	if err != nil {
		return nil, core.RunStats{}, 0, err
	}
	return mdl, s.Stats(), secs, nil
}

// trainBestOfTwo is trainKind run twice, reporting the faster wall time to
// damp scheduler noise; the model and the counters are deterministic under
// the fixed seed, so the second run's serve.
func trainBestOfTwo(ds *dataset.Dataset, m int, cfg core.Config, kind core.ModelKind) (core.Predictor, core.RunStats, float64, error) {
	_, _, first, err := trainKind(ds, m, cfg, kind)
	if err != nil {
		return nil, core.RunStats{}, 0, err
	}
	mdl, stats, second, err := trainKind(ds, m, cfg, kind)
	return mdl, stats, min(first, second), err
}

// render flattens every tree of a trained model for equivalence checks.
func render(mdl core.Predictor) string {
	var trees []*core.Model
	switch m := mdl.(type) {
	case *core.Model:
		trees = []*core.Model{m}
	case *core.ForestModel:
		trees = m.Trees
	case *core.BoostModel:
		for _, forest := range m.Forests {
			trees = append(trees, forest...)
		}
	}
	out := ""
	for _, t := range trees {
		out += t.String() + "\n"
	}
	return out
}

// ratio is a/b, or 0 when b is not positive (an empty leg).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// msOf is d in (fractional) milliseconds, the unit of the *_ms keys.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// flatRows rebuilds the first n samples as flat global-column rows, the way
// the serving wire carries them.
func flatRows(parts []*dataset.Partition, n int) [][]float64 {
	width := 0
	for _, pt := range parts {
		for _, f := range pt.Features {
			width = max(width, f+1)
		}
	}
	rows := make([][]float64, n)
	for t := range rows {
		rows[t] = make([]float64, width)
		for _, pt := range parts {
			for j, f := range pt.Features {
				rows[t][f] = pt.X[t][j]
			}
		}
	}
	return rows
}

// variants are the four lines of Figure 4a-4e.
func variants(p Preset) map[string]core.Config {
	return map[string]core.Config{
		"Pivot-Basic":       cfgFor(p, core.Basic, 1),
		"Pivot-Basic-PP":    cfgFor(p, core.Basic, 6),
		"Pivot-Enhanced":    cfgFor(p, core.Enhanced, 1),
		"Pivot-Enhanced-PP": cfgFor(p, core.Enhanced, 6),
	}
}

func sweep(p Preset, xlabel string, xs []int, point func(p Preset, x int) (Preset, int)) (*Result, error) {
	res := &Result{XLabel: xlabel, Unit: "seconds"}
	for _, x := range xs {
		pp, m := point(p, x)
		ds := synth(pp, m)
		row := Row{X: float64(x), Series: map[string]float64{}}
		for name, cfg := range variants(pp) {
			_, _, secs, err := trainKind(ds, m, cfg, core.KindDT)
			if err != nil {
				return nil, fmt.Errorf("%s x=%d: %w", name, x, err)
			}
			row.Series[name] = secs
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig4a: training time vs number of clients m.
func Fig4a(p Preset) (*Result, error) {
	return sweep(p, "m", p.Ms,
		func(p Preset, x int) (Preset, int) { return p, x })
}

// Fig4b: training time vs number of samples n.
func Fig4b(p Preset) (*Result, error) {
	return sweep(p, "n", p.Ns,
		func(p Preset, x int) (Preset, int) { p.N = x; return p, p.M })
}

// Fig4c: training time vs per-client features d̄.
func Fig4c(p Preset) (*Result, error) {
	return sweep(p, "dbar", p.DBars,
		func(p Preset, x int) (Preset, int) { p.DBar = x; return p, p.M })
}

// Fig4d: training time vs max splits b.
func Fig4d(p Preset) (*Result, error) {
	return sweep(p, "b", p.Bs,
		func(p Preset, x int) (Preset, int) { p.B = x; return p, p.M })
}

// Fig4e: training time vs max tree depth h.
func Fig4e(p Preset) (*Result, error) {
	return sweep(p, "h", p.Hs,
		func(p Preset, x int) (Preset, int) { p.H = x; return p, p.M })
}

// Fig4f: ensemble training time vs number of trees W.
func Fig4f(p Preset) (*Result, error) {
	res := &Result{XLabel: "W", Unit: "seconds"}
	for _, w := range p.Ws {
		pp := p
		pp.W = w
		row := Row{X: float64(w), Series: map[string]float64{}}

		clsDS := synth(pp, pp.M)
		regDS := dataset.SyntheticRegression(pp.N, pp.DBar*pp.M, 0.3, 99)
		for _, j := range []struct {
			name string
			ds   *dataset.Dataset
			kind core.ModelKind
		}{
			{"Pivot-RF-Classification", clsDS, core.KindRF},
			{"Pivot-RF-Regression", regDS, core.KindRF},
			{"Pivot-GBDT-Regression", regDS, core.KindGBDT},
			{"Pivot-GBDT-Classification", clsDS, core.KindGBDT},
		} {
			_, _, secs, err := trainKind(j.ds, pp.M, cfgFor(pp, core.Basic, 1), j.kind)
			if err != nil {
				return nil, fmt.Errorf("%s W=%d: %w", j.name, w, err)
			}
			row.Series[j.name] = secs
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// predictionPoint measures per-sample prediction time for one config.
func predictionPoint(ds *dataset.Dataset, m int, cfg core.Config, samples int) (float64, error) {
	parts, err := dataset.VerticalPartition(ds, m, 0)
	if err != nil {
		return 0, err
	}
	s, err := core.NewSession(parts, cfg)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	models := make([]*core.Model, m)
	if err := s.Each(func(p *core.Party) error {
		mod, err := p.TrainDT()
		models[p.ID] = mod
		return err
	}); err != nil {
		return 0, err
	}
	start := time.Now()
	for t := 0; t < samples; t++ {
		if err := s.Each(func(p *core.Party) error {
			_, err := p.Predict(models[p.ID], parts[p.ID].X[t%parts[p.ID].N])
			return err
		}); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(samples), nil
}

// Fig4g: prediction time per sample vs m.
func Fig4g(p Preset) (*Result, error) {
	res := &Result{XLabel: "m", Unit: "seconds/sample"}
	const samples = 3
	for _, m := range p.Ms {
		ds := synth(p, m)
		row := Row{X: float64(m), Series: map[string]float64{}}
		for name, proto := range map[string]core.Protocol{"Pivot-Basic": core.Basic, "Pivot-Enhanced": core.Enhanced} {
			v, err := predictionPoint(ds, m, cfgFor(p, proto, 1), samples)
			if err != nil {
				return nil, fmt.Errorf("%s m=%d: %w", name, m, err)
			}
			row.Series[name] = v
		}
		npd, err := npdPredictionPoint(ds, m, p, samples)
		if err != nil {
			return nil, err
		}
		row.Series["NPD-DT"] = npd
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig4h: prediction time per sample vs h.
func Fig4h(p Preset) (*Result, error) {
	res := &Result{XLabel: "h", Unit: "seconds/sample"}
	const samples = 3
	for _, h := range p.Hs {
		pp := p
		pp.H = h
		ds := synth(pp, pp.M)
		row := Row{X: float64(h), Series: map[string]float64{}}
		for name, proto := range map[string]core.Protocol{"Pivot-Basic": core.Basic, "Pivot-Enhanced": core.Enhanced} {
			v, err := predictionPoint(ds, pp.M, cfgFor(pp, proto, 1), samples)
			if err != nil {
				return nil, fmt.Errorf("%s h=%d: %w", name, h, err)
			}
			row.Series[name] = v
		}
		npd, err := npdPredictionPoint(ds, pp.M, pp, samples)
		if err != nil {
			return nil, err
		}
		row.Series["NPD-DT"] = npd
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func npdPredictionPoint(ds *dataset.Dataset, m int, p Preset, samples int) (float64, error) {
	parts, err := dataset.VerticalPartition(ds, m, 0)
	if err != nil {
		return 0, err
	}
	bcfg := baseline.DefaultConfig()
	bcfg.Tree = core.TreeHyper{MaxDepth: p.H, MaxSplits: p.B, MinSamplesSplit: 2, LeafOnZeroGain: true}
	model, _, err := baseline.TrainNPDDT(parts, bcfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for t := 0; t < samples; t++ {
		feat := make([][]float64, m)
		for c := 0; c < m; c++ {
			feat[c] = parts[c].X[t%parts[c].N]
		}
		if _, err := baseline.PredictNPDDT(model, feat); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(samples), nil
}

// fig5 measures Pivot vs SPDZ-DT vs NPD-DT.
func fig5(p Preset, xlabel string, xs []int, apply func(Preset, int) (Preset, int)) (*Result, error) {
	res := &Result{XLabel: xlabel, Unit: "seconds"}
	for _, x := range xs {
		pp, m := apply(p, x)
		ds := synth(pp, m)
		parts, err := dataset.VerticalPartition(ds, m, 0)
		if err != nil {
			return nil, err
		}
		row := Row{X: float64(x), Series: map[string]float64{}}
		for name, proto := range map[string]core.Protocol{"Pivot-Basic": core.Basic, "Pivot-Enhanced": core.Enhanced} {
			_, _, secs, err := trainKind(ds, m, cfgFor(pp, proto, 1), core.KindDT)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			row.Series[name] = secs
		}
		bcfg := baseline.DefaultConfig()
		bcfg.Tree = core.TreeHyper{MaxDepth: pp.H, MaxSplits: pp.B, MinSamplesSplit: 2, LeafOnZeroGain: true}
		start := time.Now()
		if _, _, err := baseline.TrainSPDZDT(parts, bcfg); err != nil {
			return nil, fmt.Errorf("spdz-dt: %w", err)
		}
		row.Series["SPDZ-DT"] = time.Since(start).Seconds()
		start = time.Now()
		if _, _, err := baseline.TrainNPDDT(parts, bcfg); err != nil {
			return nil, fmt.Errorf("npd-dt: %w", err)
		}
		row.Series["NPD-DT"] = time.Since(start).Seconds()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Fig5a: Pivot vs baselines, varying m.
func Fig5a(p Preset) (*Result, error) {
	return fig5(p, "m", p.Ms, func(p Preset, x int) (Preset, int) { return p, x })
}

// Fig5b: Pivot vs baselines, varying n.
func Fig5b(p Preset) (*Result, error) {
	return fig5(p, "n", p.Ns, func(p Preset, x int) (Preset, int) { p.N = x; return p, p.M })
}

// Table3 compares Pivot-DT/RF/GBDT with the non-private sklearn-equivalent
// baselines on the three stand-in datasets (accuracy for classification,
// MSE for regression), averaged over Trials runs.
func Table3(p Preset) (*Result, error) {
	res := &Result{XLabel: "dataset", Unit: "accuracy (rows 0-1) / MSE (row 2)"}
	type namedDS struct {
		name string
		gen  func(seed uint64) *dataset.Dataset
	}
	sets := []namedDS{
		{"bank-market", dataset.BankMarketing},
		{"credit-card", dataset.CreditCard},
		{"appliances-energy", dataset.AppliancesEnergy},
	}
	for di, nd := range sets {
		row := Row{X: float64(di), Series: map[string]float64{}}
		for trial := 0; trial < p.Trials; trial++ {
			ds := nd.gen(uint64(trial + 1))
			if p.AccuracyN > 0 && ds.N() > p.AccuracyN {
				ds.X = ds.X[:p.AccuracyN]
				ds.Y = ds.Y[:p.AccuracyN]
			}
			train, test := dataset.Split(ds, 0.25, uint64(trial+17))
			addMetrics(row.Series, p, train, test, float64(p.Trials))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func addMetrics(out map[string]float64, p Preset, train, test *dataset.Dataset, trials float64) {
	h := tree.Hyper{MaxDepth: p.H, MaxSplits: p.B, MinSamplesSplit: 2}
	eh := tree.EnsembleHyper{Hyper: h, NumTrees: p.W, LearningRate: 0.3, Subsample: 1.0, Seed: 3}

	metric := func(pred []float64) float64 {
		if train.IsClassification() {
			return tree.Accuracy(pred, test.Y)
		}
		return tree.MSE(pred, test.Y)
	}

	if t, err := tree.Fit(train, h); err == nil {
		out["NP-DT"] += metric(t.PredictBatch(test.X)) / trials
	}
	if rf, err := tree.FitForest(train, eh); err == nil {
		out["NP-RF"] += metric(rf.PredictBatch(test.X)) / trials
	}
	if g, err := tree.FitGBDT(train, eh); err == nil {
		out["NP-GBDT"] += metric(g.PredictBatch(test.X)) / trials
	}

	// Pivot models: train on the same data, evaluate the released (public,
	// basic protocol) models on the test set.
	m := p.M
	cfg := cfgFor(p, core.Basic, 1)
	cfg.LearningRate = 0.3
	trParts, err := dataset.VerticalPartition(train, m, 0)
	if err != nil {
		return
	}
	teParts, err := dataset.VerticalPartition(test, m, 0)
	if err != nil {
		return
	}
	s, err := core.NewSession(trParts, cfg)
	if err != nil {
		return
	}
	defer s.Close()

	evalPlain := func(combine func(feat [][]float64) float64) float64 {
		pred := make([]float64, test.N())
		for i := 0; i < test.N(); i++ {
			feat := make([][]float64, m)
			for c := 0; c < m; c++ {
				feat[c] = teParts[c].X[i]
			}
			pred[i] = combine(feat)
		}
		return metric(pred)
	}

	if mdl, err := core.Train(s, core.TrainSpec{Model: core.KindDT}); err == nil {
		dt := mdl.(*core.Model)
		out["Pivot-DT"] += evalPlain(func(feat [][]float64) float64 {
			v, _ := dt.PredictPlain(feat)
			return v
		}) / trials
	}
	if mdl, err := core.Train(s, core.TrainSpec{Model: core.KindRF}); err == nil {
		rf := mdl.(*core.ForestModel)
		out["Pivot-RF"] += evalPlain(func(feat [][]float64) float64 {
			return forestVotePlain(rf, feat)
		}) / trials
	}
	if mdl, err := core.Train(s, core.TrainSpec{Model: core.KindGBDT}); err == nil {
		bm := mdl.(*core.BoostModel)
		out["Pivot-GBDT"] += evalPlain(func(feat [][]float64) float64 {
			return boostPredictPlain(bm, feat)
		}) / trials
	}
}

// forestVotePlain evaluates the released RF model in plaintext (the model
// is public under the basic protocol; privacy-preserving voting is
// exercised in the prediction benchmarks).
func forestVotePlain(rf *core.ForestModel, feat [][]float64) float64 {
	if rf.Classes == 0 {
		var s float64
		for _, t := range rf.Trees {
			v, _ := t.PredictPlain(feat)
			s += v
		}
		return s / float64(len(rf.Trees))
	}
	votes := make([]int, rf.Classes)
	for _, t := range rf.Trees {
		v, _ := t.PredictPlain(feat)
		votes[int(v)]++
	}
	best := 0
	for k, v := range votes {
		if v > votes[best] {
			best = k
		}
	}
	return float64(best)
}

func boostPredictPlain(bm *core.BoostModel, feat [][]float64) float64 {
	if bm.Classes == 0 {
		s := bm.Base
		for _, t := range bm.Forests[0] {
			v, _ := t.PredictPlain(feat)
			s += bm.LearningRate * v
		}
		return s
	}
	best, bestScore := 0, -1e300
	for k := 0; k < bm.Classes; k++ {
		var s float64
		for _, t := range bm.Forests[k] {
			v, _ := t.PredictPlain(feat)
			s += bm.LearningRate * v
		}
		if s > bestScore {
			best, bestScore = k, s
		}
	}
	return float64(best)
}
