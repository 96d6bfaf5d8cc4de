package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/psi"
	"repro/internal/transport"
)

// AblationHideLevels quantifies the §5.2 discussion's privacy / efficiency
// trade-off: training and per-sample prediction time for the enhanced
// protocol at each hide level (threshold-only = the paper's enhanced
// protocol; feature and client hiding cost progressively more because the
// PIR selection and the oblivious feature selection range over larger
// domains).
func AblationHideLevels(p Preset) (*Result, error) {
	res := &Result{XLabel: "level (0=threshold,1=feature,2=client)", Unit: "seconds"}
	ds := synth(p, p.M)
	const predSamples = 2
	for _, level := range []core.HideLevel{core.HideThreshold, core.HideFeature, core.HideClient} {
		cfg := cfgFor(p, core.Enhanced, 1)
		cfg.Hide = level
		_, _, trainSecs, err := trainKind(ds, p.M, cfg, core.KindDT)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", level, err)
		}
		predT, err := predictionPoint(ds, p.M, cfg, predSamples)
		if err != nil {
			return nil, fmt.Errorf("%s prediction: %w", level, err)
		}
		res.Rows = append(res.Rows, Row{X: float64(level), Series: map[string]float64{
			"train":          trainSecs,
			"predict/sample": predT,
		}})
	}
	return res, nil
}

// AblationCriterion compares the secure Gini gains (the paper's protocol)
// with the secure entropy gains (the ID3/C4.5 generalization of §2.3, built
// on the MPC logarithm): training time and training accuracy.
func AblationCriterion(p Preset) (*Result, error) {
	res := &Result{XLabel: "criterion (0=gini,1=entropy)", Unit: "seconds / accuracy"}
	ds := synth(p, p.M)
	for _, crit := range []core.SplitCriterion{core.Gini, core.Entropy} {
		cfg := cfgFor(p, core.Basic, 1)
		cfg.Tree.Criterion = crit
		mdl, _, secs, err := trainKind(ds, p.M, cfg, core.KindDT)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", crit, err)
		}
		model := mdl.(*core.Model)
		parts, err := dataset.VerticalPartition(ds, p.M, 0)
		if err != nil {
			return nil, err
		}
		correct := 0
		for i := 0; i < ds.N(); i++ {
			feat := make([][]float64, p.M)
			for c := 0; c < p.M; c++ {
				feat[c] = parts[c].X[i]
			}
			v, err := model.PredictPlain(feat)
			if err != nil {
				return nil, err
			}
			if v == ds.Y[i] {
				correct++
			}
		}
		res.Rows = append(res.Rows, Row{X: float64(crit), Series: map[string]float64{
			"train":    secs,
			"accuracy": float64(correct) / float64(ds.N()),
		}})
	}
	return res, nil
}

// PSIAlignment measures the initialization stage's private set intersection
// (§3.1) for growing per-party set sizes: m parties, ~80% pairwise overlap.
func PSIAlignment(p Preset) (*Result, error) {
	res := &Result{XLabel: "ids/party", Unit: "seconds"}
	g := psi.TestGroup()
	for _, size := range p.Ns {
		sets := make([][]string, p.M)
		for c := 0; c < p.M; c++ {
			for v := 0; v < size; v++ {
				sets[c] = append(sets[c], fmt.Sprintf("row-%06d", v+c*size/5))
			}
		}
		eps := transport.NewMemoryNetwork(p.M, 64)
		start := time.Now()
		errs := make([]error, p.M)
		var wg sync.WaitGroup
		for c := 0; c < p.M; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				_, errs[c] = psi.Intersect(eps[c], g, sets[c])
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, ep := range eps {
			ep.Close()
		}
		for c, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("party %d: %w", c, err)
			}
		}
		res.Rows = append(res.Rows, Row{X: float64(size), Series: map[string]float64{
			"m-party PSI": elapsed.Seconds(),
		}})
	}
	return res, nil
}
