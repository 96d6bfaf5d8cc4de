package core

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/dataset"
	"repro/internal/paillier"
)

// Tests of the prediction body.  A window of one sample (the paper's
// per-sample schedule), one whole batch and every window between share
// rounds, never values, so each must equal the others and the plaintext walk
// of the model bit for bit.

func assertSamePreds(t *testing.T, name string, batched, perSample []float64) {
	t.Helper()
	if len(batched) != len(perSample) {
		t.Fatalf("%s: batched returned %d predictions, per-sample %d", name, len(batched), len(perSample))
	}
	for i := range batched {
		if batched[i] != perSample[i] {
			t.Fatalf("%s: sample %d: batched %v != per-sample %v", name, i, batched[i], perSample[i])
		}
	}
}

// sampleAt is sample t of X (X[c] is client c's rows) as the per-client
// slices PredictOne and PredictPlain take.
func sampleAt(X [][][]float64, t int) [][]float64 {
	by := make([][]float64, len(X))
	for c := range X {
		by[c] = X[c][t]
	}
	return by
}

// revealModel is the oracle's view of a concealed tree: the clients jointly
// decrypt its thresholds, leaf labels and feature selectors into a
// basic-protocol copy.  The secure comparison sends x left when
// round(x·2^F) ≤ τ, so the copy's threshold is (τ + ½)·2^−F.
func revealModel(t *testing.T, s *Session, m *Model) *Model {
	t.Helper()
	var cts []*paillier.Ciphertext
	for _, n := range m.Nodes {
		if n.Leaf {
			cts = append(cts, n.EncLabel)
			continue
		}
		cts = append(cts, n.EncThreshold)
		for _, phi := range n.EncFeatSel {
			cts = append(cts, phi...)
		}
	}
	var vals []*big.Int
	err := s.Each(func(p *Party) error {
		v, err := p.jointDecryptAll(cts)
		if p.ID == 0 {
			vals = v
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	p0 := s.Party(0)
	next := func() *big.Int {
		v := p0.pk.DecodeSigned(vals[0])
		vals = vals[1:]
		return v
	}
	out := &Model{Classes: m.Classes, Protocol: Basic, Leaves: m.Leaves}
	for _, n := range m.Nodes {
		r := Node{Leaf: n.Leaf, LeafPos: n.LeafPos, Owner: n.Owner, Feature: n.Feature, Left: n.Left, Right: n.Right}
		if n.Leaf {
			r.Label = p0.cod.Decode(next())
		} else {
			r.Threshold = p0.cod.Decode(next()) + 0.5/float64(p0.cod.One().Int64())
			for c, phi := range n.EncFeatSel {
				for j := range phi {
					if next().Sign() != 0 {
						r.Owner, r.Feature = c, j
					}
				}
			}
		}
		out.Nodes = append(out.Nodes, r)
	}
	return out
}

// plainPredict is the plaintext walk of a public model on one sample (x[c]
// is client c's columns), aggregated in the codec's arithmetic the way the
// protocols aggregate: a tree's leaf label, a forest's vote (first maximum)
// or mean, a boosted ensemble's class score (first maximum) or Base + ν·Σ.
func plainPredict(t *testing.T, p *Party, mdl Predictor, x [][]float64) float64 {
	t.Helper()
	cod := p.cod
	leaf := func(tr *Model) *big.Int {
		l, err := tr.PredictPlain(x)
		if err != nil {
			t.Fatal(err)
		}
		return cod.Encode(l)
	}
	sum := func(trees []*Model, scale *big.Int) *big.Int {
		acc := new(big.Int)
		for _, tr := range trees {
			acc.Add(acc, new(big.Int).Mul(leaf(tr), scale))
		}
		return acc
	}
	firstMax := func(classes int, score func(k int) *big.Int) float64 {
		best := 0
		for k := 1; k < classes; k++ {
			if score(k).Cmp(score(best)) > 0 {
				best = k
			}
		}
		return float64(best)
	}
	switch m := mdl.(type) {
	case *Model:
		return p.decodePrediction(m, cod.Decode(leaf(m)))
	case *ForestModel:
		if m.Classes == 0 {
			return cod.DecodeScaled(sum(m.Trees, cod.Encode(1/float64(len(m.Trees)))), 2)
		}
		return firstMax(m.Classes, func(k int) *big.Int {
			votes := new(big.Int)
			for _, tr := range m.Trees {
				if leaf(tr).Cmp(cod.Encode(float64(k))) == 0 {
					votes.Add(votes, big.NewInt(1))
				}
			}
			return votes
		})
	case *BoostModel:
		if m.Classes == 0 {
			return m.Base + cod.DecodeScaled(sum(m.Forests[0], cod.Encode(m.LearningRate)), 2)
		}
		return firstMax(m.Classes, func(k int) *big.Int { return sum(m.Forests[k], big.NewInt(1)) })
	}
	t.Fatalf("no plaintext walk for %T", mdl)
	return 0
}

// withExtremeRows appends to every client's rows values outside the range a
// concealed tree's comparisons represent: ±10⁵, ±Inf and NaN (a different
// one at each client), then the rows themselves scaled by 10⁶.
func withExtremeRows(parts []*dataset.Partition) []*dataset.Partition {
	extremes := []float64{1e5, -1e5, math.Inf(1), math.Inf(-1), math.NaN()}
	out := make([]*dataset.Partition, len(parts))
	for c, part := range parts {
		x := append([][]float64(nil), part.X...)
		for k := range extremes {
			row := make([]float64, len(part.Features))
			for j := range row {
				row[j] = extremes[(k+c+j)%len(extremes)]
			}
			x = append(x, row)
		}
		for _, r := range part.X {
			row := make([]float64, len(r))
			for j, v := range r {
				row[j] = v * 1e6
			}
			x = append(x, row)
		}
		out[c] = &dataset.Partition{Client: part.Client, Features: part.Features, Classes: part.Classes, X: x, N: len(x)}
	}
	return out
}

// assertSchedules predicts every row of parts at a window of one and in one
// batch; both must equal the plaintext walk of the model — of its revealed
// copy for a concealed tree, which also predicts withExtremeRows.
func assertSchedules(t *testing.T, name string, s *Session, mdl Predictor, parts []*dataset.Partition) {
	t.Helper()
	plain := mdl
	if m, ok := mdl.(*Model); ok && m.Protocol != Basic {
		plain = revealModel(t, s, m)
		parts = withExtremeRows(parts)
	}
	s.Cfg.PredictBatch = 1
	perSample, err := PredictAll(s, mdl, parts)
	if err != nil {
		t.Fatalf("%s, window 1: %v", name, err)
	}
	s.Cfg.PredictBatch = 0
	batched, err := PredictAll(s, mdl, parts)
	if err != nil {
		t.Fatalf("%s, one batch: %v", name, err)
	}
	assertSamePreds(t, name, batched, perSample)
	X := partsX(parts)
	for i, v := range perSample {
		if want := plainPredict(t, s.Party(0), plain, sampleAt(X, i)); v != want {
			t.Fatalf("%s: sample %d: window 1 predicts %v, the plaintext walk %v", name, i, v, want)
		}
	}
}

func TestPredictBatchMatchesPerSampleBasic(t *testing.T) {
	ds := smallClassification(24)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)
	assertSchedules(t, "basic", s, model, parts)
}

func TestPredictBatchMatchesPerSampleEnhanced(t *testing.T) {
	ds := smallClassification(16)
	cfg := testConfig()
	cfg.Protocol = Enhanced
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)
	assertSchedules(t, "enhanced", s, model, parts)
}

func TestPredictBatchMatchesPerSampleEnhancedRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := dataset.SyntheticRegression(20, 4, 0.2, 17)
	cfg := testConfig()
	cfg.Protocol = Enhanced
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)
	assertSchedules(t, "enhanced-regression", s, model, parts)
}

func TestPredictBatchMatchesPerSampleHidden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(16)
	for _, level := range []HideLevel{HideFeature, HideClient} {
		cfg := testConfig()
		cfg.Protocol = Enhanced
		cfg.Hide = level
		cfg.Tree.MaxDepth = 2
		s, parts, model := trainSession(t, ds, 3, cfg)
		assertSchedules(t, level.String(), s, model, parts)
	}
}

// TestPredictBatchChunking exercises the Cfg.PredictBatch knob with a
// window that does not divide the dataset size: chunked batches must stitch
// to the same predictions as one whole-dataset batch.
func TestPredictBatchChunking(t *testing.T) {
	ds := smallClassification(23)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)

	whole, err := PredictAll(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Cfg.PredictBatch = 5
	chunked, err := PredictAll(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePreds(t, "chunked", chunked, whole)
}

// trainEnsemble trains a 2-tree forest or boosted ensemble of depth 2 on ds
// split across 2 clients.
func trainEnsemble(t *testing.T, ds *dataset.Dataset, kind ModelKind) (*Session, []*dataset.Partition, Predictor) {
	t.Helper()
	cfg := testConfig()
	cfg.NumTrees = 2
	cfg.LearningRate = 0.5
	cfg.Tree.MaxDepth = 2
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mdl, err := Train(s, TrainSpec{Model: kind})
	if err != nil {
		t.Fatal(err)
	}
	return s, parts, mdl
}

func TestPredictRFBatchMatchesPerSample(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"classification", smallClassification(14)},
		{"regression", dataset.SyntheticRegression(14, 4, 0.2, 23)},
	} {
		s, parts, fm := trainEnsemble(t, tc.ds, KindRF)
		assertSchedules(t, "rf-"+tc.name, s, fm, parts)
	}
}

// TestPredictGBDTBatchMatchesPerSample covers both GBDT flavors — the
// regression sequence keeps residual labels encrypted between rounds, and
// the classification forests release encrypted per-class scores — so the
// batch path's encrypted-label handling is exercised end to end.
func TestPredictGBDTBatchMatchesPerSample(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"regression", dataset.SyntheticRegression(14, 4, 0.1, 33)},
		{"classification", smallClassification(14)},
	} {
		s, parts, bm := trainEnsemble(t, tc.ds, KindGBDT)
		assertSchedules(t, "gbdt-"+tc.name, s, bm, parts)
	}
}

// TestPredictBatchFewerRounds asserts the point of batching: an
// enhanced-protocol batch must cost far fewer MPC rounds than the same
// samples at a window of one.
func TestPredictBatchFewerRounds(t *testing.T) {
	ds := smallClassification(16)
	cfg := testConfig()
	cfg.Protocol = Enhanced
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)

	rounds := func(window int) int64 {
		s.Cfg.PredictBatch = window
		base := s.Stats().MPC.Rounds
		if _, err := PredictAll(s, model, parts); err != nil {
			t.Fatal(err)
		}
		return s.Stats().MPC.Rounds - base
	}
	perSample, batched := rounds(1), rounds(0)
	if batched <= 0 || perSample <= 0 {
		t.Fatalf("round counters not moving: per-sample %d, batched %d", perSample, batched)
	}
	if perSample < 3*batched {
		t.Fatalf("batched prediction saved too little: per-sample %d rounds vs batched %d", perSample, batched)
	}
}

// TestBadPredictInputRefused: an input the clients cannot predict on used to
// reach them — an empty row panicked client 0 (index out of range), a short
// partition beside a full one was sliced past its end — and a failed phase
// tears the session down, so the next valid request got "endpoint closed".
// Every driver now refuses such an input before any client starts.
func TestBadPredictInputRefused(t *testing.T) {
	ds := smallClassification(16)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)
	X := partsX(parts)
	half := func(p *dataset.Partition) *dataset.Partition {
		h := *p
		h.X, h.N = p.X[:8], 8
		return &h
	}
	// An N below the rows held: the slice has spare capacity past N.
	short := *parts[0]
	short.N = 8
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"PredictOne, empty rows", func() error { _, err := PredictOne(s, model, [][]float64{{}, {}}); return err }},
		{"PredictOne, one client slice", func() error { _, err := PredictOne(s, model, sampleAt(X, 0)[:1]); return err }},
		{"PredictOne, a row too wide", func() error {
			_, err := PredictOne(s, model, [][]float64{X[0][0], append(append([]float64(nil), X[1][0]...), 1)})
			return err
		}},
		{"PredictAll, an 8-row partition beside a 16-row one", func() error {
			_, err := PredictAll(s, model, []*dataset.Partition{parts[0], half(parts[1])})
			return err
		}},
		{"PredictAll, N below the rows held", func() error {
			_, err := PredictAll(s, model, []*dataset.Partition{&short, half(parts[1])})
			return err
		}},
		{"PredictAll, three partitions", func() error {
			_, err := PredictAll(s, model, []*dataset.Partition{parts[0], parts[1], parts[1]})
			return err
		}},
		{"PredictSamples, unequal counts", func() error {
			_, _, err := PredictSamples(s, model, [][][]float64{X[0], X[1][:3]})
			return err
		}},
		{"PredictSamples, a short row past the first", func() error {
			rows := append([][]float64(nil), X[1]...)
			rows[5] = rows[5][:1]
			_, _, err := PredictSamples(s, model, [][][]float64{X[0], rows})
			return err
		}},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	got, err := PredictOne(s, model, sampleAt(X, 3))
	if err != nil {
		t.Fatalf("valid prediction after the refusals: %v", err)
	}
	if want := plainPredict(t, s.Party(0), model, sampleAt(X, 3)); got != want {
		t.Fatalf("valid prediction after the refusals: %v, the plaintext walk %v", got, want)
	}
}

// handTree is a depth-2 basic-protocol tree with one split at each of three
// clients (their local feature 0) and the given leaf labels in LeafPos order.
func handTree(classes int, thr [3]float64, labels [4]float64) *Model {
	m := &Model{Classes: classes, Protocol: Basic, Leaves: 4, Nodes: []Node{
		{Owner: 0, Feature: 0, Threshold: thr[0], Left: 1, Right: 2},
		{Owner: 1, Feature: 0, Threshold: thr[1], Left: 3, Right: 4},
		{Owner: 2, Feature: 0, Threshold: thr[2], Left: 5, Right: 6},
	}}
	for pos, l := range labels {
		m.Nodes = append(m.Nodes, Node{Leaf: true, Label: l, LeafPos: pos})
	}
	return m
}

// TestReleasePackedEquivalence drives the release step of batched prediction
// at 256-bit keys (8 slots for a tree, 5 for the ensembles' wider sums) over
// batch sizes on both sides of every slot boundary, on hand-built models whose
// leaves sit at the extremes: ±(2^LabelBits − 1), all negative, and ±(2^(w−1)
// − 1)/2^F — the largest magnitude the slot width admits — with every tree of
// an ensemble at the same extreme so the sum reaches the headroom releaseWidth
// adds.  Every party's batch must equal the per-sample protocol's output and
// the plaintext walk (aggregated in the codec's arithmetic) bit for bit, and
// must cost one partial decryption per packed ciphertext.
func TestReleasePackedEquivalence(t *testing.T) {
	const m, n = 3, 26
	ds := smallClassification(n)
	parts, err := dataset.VerticalPartition(ds, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p0 := s.Party(0)
	cod := p0.cod
	lb := float64(int64(1)<<cfg.LabelBits - 1)                               // 255
	top := float64(int64(1)<<(p0.w.value+1)-1) / float64(int64(1)<<FracBits) // encodes to 2^(w−1) − 1
	thr := [3]float64{0, 0.5, -0.5}

	X := partsX(parts)
	type row struct {
		name  string
		mdl   Predictor
		width uint
		plain func(x [][]float64) float64
	}
	walk := func(tr *Model, x [][]float64) *big.Int {
		l, err := tr.PredictPlain(x)
		if err != nil {
			t.Fatal(err)
		}
		return cod.Encode(l)
	}
	dt := func(name string, classes int, labels [4]float64) row {
		tr := handTree(classes, thr, labels)
		return row{name, tr, p0.releaseWidth(nil, 1), func(x [][]float64) float64 {
			return p0.decodePrediction(tr, cod.Decode(walk(tr, x)))
		}}
	}
	ensemble := func(trees []*Model, scale *big.Int, x [][]float64) float64 {
		sum := new(big.Int)
		for _, tr := range trees {
			sum.Add(sum, new(big.Int).Mul(walk(tr, x), scale))
		}
		return cod.DecodeScaled(sum, 2)
	}
	rf := func(name string, labels ...[4]float64) row {
		fm := &ForestModel{}
		for _, l := range labels {
			fm.Trees = append(fm.Trees, handTree(0, thr, l))
		}
		inv := cod.Encode(1 / float64(len(labels)))
		return row{name, fm, p0.releaseWidth(inv, len(labels)), func(x [][]float64) float64 {
			return ensemble(fm.Trees, inv, x)
		}}
	}
	gbdt := func(name string, labels ...[4]float64) row {
		bm := &BoostModel{LearningRate: 1, Base: 0.25, Forests: make([][]*Model, 1)}
		for _, l := range labels {
			bm.Forests[0] = append(bm.Forests[0], handTree(0, thr, l))
		}
		nu := cod.Encode(bm.LearningRate)
		return row{name, bm, p0.releaseWidth(nu, len(labels)), func(x [][]float64) float64 {
			return bm.Base + ensemble(bm.Forests[0], nu, x)
		}}
	}
	all := func(v float64) [4]float64 { return [4]float64{v, v, v, v} }
	rows := []row{
		dt("dt classification", 2, [4]float64{0, 1, 1, 0}),
		dt("dt regression, ±(2^LabelBits−1)", 0, [4]float64{lb, -lb, 0.5, -lb}),
		dt("dt regression, all negative", 0, [4]float64{-lb, -1, -0.25, -top}),
		dt("dt regression, slot extremes", 0, [4]float64{top, -top, top, -top}),
		rf("rf regression, ±(2^LabelBits−1)", [4]float64{lb, -lb, lb, -lb}, [4]float64{lb, -lb, -lb, lb}),
		rf("rf regression, slot extremes", all(top), [4]float64{top, top, -top, -top}),
		rf("rf regression, all at the negative extreme", all(-top), all(-top)),
		gbdt("gbdt regression, ±(2^LabelBits−1)", [4]float64{lb, -lb, lb, -lb}, all(lb), all(-lb)),
		gbdt("gbdt regression, every tree at the upper bound", all(top), all(top), all(top)),
		gbdt("gbdt regression, every tree at the lower bound", all(-top), all(-top), all(-top)),
	}

	// predict runs one batch at every party and returns each party's
	// predictions and the partial decryptions it performed.
	predict := func(s *Session, mdl Predictor, B int) ([][]float64, []int64, error) {
		preds, decs := make([][]float64, m), make([]int64, m)
		err := s.Each(func(p *Party) error {
			before := p.Stats.DecShares
			out, err := mdl.predictBatch(p, parts[p.ID].X[:B])
			preds[p.ID], decs[p.ID] = out, p.Stats.DecShares-before
			return err
		})
		return preds, decs, err
	}
	for _, r := range rows {
		slots := p0.pk.PackCapacity(r.width)
		if want := map[ModelKind]int{KindDT: 8, KindRF: 5, KindGBDT: 5}[r.mdl.Kind()]; slots != want {
			t.Fatalf("%s: width %d packs %d slots under a 256-bit key, want %d", r.name, r.width, slots, want)
		}
		ref := make([]float64, n) // the per-sample protocol, which must agree with the plaintext walk
		for i := range ref {
			x := sampleAt(X, i)
			if ref[i], err = PredictOne(s, r.mdl, x); err != nil {
				t.Fatalf("%s: per-sample reference: %v", r.name, err)
			}
			if want := r.plain(x); ref[i] != want {
				t.Fatalf("%s: sample %d: per-sample protocol %v != plaintext walk %v", r.name, i, ref[i], want)
			}
		}
		for _, B := range []int{1, slots - 1, slots, slots + 1, 3*slots + 2} {
			preds, decs, err := predict(s, r.mdl, B)
			if err != nil {
				t.Fatalf("%s, B = %d: %v", r.name, B, err)
			}
			for c := 0; c < m; c++ {
				assertSamePreds(t, fmt.Sprintf("%s, B = %d, client %d", r.name, B, c), preds[c], ref[:B])
				if want := int64((B + slots - 1) / slots); decs[c] != want {
					t.Errorf("%s, B = %d: client %d performed %d partial decryptions, want %d", r.name, B, c, decs[c], want)
				}
			}
		}
	}

	// [k̄] exists at the super client only.
	trees := rows[4].mdl.(*ForestModel).Trees
	err = s.Each(func(p *Party) error {
		byTree, err := p.predictBasicEncBatchTrees(trees, parts[p.ID].X[:3])
		if err != nil {
			return err
		}
		if p.ID != p.Super && byTree != nil {
			return p.errf("holds %d encrypted prediction vectors, want none", len(byTree))
		}
		if p.ID == p.Super && (len(byTree) != len(trees) || len(byTree[0]) != 3) {
			return p.errf("super client holds %d encrypted prediction vectors, want %d of 3", len(byTree), len(trees))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// partsX is every client's feature matrix, the layout sampleAt indexes.
func partsX(parts []*dataset.Partition) [][][]float64 {
	X := make([][][]float64, len(parts))
	for c, part := range parts {
		X[c] = part.X
	}
	return X
}

// BenchmarkPredictBatch times one batched basic-protocol prediction at the
// paper's key size — m = 3 clients, a depth-2 tree and a 2-tree
// classification forest, B = 1 (an open-loop served request), 2 (a
// closed-loop micro-batch) and 64 (a dataset batch) — and reports what a
// sample costs: wall time, partial decryptions at one client, obfuscators
// (encryptions and rerandomisations) over all clients, and the messages of
// the batch over all clients.  The two HE counts repeat exactly, and so do a
// tree's messages; a forest's include the MPC engine's, whose dealer requests
// are batched across predictions.
func BenchmarkPredictBatch(b *testing.B) {
	const m = 3
	parts, err := dataset.VerticalPartition(smallClassification(64), m, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.KeyBits = 1024
	cfg.Seed = 1
	s, err := NewSession(parts, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	thr := [3]float64{0, 0.5, -0.5}
	models := []struct {
		name string
		mdl  Predictor
	}{
		{"dt", handTree(2, thr, [4]float64{0, 1, 1, 0})},
		{"rf2", &ForestModel{Classes: 2, Trees: []*Model{
			handTree(2, thr, [4]float64{0, 1, 1, 0}), handTree(2, thr, [4]float64{1, 1, 0, 0}),
		}}},
	}
	for _, mc := range models {
		for _, B := range []int{1, 2, 64} {
			b.Run(fmt.Sprintf("%s/B=%d", mc.name, B), func(b *testing.B) {
				before := s.Stats()
				for i := 0; i < b.N; i++ {
					err := s.Each(func(p *Party) error {
						_, err := mc.mdl.predictBatch(p, parts[p.ID].X[:B])
						return err
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				after := s.Stats()
				samples := float64(b.N * B)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/samples, "ns/sample")
				b.ReportMetric(float64(after.DecShares-before.DecShares)/m/samples, "decshares/sample")
				b.ReportMetric(float64(after.Encryptions-before.Encryptions)/samples, "obfuscators/sample")
				b.ReportMetric(float64(after.MessagesSent-before.MessagesSent)/float64(b.N), "msgs/batch")
			})
		}
	}
}
