package core

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/dataset"
)

// Equivalence tests for the batched prediction pipeline: batching shares
// rounds, never changes values, so batched predictions must be
// bit-identical to the per-sample protocol's on the same fixed-seed model.

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

func TestPredictBatchMatchesPerSampleBasic(t *testing.T) {
	ds := smallClassification(24)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)

	perSample, err := PredictDatasetPerSample(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := PredictDataset(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePreds(t, "basic", batched, perSample)
}

func TestPredictBatchMatchesPerSampleEnhanced(t *testing.T) {
	ds := smallClassification(16)
	cfg := testConfig()
	cfg.Protocol = Enhanced
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)

	perSample, err := PredictDatasetPerSample(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := PredictDataset(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePreds(t, "enhanced", batched, perSample)
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

	perSample, err := PredictDatasetPerSample(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := PredictDataset(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePreds(t, "enhanced-regression", batched, perSample)
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

		perSample, err := PredictDatasetPerSample(s, model, parts)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		batched, err := PredictDataset(s, model, parts)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		assertSamePreds(t, level.String(), batched, perSample)
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

	whole, err := PredictDataset(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Cfg.PredictBatch = 5
	chunked, err := PredictDataset(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePreds(t, "chunked", chunked, whole)
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
		cfg := testConfig()
		cfg.NumTrees = 2
		cfg.Tree.MaxDepth = 2
		parts, _ := dataset.VerticalPartition(tc.ds, 2, 0)
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var fm *ForestModel
		err = s.Each(func(p *Party) error {
			m, err := p.TrainRF()
			if p.ID == 0 && err == nil {
				fm = m
			}
			return err
		})
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		perSample, err := PredictDatasetForestPerSample(s, fm, parts)
		if err != nil {
			s.Close()
			t.Fatalf("%s: %v", tc.name, err)
		}
		batched, err := PredictDatasetForest(s, fm, parts)
		if err != nil {
			s.Close()
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertSamePreds(t, "rf-"+tc.name, batched, perSample)
		s.Close()
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
		cfg := testConfig()
		cfg.NumTrees = 2
		cfg.LearningRate = 0.5
		cfg.Tree.MaxDepth = 2
		parts, _ := dataset.VerticalPartition(tc.ds, 2, 0)
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var bm *BoostModel
		err = s.Each(func(p *Party) error {
			m, err := p.TrainGBDT()
			if p.ID == 0 && err == nil {
				bm = m
			}
			return err
		})
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		perSample, err := PredictDatasetBoostPerSample(s, bm, parts)
		if err != nil {
			s.Close()
			t.Fatalf("%s: %v", tc.name, err)
		}
		batched, err := PredictDatasetBoost(s, bm, parts)
		if err != nil {
			s.Close()
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertSamePreds(t, "gbdt-"+tc.name, batched, perSample)
		s.Close()
	}
}

// TestPredictBatchFewerRounds asserts the point of the pipeline: an
// enhanced-protocol batch must cost far fewer MPC rounds than the
// per-sample loop over the same samples.
func TestPredictBatchFewerRounds(t *testing.T) {
	ds := smallClassification(16)
	cfg := testConfig()
	cfg.Protocol = Enhanced
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)

	base := s.Stats().MPC.Rounds
	if _, err := PredictDatasetPerSample(s, model, parts); err != nil {
		t.Fatal(err)
	}
	perSample := s.Stats().MPC.Rounds - base

	base = s.Stats().MPC.Rounds
	if _, err := PredictDataset(s, model, parts); err != nil {
		t.Fatal(err)
	}
	batched := s.Stats().MPC.Rounds - base

	if batched <= 0 || perSample <= 0 {
		t.Fatalf("round counters not moving: per-sample %d, batched %d", perSample, batched)
	}
	if perSample < 3*batched {
		t.Fatalf("batched prediction saved too little: per-sample %d rounds vs batched %d", perSample, batched)
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
	lb := float64(int64(1)<<cfg.LabelBits - 1)                            // 255
	top := float64(int64(1)<<(p0.w.value+1)-1) / float64(int64(1)<<cfg.F) // encodes to 2^(w−1) − 1
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

	// NoPack: one value per ciphertext through the same steps.
	cfg.NoPack = true
	plain, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	const B = 9
	preds, decs, err := predict(plain, rows[3].mdl, B)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < m; c++ {
		for i, v := range preds[c] {
			if want := rows[3].plain(sampleAt(X, i)); v != want {
				t.Fatalf("NoPack: client %d sample %d: %v != plaintext walk %v", c, i, v, want)
			}
		}
		if decs[c] != B {
			t.Errorf("NoPack: client %d performed %d partial decryptions, want %d", c, decs[c], B)
		}
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
