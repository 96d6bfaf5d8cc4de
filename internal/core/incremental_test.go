package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// The incremental-training equivalence suite: warm-started absorbs are
// pinned against plaintext oracles computable from the released trees —
// leaf refinement must equal the plaintext leaf statistic over the union
// (structure frozen), and GBDT warm starts must keep the trained prefix
// verbatim while staying within tolerance of a full retrain's accuracy.
// Everything is fixed-seed, so a passing run always passes.

// sliceDS returns rows [lo, hi) of ds as a standalone dataset view.
func sliceDS(ds *dataset.Dataset, lo, hi int) *dataset.Dataset {
	return &dataset.Dataset{X: ds.X[lo:hi], Y: ds.Y[lo:hi], Classes: ds.Classes}
}

// trainOn builds a session over parts and trains one model via fn.
func trainOn(t *testing.T, parts []*dataset.Partition, cfg Config,
	fn func(*Party) (Predictor, error)) (*Session, Predictor) {
	t.Helper()
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	out := make([]Predictor, len(parts))
	err = s.Each(func(p *Party) error {
		m, err := fn(p)
		out[p.ID] = m
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, out[0]
}

// sameStructure asserts upd kept every structural field of orig and
// differs at most in leaf labels.
func sameStructure(t *testing.T, orig, upd *Model) {
	t.Helper()
	if len(orig.Nodes) != len(upd.Nodes) || orig.Leaves != upd.Leaves {
		t.Fatalf("update changed tree shape: %d/%d nodes, %d/%d leaves",
			len(orig.Nodes), len(upd.Nodes), orig.Leaves, upd.Leaves)
	}
	for i := range orig.Nodes {
		a, b := orig.Nodes[i], upd.Nodes[i]
		b.Label = a.Label
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("update changed node %d structure:\norig: %+v\nupd:  %+v", i, orig.Nodes[i], upd.Nodes[i])
		}
	}
}

// leafIndex routes a plaintext sample through the public tree.
func leafIndex(m *Model, feat [][]float64) int {
	i := 0
	for !m.Nodes[i].Leaf {
		n := m.Nodes[i]
		if feat[n.Owner][n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
	return i
}

// TestIncrementalEquivalenceDT absorbs four appended rows into a trained
// regression tree and pins the refreshed leaves against the plaintext
// leaf-mean oracle over the union, structure bit-identical.
func TestIncrementalEquivalenceDT(t *testing.T) {
	cfg := testConfig()
	full := dataset.SyntheticRegression(28, 4, 0.1, 41)
	base, extra := sliceDS(full, 0, 24), sliceDS(full, 24, 28)
	parts, err := dataset.VerticalPartition(base, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	appParts, err := dataset.VerticalPartition(extra, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	s, m0p := trainOn(t, parts, cfg, func(p *Party) (Predictor, error) { return p.TrainDT() })
	m0 := m0p.(*Model)

	upd, err := Update(s, UpdateSpec{Model: m0, Append: appParts})
	if err != nil {
		t.Fatal(err)
	}
	um := upd.(*Model)
	sameStructure(t, m0, um)

	fullParts, err := dataset.VerticalPartition(full, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, um.Leaves)
	counts := make([]float64, um.Leaves)
	for i := 0; i < full.N(); i++ {
		feat := [][]float64{fullParts[0].X[i], fullParts[1].X[i]}
		pos := um.Nodes[leafIndex(um, feat)].LeafPos
		sums[pos] += full.Y[i]
		counts[pos]++
	}
	for _, n := range um.Nodes {
		if !n.Leaf {
			continue
		}
		if counts[n.LeafPos] == 0 {
			t.Fatalf("leaf %d received no union samples", n.LeafPos)
		}
		want := sums[n.LeafPos] / counts[n.LeafPos]
		if math.Abs(n.Label-want) > 0.05 {
			t.Fatalf("leaf %d label %.4f, plaintext union mean %.4f", n.LeafPos, n.Label, want)
		}
	}
}

// TestIncrementalEquivalenceRF absorbs appended rows into a trained forest:
// per tree, structure frozen and leaf majorities re-resolved over the union
// with the original bootstrap multiplicities on old rows (a public function
// of the session seed) and multiplicity one on new rows.
func TestIncrementalEquivalenceRF(t *testing.T) {
	cfg := testConfig()
	cfg.NumTrees = 2
	cfg.Subsample = 0.8
	cfg.Tree.MaxDepth = 2
	full := dataset.SyntheticClassification(28, 4, 2, 2.0, 11)
	base, extra := sliceDS(full, 0, 24), sliceDS(full, 24, 28)
	parts, err := dataset.VerticalPartition(base, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	appParts, err := dataset.VerticalPartition(extra, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	s, fm0p := trainOn(t, parts, cfg, func(p *Party) (Predictor, error) { return p.TrainRF() })
	fm0 := fm0p.(*ForestModel)

	upd, err := Update(s, UpdateSpec{Model: fm0, Append: appParts})
	if err != nil {
		t.Fatal(err)
	}
	fm1 := upd.(*ForestModel)
	if len(fm1.Trees) != len(fm0.Trees) || fm1.Classes != fm0.Classes {
		t.Fatalf("update changed forest shape")
	}

	fullParts, err := dataset.VerticalPartition(full, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for w, tr := range fm1.Trees {
		sameStructure(t, fm0.Trees[w], tr)
		boot := bootstrapCounts(base.N(), cfg.Subsample, uint64(cfg.Seed)+uint64(w))
		tally := make([][]float64, tr.Leaves)
		for pos := range tally {
			tally[pos] = make([]float64, fm1.Classes)
		}
		for i := 0; i < full.N(); i++ {
			mult := float64(1)
			if i < base.N() {
				mult = float64(boot[i])
			}
			if mult == 0 {
				continue
			}
			feat := [][]float64{fullParts[0].X[i], fullParts[1].X[i]}
			pos := tr.Nodes[leafIndex(tr, feat)].LeafPos
			tally[pos][int(full.Y[i])] += mult
		}
		for _, n := range tr.Nodes {
			if !n.Leaf {
				continue
			}
			// Compare only where the plaintext majority is unique and
			// populated — the protocol's argmax tie-break is its own.
			best, tied, total := 0, false, float64(0)
			for k, v := range tally[n.LeafPos] {
				total += v
				if k > 0 && v == tally[n.LeafPos][best] {
					tied = true
				}
				if v > tally[n.LeafPos][best] {
					best, tied = k, false
				}
			}
			if total == 0 || tied {
				continue
			}
			if int(n.Label) != best {
				t.Fatalf("tree %d leaf %d label %v, plaintext weighted majority %d (tally %v)",
					w, n.LeafPos, n.Label, best, tally[n.LeafPos])
			}
		}
	}
}

// TestIncrementalEquivalenceGBDT warm-starts a GBDT with one extra round
// over the union: the trained prefix must be preserved verbatim and the
// held-out quality must track a full retrain at the same total rounds — MSE
// for regression; for classification, accuracy within 0.01 of the retrain's,
// for the GBDT and for a DT absorbing the same rows.  The warm start's and
// the retrain's rounds and messages are pinned in
// testdata/counters_golden.json, and the warm start must cost fewer rounds;
// every round of the updated model, the fresh one included, is pinned in
// testdata/warmstart_golden.json.
func TestIncrementalEquivalenceGBDT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round incremental equivalence runs in the nightly suite")
	}
	t.Run("regression", func(t *testing.T) { warmStartGBDT(t, dataset.SyntheticRegression(88, 4, 0.1, 13), 24) })
	t.Run("classification", func(t *testing.T) { warmStartGBDT(t, dataset.SyntheticClassification(228, 4, 2, 2.0, 99), 32) })
}

// warmStartGBDT trains on full's first n rows, absorbs the next four and
// holds out the rest.
func warmStartGBDT(t *testing.T, full *dataset.Dataset, n int) {
	cfg := testConfig()
	cfg.NumTrees = 2
	cfg.LearningRate = 0.8
	cfg.Tree.MaxDepth = 2
	base, extra := sliceDS(full, 0, n), sliceDS(full, n, n+4)
	union, heldout := sliceDS(full, 0, n+4), sliceDS(full, n+4, full.N())
	parts, err := dataset.VerticalPartition(base, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	appParts, err := dataset.VerticalPartition(extra, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	s, bm0p := trainOn(t, parts, cfg, func(p *Party) (Predictor, error) { return p.TrainGBDT() })
	bm0 := bm0p.(*BoostModel)

	before := s.Stats()
	upd, err := Update(s, UpdateSpec{Model: bm0, Append: appParts, AddTrees: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm := statsSince(s, before)
	bm1 := upd.(*BoostModel)
	if bm1.Classes != bm0.Classes || bm1.LearningRate != bm0.LearningRate || bm1.Base != bm0.Base {
		t.Fatalf("update changed ensemble hyperparameters")
	}
	if len(bm1.Forests[0]) != len(bm0.Forests[0])+1 {
		t.Fatalf("%d rounds after +1 absorb, want %d", len(bm1.Forests[0]), len(bm0.Forests[0])+1)
	}
	if !reflect.DeepEqual(bm1.Forests[0][:len(bm0.Forests[0])], bm0.Forests[0]) {
		t.Fatalf("warm start rewrote the trained prefix")
	}
	rounds := make([][]string, len(bm1.Forests[0])) // [round][class]
	for w := range rounds {
		for _, forest := range bm1.Forests {
			rounds[w] = append(rounds[w], forest[w].String())
		}
	}
	checkGolden(t, "testdata/warmstart_golden.json", rounds)

	// Full retrain oracle at the same total rounds over the union.
	unionParts, err := dataset.VerticalPartition(union, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.NumTrees = 3
	rs, bmR := trainOn(t, unionParts, rcfg, func(p *Party) (Predictor, error) { return p.TrainGBDT() })
	checkGolden(t, "testdata/counters_golden.json", []costEntry{costOf("warm start", warm), costOf("retrain", rs.Stats())})
	if warm.MPC.Rounds >= rs.Stats().MPC.Rounds {
		t.Fatalf("warm start cost %d rounds, retrain %d", warm.MPC.Rounds, rs.Stats().MPC.Rounds)
	}

	teParts, err := dataset.VerticalPartition(heldout, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// loss is the MSE (regression) or error rate (classification) on heldout.
	loss := func(m Predictor) float64 {
		var sq float64
		for i := 0; i < heldout.N(); i++ {
			feat := [][]float64{teParts[0].X[i], teParts[1].X[i]}
			d := scorePlain(t, m, feat) - heldout.Y[i]
			if full.Classes > 0 && d != 0 {
				d = 1
			}
			sq += d * d
		}
		return sq / float64(heldout.N())
	}
	mseWarm, mseRetrain := loss(bm1), loss(bmR)
	if full.Classes == 0 {
		if mseWarm > mseRetrain*1.5+0.01 {
			t.Fatalf("warm-start mse %.4f vs retrain %.4f — warm start lost too much", mseWarm, mseRetrain)
		}
		return
	}
	ks, dt0 := trainKept(t, full, n, cfg, KindDT)
	dt1, _ := absorb(t, ks, dt0, full, n, n+4)
	_, dtR := trainKept(t, full, n+4, cfg, KindDT)
	// The 0.01 bound is a property of this data draw (seed 99, 32 base
	// rows), not of the absorb: at seed 99 the DT gap read 0.010–0.021 at
	// 16–24, 28 and 30 base rows, 0 at 26 and 32, 0.036 at 40 and 0.073 at 48
	// (the retrain worse), and at 24 rows it held for 4 of data seeds 1–12.
	// A change that moves one split can trip it without being wrong; the
	// tree equalities of TestIncrementalMatchesUnionReplay are what defend
	// the absorb's correctness.
	for _, c := range [][2]float64{{mseWarm, mseRetrain}, {loss(dt1), loss(dtR)}} {
		if math.Abs(c[0]-c[1]) > 0.01 {
			t.Fatalf("held-out accuracy: absorb %.4f, retrain %.4f (GBDT, then DT)", 1-c[0], 1-c[1])
		}
	}
}

// scorePlain is a released basic model's plaintext prediction: a tree's
// leaf; a GBDT's boosted sum for regression, the class with the highest sum
// for classification.
func scorePlain(t *testing.T, m Predictor, x [][]float64) float64 {
	t.Helper()
	bm, ok := m.(*BoostModel)
	if !ok {
		bm = &BoostModel{LearningRate: 1, Forests: [][]*Model{{m.(*Model)}}}
	}
	best, bestSum := 0, math.Inf(-1)
	for k, forest := range bm.Forests {
		sum := bm.Base
		for _, tr := range forest {
			v, err := tr.PredictPlain(x)
			if err != nil {
				t.Fatal(err)
			}
			sum += bm.LearningRate * v
		}
		if bm.Classes == 0 {
			return sum
		}
		if sum > bestSum {
			best, bestSum = k, sum
		}
	}
	return float64(best)
}

// TestIncrementalMatchesUnionReplay pins the kept-totals absorb to the
// union replay, its oracle.  A session trains through Train, which keeps the
// leaf totals, and absorbs two batches in turn; after absorb k the model's
// saved bytes must equal a twin's — same data, same seed — that trains and
// absorbs batches 1..k in one Update of the trained model round-tripped
// through SavePredictor/LoadPredictor, which the twin keeps no totals for.
// One union replay from the trained model is the oracle, not k of them: a
// forest replayed over a grown union draws bootstrap multiplicities over the
// grown row count, so only the first replay keeps the trees' own.  The
// encryption count shows which path ran: the kept totals encrypt the
// appended rows once per tree and internal node, plus the leaf conversion;
// the union replay encrypts every row.  The last row absorbs on a session
// that only ran AppendSamples for the first batch, as a serving lane that
// did not run the update chain does: it falls back and still matches.  Each
// row's training and absorbs have their rounds and messages pinned in
// testdata/counters_golden.json, and an absorb costs at most a third of the
// training's rounds.
func TestIncrementalMatchesUnionReplay(t *testing.T) {
	const base, batch = 24, 4
	rf := testConfig()
	rf.NumTrees, rf.Subsample, rf.Tree.MaxDepth = 2, 0.8, 2
	cls := dataset.SyntheticClassification(base+2*batch, 4, 2, 2.0, 11)
	reg := dataset.SyntheticRegression(base+2*batch, 4, 0.1, 41)
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
		cfg  Config
		kind ModelKind
	}{
		{"dt-classification", cls, testConfig(), KindDT},
		{"dt-regression", reg, testConfig(), KindDT},
		{"rf", cls, rf, KindRF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m0 := trainKept(t, tc.ds, base, tc.cfg, tc.kind)
			costs := []costEntry{costOf("train", s.Stats())}
			bound := keptBound(m0, batch, s.M, tc.ds.Classes)
			mdl := m0
			for k := 1; k <= 2; k++ {
				lo := base + (k-1)*batch
				var cost RunStats
				mdl, cost = absorb(t, s, mdl, tc.ds, lo, lo+batch)
				costs = append(costs, costOf(fmt.Sprintf("absorb %d", k), cost))
				if cost.Encryptions > bound {
					t.Fatalf("absorb %d encrypted %d ciphertexts, the kept-totals path at most %d", k, cost.Encryptions, bound)
				}
				if 3*cost.MPC.Rounds > costs[0].MPCRounds {
					t.Fatalf("absorb %d cost %d rounds, more than a third of training's %d", k, cost.MPC.Rounds, costs[0].MPCRounds)
				}
				twin, t0 := trainKept(t, tc.ds, base, tc.cfg, tc.kind)
				want, wcost := absorb(t, twin, roundTrip(t, t0), tc.ds, base, base+k*batch)
				if wcost.Encryptions <= bound {
					t.Fatalf("union replay encrypted %d ciphertexts, no more than the kept-totals bound %d", wcost.Encryptions, bound)
				}
				if got, exp := saveBytes(t, mdl), saveBytes(t, want); !bytes.Equal(got, exp) {
					t.Fatalf("absorb %d: kept totals give\n%s\nthe union replay\n%s", k, got, exp)
				}
			}
			checkGolden(t, "testdata/counters_golden.json", costs)
		})
	}

	t.Run("append-only-lane", func(t *testing.T) {
		cfg := testConfig()
		s, m0 := trainKept(t, cls, base, cfg, KindDT)
		lane, err := NewSession(partsOf(t, cls, 0, base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer lane.Close()
		m1, _ := absorb(t, s, m0, cls, base, base+batch)
		if err := AppendSamples(lane, partsOf(t, cls, base, base+batch)); err != nil {
			t.Fatal(err)
		}
		bound := keptBound(m1, batch, s.M, cls.Classes)
		want, _ := absorb(t, s, m1, cls, base+batch, base+2*batch)
		got, cost := absorb(t, lane, m1, cls, base+batch, base+2*batch)
		if cost.Encryptions <= bound {
			t.Fatalf("the append-only lane encrypted %d ciphertexts, no more than the kept-totals bound %d", cost.Encryptions, bound)
		}
		if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
			t.Fatalf("append-only lane's union replay differs from the kept-totals absorb")
		}
	})
}

// TestKeptTotalsConcurrentUsers drives the session's kept leaf totals from
// two goroutines, as a daemon's update and registry paths do: one absorbs
// two batches in turn while the other trains fresh models and evicts them.
// Run under -race it checks that every reader and writer of the kept
// entries is ordered by the phase lock.
func TestKeptTotalsConcurrentUsers(t *testing.T) {
	const base, batch = 24, 4
	cls := dataset.SyntheticClassification(base+2*batch, 4, 2, 2.0, 11)
	s, m0 := trainKept(t, cls, base, testConfig(), KindDT)
	batches := [][]*dataset.Partition{partsOf(t, cls, base, base+batch), partsOf(t, cls, base+batch, base+2*batch)}
	errs := make(chan error, 2)
	go func() {
		mdl := m0
		var err error
		for k := 0; k < 2 && err == nil; k++ {
			mdl, err = Update(s, UpdateSpec{Model: mdl, Append: batches[k]})
		}
		errs <- err
	}()
	go func() {
		var err error
		for k := 0; k < 2 && err == nil; k++ {
			var mdl Predictor
			if mdl, err = Train(s, TrainSpec{Model: KindDT}); err == nil {
				s.EvictShared(mdl)
			}
		}
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// partsOf partitions rows [lo, hi) of ds across two clients.
func partsOf(t *testing.T, ds *dataset.Dataset, lo, hi int) []*dataset.Partition {
	t.Helper()
	parts, err := dataset.VerticalPartition(sliceDS(ds, lo, hi), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// trainKept trains kind on ds's first n rows through Train.
func trainKept(t *testing.T, ds *dataset.Dataset, n int, cfg Config, kind ModelKind) (*Session, Predictor) {
	t.Helper()
	s, err := NewSession(partsOf(t, ds, 0, n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mdl, err := Train(s, TrainSpec{Model: kind})
	if err != nil {
		t.Fatal(err)
	}
	return s, mdl
}

// absorb updates mdl with rows [lo, hi) of ds and returns the refreshed
// model and what the absorb cost.
func absorb(t *testing.T, s *Session, mdl Predictor, ds *dataset.Dataset, lo, hi int) (Predictor, RunStats) {
	t.Helper()
	before := s.Stats()
	out, err := Update(s, UpdateSpec{Model: mdl, Append: partsOf(t, ds, lo, hi)})
	if err != nil {
		t.Fatal(err)
	}
	return out, statsSince(s, before)
}

// keptBound is the most a kept-totals absorb of rows appended rows into mdl
// encrypts: the root masks of every tree and each internal node's left
// masks over the appended rows, and the leaf conversion — at most m + 1
// ciphertexts per converted total (every client's masks, the super client's
// label dot products).
func keptBound(mdl Predictor, rows, m, classes int) int64 {
	trees := []*Model{}
	switch x := mdl.(type) {
	case *Model:
		trees = append(trees, x)
	case *ForestModel:
		trees = x.Trees
	}
	channels := max(classes, 2)
	var replayed, leaves int
	for _, tr := range trees {
		replayed += 1 + tr.InternalNodes()
		leaves += tr.Leaves
	}
	return int64(replayed*rows + (m+1)*leaves*(channels+1))
}

// roundTrip reloads mdl from its saved bytes: the same model under a new
// identity, for which no session keeps leaf totals.
func roundTrip(t *testing.T, mdl Predictor) Predictor {
	t.Helper()
	out, err := LoadPredictor(bytes.NewReader(saveBytes(t, mdl)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func saveBytes(t *testing.T, mdl Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SavePredictor(&buf, mdl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIncrementalUpdateRefusals pins the absorbs that must be refused —
// enhanced sessions never disclose the tree, DP noise would compound, a nil
// or concealed model has no splits to replay, a label out of range cannot
// be counted, more added boosting rounds than MaxAddTrees (math.MaxInt once
// overflowed the round count, and the absorb installed no new round) — and
// that every refusal comes before any client starts: the session stays
// healthy and its partitions keep their rows.
func TestIncrementalUpdateRefusals(t *testing.T) {
	leaf := &Model{Protocol: Basic, Nodes: []Node{{Leaf: true}}, Leaves: 1}
	for _, tc := range []struct {
		name  string
		mut   func(*Config)
		model Predictor
		label float64 // the first appended label
		add   int     // UpdateSpec.AddTrees
		want  string
	}{
		{"enhanced", func(c *Config) { c.Protocol = Enhanced }, &Model{Protocol: Basic}, 0, 0, "basic protocol"},
		{"dp", func(c *Config) { c.DP = &DPConfig{Epsilon: 1} }, &Model{Protocol: Basic}, 0, 0, "DP"},
		{"nil model", func(*Config) {}, (*Model)(nil), 0, 0, "nil model"},
		{"enhanced model", func(*Config) {}, &Model{Protocol: Enhanced}, 0, 0, "conceals its splits"},
		{"bad label", func(*Config) {}, &Model{Protocol: Basic}, 7, 0, "label"},
		{"gbdt regression add trees", func(*Config) {}, &BoostModel{LearningRate: 0.5,
			Forests: [][]*Model{{leaf, leaf}}}, 0, math.MaxInt, "AddTrees"},
		{"gbdt classification add trees", func(*Config) {}, &BoostModel{Classes: 2, LearningRate: 0.5,
			Forests: [][]*Model{{leaf, leaf}, {leaf, leaf}}}, 0, math.MaxInt, "AddTrees"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := smallClassification(16)
			if bm, ok := tc.model.(*BoostModel); ok && bm.Classes == 0 {
				ds = dataset.SyntheticRegression(16, 4, 0.1, 3)
			}
			cfg := testConfig()
			tc.mut(&cfg)
			parts, err := dataset.VerticalPartition(ds, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSession(parts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			app, err := dataset.VerticalPartition(ds, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			app[0].Y = append([]float64(nil), app[0].Y...)
			app[0].Y[0] = tc.label
			_, err = Update(s, UpdateSpec{Model: tc.model, Append: app, AddTrees: tc.add})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("update under %s: err = %v, want mention of %q", tc.name, err, tc.want)
			}
			if !s.Healthy() {
				t.Fatalf("a refused update under %s aborted the session", tc.name)
			}
			for c := 0; c < s.M; c++ {
				if n := s.Party(c).part.N; n != ds.N() {
					t.Fatalf("a refused update under %s left client %d with %d rows, want %d", tc.name, c, n, ds.N())
				}
			}
		})
	}
}
