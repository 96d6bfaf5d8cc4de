package core

import (
	"testing"

	"repro/internal/dataset"
)

// Equivalence tests for the frontier-wide batched model update: batching
// the EQZ ladders, share→ciphertext conversions and Eqn-10 products across
// a whole level (and, for GBDT, across the class trees of a boosting round)
// shares rounds but never changes values, so the rendered trees must be
// bit-identical to the per-node oracle's.

func assertSameTree(t *testing.T, name string, got, want *Model) {
	t.Helper()
	if got.String() != want.String() {
		t.Fatalf("%s: batched-update tree differs from per-node tree:\nper-node:\n%s\nbatched:\n%s",
			name, want.String(), got.String())
	}
	if got.Leaves != want.Leaves || got.InternalNodes() != want.InternalNodes() {
		t.Fatalf("%s: shape differs: %d/%d vs %d/%d leaves/internal",
			name, got.Leaves, got.InternalNodes(), want.Leaves, want.InternalNodes())
	}
}

func TestUpdateBatchEquivalenceDT(t *testing.T) {
	// Ungated: the cheap basic-protocol case keeps the batched update on
	// the short suite's radar.
	ds := smallClassification(24)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	mPN, mLW, _, _ := trainBothModes(t, ds, 2, cfg)
	assertSameTree(t, "dt-classification", mLW, mPN)
	if mPN.InternalNodes() == 0 {
		t.Fatal("degenerate comparison: per-node tree did not split")
	}
}

func TestUpdateBatchEquivalenceDTRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := dataset.SyntheticRegression(36, 4, 0.2, 29)
	mPN, mLW, _, _ := trainBothModes(t, ds, 2, testConfig())
	assertSameTree(t, "dt-regression", mLW, mPN)
	if mPN.InternalNodes() == 0 {
		t.Fatal("degenerate comparison: per-node tree did not split")
	}
}

func TestUpdateBatchEquivalenceEnhanced(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"classification", smallClassification(30)},
		{"regression", dataset.SyntheticRegression(24, 4, 0.2, 43)},
	} {
		cfg := testConfig()
		cfg.Protocol = Enhanced
		cfg.Tree.MaxDepth = 2
		mPN, mLW, _, _ := trainBothModes(t, tc.ds, 2, cfg)
		assertSameTree(t, "enhanced-"+tc.name, mLW, mPN)
		if mPN.InternalNodes() == 0 {
			t.Fatalf("enhanced-%s: degenerate comparison: no splits", tc.name)
		}
	}
}

func TestUpdateBatchEquivalenceHidden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(16)
	for _, level := range []HideLevel{HideFeature, HideClient} {
		cfg := testConfig()
		cfg.Protocol = Enhanced
		cfg.Hide = level
		cfg.Tree.MaxDepth = 2
		mPN, mLW, _, _ := trainBothModes(t, ds, 3, cfg)
		assertSameTree(t, level.String(), mLW, mPN)
	}
}

// trainEnsembleBothModes trains fn on the per-node oracle and the
// (batched-update) level-wise schedule and returns both results.
func trainEnsembleBothModes[M any](t *testing.T, ds *dataset.Dataset, m int, cfg Config,
	fn func(*Party) (M, error)) (perNode, levelWise M) {
	t.Helper()
	run := func(perNode bool) M {
		parts, err := dataset.VerticalPartition(ds, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		var out M
		if err := s.Each(func(p *Party) error {
			p.perNode = perNode
			v, err := fn(p)
			if p.ID == 0 && err == nil {
				out = v
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	return run(true), run(false)
}

func TestUpdateBatchEquivalenceRF(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"classification", smallClassification(20)},
		{"regression", dataset.SyntheticRegression(20, 4, 0.2, 51)},
	} {
		cfg := testConfig()
		cfg.NumTrees = 2
		cfg.Tree.MaxDepth = 2
		pn, lw := trainEnsembleBothModes(t, tc.ds, 2, cfg,
			func(p *Party) (*ForestModel, error) { return p.TrainRF() })
		if len(pn.Trees) != len(lw.Trees) {
			t.Fatalf("rf-%s: tree count differs: %d vs %d", tc.name, len(pn.Trees), len(lw.Trees))
		}
		for w := range pn.Trees {
			assertSameTree(t, "rf-"+tc.name, lw.Trees[w], pn.Trees[w])
		}
	}
}

func TestUpdateBatchEquivalenceGBDT(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	// Multi-class classification routes every boosting round's class trees
	// through the shared cross-class frontier; regression keeps residual
	// labels encrypted between rounds.  Both must match the per-node
	// oracle's trees exactly.
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"classification", dataset.SyntheticClassification(24, 4, 3, 3.0, 11)},
		{"regression", dataset.SyntheticRegression(20, 4, 0.2, 61)},
	} {
		cfg := testConfig()
		cfg.NumTrees = 2
		cfg.LearningRate = 0.5
		cfg.Tree.MaxDepth = 2
		pn, lw := trainEnsembleBothModes(t, tc.ds, 2, cfg,
			func(p *Party) (*BoostModel, error) { return p.TrainGBDT() })
		if len(pn.Forests) != len(lw.Forests) {
			t.Fatalf("gbdt-%s: class count differs: %d vs %d", tc.name, len(pn.Forests), len(lw.Forests))
		}
		for k := range pn.Forests {
			if len(pn.Forests[k]) != len(lw.Forests[k]) {
				t.Fatalf("gbdt-%s class %d: tree count differs", tc.name, k)
			}
			for w := range pn.Forests[k] {
				assertSameTree(t, "gbdt-"+tc.name, lw.Forests[k][w], pn.Forests[k][w])
			}
		}
	}
}

// TestUpdateBatchRoundFloor asserts the point of the batched update: the
// level-wise update phase pays one round chain per tree level, independent
// of the frontier width, while the per-node schedule pays one chain per node.
func TestUpdateBatchRoundFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(48)
	cfg := testConfig()
	cfg.Protocol = Enhanced
	// Grow a full-width tree so the frontier actually fans out: the point
	// under test is width-independence, not pruning.
	cfg.Tree.LeafOnZeroGain = false

	run := func(perNode bool) (*Model, RunStats) {
		s, _, m := trainSessionSpec(t, ds, 2, cfg, TrainSpec{PerNode: perNode})
		return m, s.Stats()
	}
	mSeq, stSeq := run(true)
	mBat, stBat := run(false)
	assertSameTree(t, "round-floor", mBat, mSeq)

	internal := mBat.InternalNodes()
	levels := mBat.Depth()
	if internal < 2*levels {
		t.Fatalf("degenerate comparison: %d internal nodes over %d levels", internal, levels)
	}
	if stSeq.UpdateRounds == 0 || stBat.UpdateRounds == 0 {
		t.Fatalf("update round counters not moving: seq %d, batched %d",
			stSeq.UpdateRounds, stBat.UpdateRounds)
	}
	t.Logf("update rounds: sequential %d, batched %d (%.2fx); %d internal nodes, depth %d",
		stSeq.UpdateRounds, stBat.UpdateRounds,
		float64(stSeq.UpdateRounds)/float64(stBat.UpdateRounds), internal, levels)
	// Mirror of the prediction pipeline's round-reduction floor.
	if stSeq.UpdateRounds < 2*stBat.UpdateRounds {
		t.Fatalf("batched update saved too little: sequential %d rounds vs batched %d",
			stSeq.UpdateRounds, stBat.UpdateRounds)
	}
	// O(depth) chains independent of frontier width: the batched total must
	// not exceed the sequential per-node chain cost times the level count.
	if stBat.UpdateRounds*int64(internal) > stSeq.UpdateRounds*int64(levels) {
		t.Fatalf("batched update rounds %d exceed per-level budget (%d seq rounds, %d nodes, %d levels)",
			stBat.UpdateRounds, stSeq.UpdateRounds, internal, levels)
	}
}
