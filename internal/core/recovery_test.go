package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/transport"
)

// recoveryCfg is a laptop-scale configuration for the crash-recovery
// equivalence tests (reduced key size, small trees, fixed seed).
func recoveryCfg() Config {
	cfg := DefaultConfig()
	cfg.KeyBits = 256
	cfg.Tree.MaxDepth = 3
	cfg.Tree.MaxSplits = 3
	cfg.Seed = 7
	return cfg
}

// crashAndResume runs train on a session with a crash armed at the given
// chaos level mark, asserts the crash aborted the run after at least one
// committed checkpoint, then rebuilds the federation with ResumeSession and
// returns the recovered model.
func crashAndResume(t *testing.T, parts []*dataset.Partition, cfg Config,
	crashLevel int, train func(*Party) error) *RecoveredModel {
	t.Helper()

	store := &CheckpointStore{}
	ccfg := cfg
	ccfg.Checkpoint = store
	ccfg.Chaos = &transport.ChaosConfig{Seed: 11, CrashAtLevel: crashLevel}
	ccfg.ChaosParty = 1
	s, err := NewSession(parts, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Each(train)
	s.Close()
	if err == nil {
		t.Fatal("expected the armed crash to abort training")
	}
	ck := store.Latest()
	if ck == nil {
		t.Fatal("no checkpoint committed before the crash")
	}
	if ck.Depth < 1 {
		t.Fatalf("checkpoint depth = %d, want >= 1", ck.Depth)
	}
	// Below MaxDepth the resumed level may derive its right children, so the
	// checkpointed frontier carries their parents' statistics.
	for _, fn := range ck.parties[0].frontier {
		if !fn.left && (fn.pstats != nil) != (ck.Depth < cfg.Tree.MaxDepth) {
			t.Fatalf("checkpoint at depth %d of %d: right child carries parent statistics %v", ck.Depth, cfg.Tree.MaxDepth, fn.pstats != nil)
		}
	}

	rcfg := cfg
	rcfg.Checkpoint = store
	rs, err := ResumeSession(parts, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	res, err := rs.Resume()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecoveryEquivalenceDT pins the tentpole guarantee: a party crashed
// mid-level and resumed from the last checkpoint produces a decision tree
// bit-identical to the fault-free run, on the memory network and over
// loopback TCP (where the session overlaps).  A DP run replays the same
// noise draws: they are dealer material, which the snapshots capture.
func TestRecoveryEquivalenceDT(t *testing.T) {
	ds := dataset.SyntheticClassification(24, 4, 2, 2.0, 5)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dp := range []*DPConfig{nil, {Epsilon: 4}} {
		cfg := recoveryCfg()
		cfg.DP = dp
		oracle, _, err := TrainDecisionTree(ds, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tcp := range []bool{false, true} {
			cfg.TCPLoopback = tcp
			res := crashAndResume(t, parts, cfg, 1, func(p *Party) error {
				_, err := p.TrainDT()
				return err
			})
			if res.Kind != "dt" || res.DT == nil {
				t.Fatalf("dp %v, tcp %v: recovered kind = %q", dp, tcp, res.Kind)
			}
			if !reflect.DeepEqual(res.DT, oracle) {
				t.Fatalf("dp %v, tcp %v: recovered tree differs from fault-free oracle:\nrecovered: %+v\noracle:    %+v", dp, tcp, res.DT, oracle)
			}
		}
	}
}

// TestRecoveryEquivalenceRF crashes inside the second forest tree: the
// checkpoint must carry the completed trees, and the resumed forest must
// match the fault-free oracle tree for tree.
func TestRecoveryEquivalenceRF(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tree recovery equivalence runs in the nightly suite")
	}
	cfg := recoveryCfg()
	cfg.Tree.MaxDepth = 2
	cfg.NumTrees = 2
	cfg.Subsample = 0.8
	ds := dataset.SyntheticClassification(24, 4, 2, 2.0, 6)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	var oracle *ForestModel
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Each(func(p *Party) error {
		fm, err := p.TrainRF()
		if err == nil && p.ID == 0 {
			oracle = fm
		}
		return err
	})
	s.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Tree 0 at depth 2 emits at most 3 level marks; mark 4 lands inside
	// tree 1, so the checkpoint must restore the RF unit context.
	for _, tcp := range []bool{false, true} {
		cfg.TCPLoopback = tcp
		res := crashAndResume(t, parts, cfg, 4, func(p *Party) error {
			_, err := p.TrainRF()
			return err
		})
		if res.Kind != "rf" || res.Forest == nil {
			t.Fatalf("tcp %v: recovered kind = %q", tcp, res.Kind)
		}
		if !reflect.DeepEqual(res.Forest, oracle) {
			t.Fatalf("tcp %v: recovered forest differs from fault-free oracle", tcp)
		}
	}
}

// TestRecoveryEquivalenceGBDT crashes inside a classification boosting
// round: the checkpoint must carry the one-hot shares, accumulated scores
// and residual ciphertexts, and the resumed ensemble must match the oracle.
func TestRecoveryEquivalenceGBDT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round recovery equivalence runs in the nightly suite")
	}
	cfg := recoveryCfg()
	cfg.Tree.MaxDepth = 2
	cfg.NumTrees = 2
	ds := dataset.SyntheticClassification(24, 4, 2, 2.0, 8)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	var oracle *BoostModel
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Each(func(p *Party) error {
		bm, err := p.TrainGBDT()
		if err == nil && p.ID == 0 {
			oracle = bm
		}
		return err
	})
	s.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, tcp := range []bool{false, true} {
		cfg.TCPLoopback = tcp
		res := crashAndResume(t, parts, cfg, 4, func(p *Party) error {
			_, err := p.TrainGBDT()
			return err
		})
		if res.Kind != "gbdt" || res.Boost == nil {
			t.Fatalf("tcp %v: recovered kind = %q", tcp, res.Kind)
		}
		if !reflect.DeepEqual(res.Boost, oracle) {
			t.Fatalf("tcp %v: recovered GBDT differs from fault-free oracle", tcp)
		}
	}
}

// TestRecoveryEquivalenceGBDTRegression covers the regression boosting
// path: base prediction and residual ciphertexts restored from the
// checkpoint, residualUpdate replayed from the captured leaf masks.
func TestRecoveryEquivalenceGBDTRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round recovery equivalence runs in the nightly suite")
	}
	cfg := recoveryCfg()
	cfg.Tree.MaxDepth = 2
	cfg.NumTrees = 2
	ds := dataset.SyntheticRegression(24, 4, 0.1, 9)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	var oracle *BoostModel
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Each(func(p *Party) error {
		bm, err := p.TrainGBDT()
		if err == nil && p.ID == 0 {
			oracle = bm
		}
		return err
	})
	s.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, tcp := range []bool{false, true} {
		cfg.TCPLoopback = tcp
		res := crashAndResume(t, parts, cfg, 4, func(p *Party) error {
			_, err := p.TrainGBDT()
			return err
		})
		if res.Boost == nil {
			t.Fatalf("tcp %v: recovered kind = %q", tcp, res.Kind)
		}
		if !reflect.DeepEqual(res.Boost, oracle) {
			t.Fatalf("tcp %v: recovered GBDT regression ensemble differs from fault-free oracle", tcp)
		}
	}
}

// TestRecoveryChaosTCPLoopback is the CI chaos smoke: one crash-at-level
// run over the real TCP loopback mesh, where the session overlaps levels on
// the pipelined driver with the checkpoint store wired, resumed and checked
// bit-identical against the fault-free memory-network oracle.
func TestRecoveryChaosTCPLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP chaos smoke runs in the CI chaos step and the nightly suite")
	}
	cfg := recoveryCfg()
	ds := dataset.SyntheticClassification(24, 4, 2, 2.0, 5)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err := TrainDecisionTree(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := cfg
	tcfg.TCPLoopback = true
	res := crashAndResume(t, parts, tcfg, 1, func(p *Party) error {
		if !p.pipelined() || p.ck == nil {
			t.Errorf("party %d: pipelined() = %v, store wired %v; want both", p.ID, p.pipelined(), p.ck != nil)
		}
		_, err := p.TrainDT()
		return err
	})
	if !reflect.DeepEqual(res.DT, oracle) {
		t.Fatalf("TCP-recovered tree differs from fault-free oracle")
	}
}

// TestResumeSessionErrors pins the constructor's failure modes.
func TestResumeSessionErrors(t *testing.T) {
	ds := dataset.SyntheticClassification(8, 4, 2, 3.0, 3)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSession(parts, recoveryCfg()); err == nil {
		t.Fatal("ResumeSession without a store must fail")
	}
	cfg := recoveryCfg()
	cfg.Checkpoint = &CheckpointStore{}
	if _, err := ResumeSession(parts, cfg); err == nil {
		t.Fatal("ResumeSession without a committed checkpoint must fail")
	}

	// A malicious session cannot snapshot its MAC transcript, so a store is
	// refused up front — before key generation, which would fill the store.
	cfg.Malicious = true
	if _, err := NewSession(parts, cfg); !errors.Is(err, ErrNotRecoverable) {
		t.Fatalf("malicious NewSession with a store: %v, want ErrNotRecoverable", err)
	}
	if pk, _ := cfg.Checkpoint.keys(); pk != nil {
		t.Fatal("the refused malicious session generated keys into the store")
	}
	cfg.Checkpoint.latest = &Checkpoint{parties: make([]*partySnap, 2)}
	if _, err := ResumeSession(parts, cfg); !errors.Is(err, ErrNotRecoverable) {
		t.Fatalf("malicious ResumeSession: %v, want ErrNotRecoverable", err)
	}
}
