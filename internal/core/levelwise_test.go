package core

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/dataset"
	"repro/internal/paillier"
	"repro/internal/tree"
)

// Level-wise vs per-node equivalence: the batched pipeline must produce the
// exact same tree as the paper's recursion — every MPC primitive is a
// deterministic function of its inputs, so batching may only change round
// structure, never values.  The rendered outline includes owners, features,
// thresholds and leaf labels, so string equality is tree equality.

func trainBothModes(t *testing.T, ds *dataset.Dataset, m int, cfg Config) (perNode, levelWise *Model, perNodeStats, levelWiseStats RunStats) {
	t.Helper()
	sPN, _, mPN := trainSessionSpec(t, ds, m, cfg, TrainSpec{PerNode: true})
	sLW, _, mLW := trainSession(t, ds, m, cfg)
	assertDerived(t, cfg, mLW, sPN.Stats(), sLW.Stats())
	return mPN, mLW, sPN.Stats(), sLW.Stats()
}

// siblingPairs counts the splits whose two children both split: the right
// children a level-wise training derives at least (a left child that passes
// pruning and then stops at zero gain still lends its statistics, so there
// may be more).
func siblingPairs(m *Model) int {
	pairs := 0
	for _, n := range m.Nodes {
		if !n.Leaf && !m.Nodes[n.Left].Leaf && !m.Nodes[n.Right].Leaf {
			pairs++
		}
	}
	return pairs
}

// assertDerived holds RunStats.NodesDerived to the trees: the per-node
// oracle trains frontiers of one and never derives; the level-wise schedule
// derives every right child whose left sibling splits — exactly 2^(h−1) − 1
// of them in a full tree of depth h.
func assertDerived(t *testing.T, cfg Config, mLW *Model, pn, lw RunStats) {
	t.Helper()
	if pn.NodesDerived != 0 {
		t.Errorf("per-node oracle derived %d nodes, want 0", pn.NodesDerived)
	}
	h := cfg.Tree.MaxDepth
	if mLW.InternalNodes() == 1<<h-1 {
		if want := 1<<(h-1) - 1; lw.NodesDerived != want {
			t.Errorf("full depth-%d tree: %d nodes derived, want %d", h, lw.NodesDerived, want)
		}
	} else if lw.NodesDerived < siblingPairs(mLW) {
		t.Errorf("%d nodes derived, fewer than the tree's %d sibling pairs", lw.NodesDerived, siblingPairs(mLW))
	}
	t.Logf("nodes derived: %d of %d trained (internal %d)", lw.NodesDerived, lw.NodesTrained, mLW.InternalNodes())
}

func TestLevelwiseEquivalenceClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	mPN, mLW, stPN, stLW := trainBothModes(t, ds, 2, testConfig())
	if got, want := mLW.String(), mPN.String(); got != want {
		t.Fatalf("level-wise tree differs from per-node tree:\nper-node:\n%s\nlevel-wise:\n%s", want, got)
	}
	if mLW.Leaves != mPN.Leaves || mLW.InternalNodes() != mPN.InternalNodes() {
		t.Fatalf("shape differs: %d/%d vs %d/%d leaves/internal",
			mLW.Leaves, mLW.InternalNodes(), mPN.Leaves, mPN.InternalNodes())
	}
	if mPN.InternalNodes() == 0 {
		t.Fatal("degenerate comparison: per-node tree did not split")
	}
	if stLW.MPC.Rounds >= stPN.MPC.Rounds {
		t.Fatalf("level-wise rounds %d not below per-node rounds %d", stLW.MPC.Rounds, stPN.MPC.Rounds)
	}
	t.Logf("rounds: per-node %d, level-wise %d (%.2fx)",
		stPN.MPC.Rounds, stLW.MPC.Rounds, float64(stPN.MPC.Rounds)/float64(stLW.MPC.Rounds))
}

// TestLevelwisePrunedLeftSibling: a right child whose left sibling is pruned
// has no statistics to derive from and is trained directly.  Client 0's x0
// isolates four class-1 rows (fewer than MinSamplesSplit = 5, so that left
// child is pruned); client 1's x1 then splits the twelve on the right (nine
// class 0, three class 1).  The level-wise tree — over the memory network
// (barrier) and loopback TCP (pipelined: the right child was left out of the
// speculative γ pass and gets its channels once pruning has spoken) — must
// equal the per-node oracle's and the plaintext CART tree, with no node
// derived.
func TestLevelwisePrunedLeftSibling(t *testing.T) {
	ds := &dataset.Dataset{Classes: 2}
	for _, r := range []struct {
		x0, x1, y float64
		count     int
	}{{0, 0, 1, 4}, {1, 0, 0, 9}, {1, 1, 1, 3}} {
		for k := 0; k < r.count; k++ {
			ds.X, ds.Y = append(ds.X, []float64{r.x0, r.x1}), append(ds.Y, r.y)
		}
	}
	cfg := testConfig()
	cfg.Tree.MinSamplesSplit = 5
	const want = "x0<=0.5(1,x1<=0.5(0,1))"

	// Both kinds of tree in one notation: global feature indices, preorder,
	// the x <= threshold side first.
	var renderCART func(nodes []tree.Node, i int) string
	renderCART = func(nodes []tree.Node, i int) string {
		if n := nodes[i]; !n.Leaf {
			return fmt.Sprintf("x%d<=%g(%s,%s)", n.Feature, n.Threshold, renderCART(nodes, n.Left), renderCART(nodes, n.Right))
		}
		return fmt.Sprintf("%g", nodes[i].Value)
	}
	ref, err := tree.Fit(ds, tree.Hyper{MaxDepth: cfg.Tree.MaxDepth, MaxSplits: cfg.Tree.MaxSplits, MinSamplesSplit: cfg.Tree.MinSamplesSplit})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderCART(ref.Nodes, 0); got != want {
		t.Fatalf("plaintext CART grew %s, want %s", got, want)
	}
	train := func(c Config, spec TrainSpec) {
		t.Helper()
		s, parts, m := trainSessionSpec(t, ds, 2, c, spec)
		var render func(i int) string
		render = func(i int) string {
			if n := m.Nodes[i]; !n.Leaf {
				return fmt.Sprintf("x%d<=%g(%s,%s)", parts[n.Owner].Features[n.Feature], n.Threshold, render(n.Left), render(n.Right))
			}
			return fmt.Sprintf("%g", m.Nodes[i].Label)
		}
		if got := render(0); got != want {
			t.Errorf("tcp %v, per-node %v: grew %s, the plaintext CART tree is %s", c.TCPLoopback, spec.PerNode, got, want)
		}
		if d := s.Stats().NodesDerived; d != 0 {
			t.Errorf("tcp %v, per-node %v: %d nodes derived beside a pruned sibling, want 0", c.TCPLoopback, spec.PerNode, d)
		}
	}
	train(cfg, TrainSpec{PerNode: true})
	train(cfg, TrainSpec{})
	cfg.TCPLoopback = true
	train(cfg, TrainSpec{})
}

func TestLevelwiseEquivalenceRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := dataset.SyntheticRegression(40, 4, 0.2, 15)
	mPN, mLW, stPN, stLW := trainBothModes(t, ds, 2, testConfig())
	if got, want := mLW.String(), mPN.String(); got != want {
		t.Fatalf("level-wise tree differs from per-node tree:\nper-node:\n%s\nlevel-wise:\n%s", want, got)
	}
	if mPN.InternalNodes() == 0 {
		t.Fatal("degenerate comparison: per-node tree did not split")
	}
	if stLW.MPC.Rounds >= stPN.MPC.Rounds {
		t.Fatalf("level-wise rounds %d not below per-node rounds %d", stLW.MPC.Rounds, stPN.MPC.Rounds)
	}
}

func TestLevelwiseEnhancedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(30)
	cfg := testConfig()
	cfg.Protocol = Enhanced
	cfg.Tree.MaxDepth = 2
	mPN, mLW, _, _ := trainBothModes(t, ds, 2, cfg)
	// Enhanced models conceal thresholds and labels, so compare the public
	// structure: the rendered outline (owners/features/shape).
	if got, want := mLW.String(), mPN.String(); got != want {
		t.Fatalf("level-wise enhanced tree differs:\nper-node:\n%s\nlevel-wise:\n%s", want, got)
	}
	if mLW.Leaves != mPN.Leaves {
		t.Fatalf("leaf count differs: %d vs %d", mLW.Leaves, mPN.Leaves)
	}
}

func TestLevelwiseGBDTEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	// Encrypted-label mode (GBDT boosting rounds) routes through the
	// level-wise driver's maintained-channel path; every tree of the
	// ensemble must match the per-node recursion's.
	ds := dataset.SyntheticRegression(24, 4, 0.2, 21)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	cfg.NumTrees = 2

	trainGBDT := func(perNode bool) *BoostModel {
		parts, err := dataset.VerticalPartition(ds, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		mdl, err := Train(s, TrainSpec{Model: KindGBDT, PerNode: perNode})
		if err != nil {
			t.Fatal(err)
		}
		return mdl.(*BoostModel)
	}

	pn := trainGBDT(true)
	lw := trainGBDT(false)
	if len(pn.Forests[0]) != len(lw.Forests[0]) {
		t.Fatalf("tree count differs: %d vs %d", len(pn.Forests[0]), len(lw.Forests[0]))
	}
	for w := range pn.Forests[0] {
		if got, want := lw.Forests[0][w].String(), pn.Forests[0][w].String(); got != want {
			t.Fatalf("GBDT round %d tree differs:\nper-node:\n%s\nlevel-wise:\n%s", w, want, got)
		}
	}
}

func TestChunkedCiphertextMessaging(t *testing.T) {
	// Force tiny frames so the multi-chunk broadcast/receive paths run;
	// values must survive the split-and-reassemble round trip.
	ds := smallClassification(12)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		s.Party(i).testCtChunk = 3
	}
	const total = 10
	err = s.Each(func(p *Party) error {
		var cts []*paillier.Ciphertext
		if p.ID == p.Super {
			vals := make([]*big.Int, total)
			for i := range vals {
				vals[i] = big.NewInt(int64(i))
			}
			var err error
			cts, err = p.encryptVec(vals)
			if err != nil {
				return err
			}
			if err := p.broadcastCtsChunked(cts); err != nil {
				return err
			}
		} else {
			var err error
			cts, err = p.recvCtsChunked(p.Super, total)
			if err != nil {
				return err
			}
		}
		got, err := p.jointDecryptAll(cts)
		if err != nil {
			return err
		}
		for i, v := range got {
			if v.Int64() != int64(i) {
				return p.errf("chunked value %d decrypted to %v", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLevelwiseChunkedTraining(t *testing.T) {
	// A whole level-wise training run under tiny frames: the gamma
	// broadcast and split-statistics shipping cross chunk boundaries and
	// the tree must come out the same as with unbounded frames.
	ds := smallClassification(20)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2

	train := func(chunk int) *Model {
		parts, err := dataset.VerticalPartition(ds, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		for i := 0; i < 2; i++ {
			s.Party(i).testCtChunk = chunk
		}
		models := make([]*Model, 2)
		if err := s.Each(func(p *Party) error {
			m, err := p.TrainDT()
			if err == nil {
				models[p.ID] = m
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return models[0]
	}

	whole := train(0)
	chunked := train(5)
	if got, want := chunked.String(), whole.String(); got != want {
		t.Fatalf("chunked-frame training changed the tree:\nwhole:\n%s\nchunked:\n%s", want, got)
	}
}

func TestLevelwiseTrafficSurfaced(t *testing.T) {
	ds := smallClassification(24)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	s, _, _ := trainSession(t, ds, 2, cfg)
	st := s.Stats()
	if st.Traffic.MsgsSent == 0 || st.Traffic.BytesSent == 0 {
		t.Fatalf("traffic totals not populated: %+v", st.Traffic)
	}
	if st.Traffic.MsgsRecv == 0 || st.Traffic.BytesRecv == 0 {
		t.Fatalf("receive counters not populated: %+v", st.Traffic)
	}
	if len(st.Traffic.Peers) == 0 {
		t.Fatal("per-peer traffic breakdown missing")
	}
	var peerMsgs int64
	for _, pt := range st.Traffic.Peers {
		peerMsgs += pt.MsgsSent
	}
	if peerMsgs != st.Traffic.MsgsSent {
		t.Fatalf("per-peer sent messages %d do not sum to total %d", peerMsgs, st.Traffic.MsgsSent)
	}
	// The protocol counters are the snapshot without the dealer link.
	dealer := st.Traffic.Peers[len(st.Traffic.Peers)-1]
	if dealer.MsgsSent == 0 {
		t.Fatal("no dealer requests in the per-peer breakdown")
	}
	if st.Traffic.MsgsSent-dealer.MsgsSent != st.MessagesSent || st.Traffic.BytesSent-dealer.BytesSent != st.BytesSent {
		t.Fatalf("protocol counters are not the snapshot less the dealer row: %+v vs msgs=%d bytes=%d",
			st.Traffic, st.MessagesSent, st.BytesSent)
	}
}
