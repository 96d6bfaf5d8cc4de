package baseline

import (
	"errors"
	"math/big"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/transport"
	"repro/internal/tree"
)

// TestNPDDTMatchesCentralizedCART also runs Figure 5b's smallest point
// (24 rows), where a node leaves a party with no valid split: its "no split"
// index -1 must cross the wire like any other value.
func TestNPDDTMatchesCentralizedCART(t *testing.T) {
	for _, tc := range []struct {
		n, splits int
		sep       float64
		seed      uint64
	}{{100, 4, 3.0, 11}, {24, 3, 2.0, 99}} {
		ds := dataset.SyntheticClassification(tc.n, 6, 2, tc.sep, tc.seed)
		parts, err := dataset.VerticalPartition(ds, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Tree.MaxDepth = 3
		cfg.Tree.MaxSplits = tc.splits
		model, st, err := TrainNPDDT(parts, cfg)
		if err != nil {
			t.Fatalf("n = %d: %v", tc.n, err)
		}
		if st.BytesSent == 0 {
			t.Fatal("no traffic recorded")
		}
		ref, err := tree.Fit(ds, tree.Hyper{MaxDepth: 3, MaxSplits: tc.splits, MinSamplesSplit: 2})
		if err != nil {
			t.Fatal(err)
		}
		agree := 0
		for i := 0; i < ds.N(); i++ {
			feat := make([][]float64, 3)
			for c := 0; c < 3; c++ {
				feat[c] = parts[c].X[i]
			}
			pp, err := model.PredictPlain(feat)
			if err != nil {
				t.Fatal(err)
			}
			if pp == ref.Predict(ds.X[i]) {
				agree++
			}
		}
		if frac := float64(agree) / float64(ds.N()); frac < 0.95 {
			t.Fatalf("n = %d: NPD-DT agrees with centralized CART on only %.0f%%", tc.n, frac*100)
		}
	}
}

func TestNPDDTRegression(t *testing.T) {
	ds := dataset.SyntheticRegression(80, 4, 0.2, 13)
	parts, _ := dataset.VerticalPartition(ds, 2, 0)
	cfg := DefaultConfig()
	cfg.Tree.MaxDepth = 3
	model, _, err := TrainNPDDT(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mean, mseTree, mseMean float64
	for _, y := range ds.Y {
		mean += y
	}
	mean /= float64(ds.N())
	for i := 0; i < ds.N(); i++ {
		feat := [][]float64{parts[0].X[i], parts[1].X[i]}
		pp, _ := model.PredictPlain(feat)
		mseTree += (pp - ds.Y[i]) * (pp - ds.Y[i])
		mseMean += (mean - ds.Y[i]) * (mean - ds.Y[i])
	}
	if mseTree >= mseMean {
		t.Fatalf("NPD-DT regression no better than mean: %v vs %v", mseTree, mseMean)
	}
}

func TestSPDZDTClassification(t *testing.T) {
	ds := dataset.SyntheticClassification(24, 4, 2, 3.0, 17)
	parts, _ := dataset.VerticalPartition(ds, 2, 0)
	cfg := DefaultConfig()
	cfg.Tree.MaxDepth = 2
	cfg.Tree.MaxSplits = 2
	model, st, err := TrainSPDZDT(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MPC.Mults == 0 {
		t.Fatal("SPDZ-DT recorded no secure multiplications")
	}
	correct := 0
	for i := 0; i < ds.N(); i++ {
		feat := [][]float64{parts[0].X[i], parts[1].X[i]}
		pp, err := model.PredictPlain(feat)
		if err != nil {
			t.Fatal(err)
		}
		if pp == ds.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.N()); acc < 0.8 {
		t.Fatalf("SPDZ-DT training accuracy %.2f", acc)
	}
}

func TestSPDZDTRegression(t *testing.T) {
	ds := dataset.SyntheticRegression(20, 4, 0.1, 19)
	parts, _ := dataset.VerticalPartition(ds, 2, 0)
	cfg := DefaultConfig()
	cfg.Tree.MaxDepth = 2
	cfg.Tree.MaxSplits = 2
	model, _, err := TrainSPDZDT(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mean, mseTree, mseMean float64
	for _, y := range ds.Y {
		mean += y
	}
	mean /= float64(ds.N())
	for i := 0; i < ds.N(); i++ {
		feat := [][]float64{parts[0].X[i], parts[1].X[i]}
		pp, _ := model.PredictPlain(feat)
		mseTree += (pp - ds.Y[i]) * (pp - ds.Y[i])
		mseMean += (mean - ds.Y[i]) * (mean - ds.Y[i])
	}
	if mseTree >= mseMean {
		t.Fatalf("SPDZ-DT regression no better than mean: %v vs %v", mseTree, mseMean)
	}
}

// TestSPDZDTHostileSplitCountsRefused: a peer's split-count announcement sizes
// the split enumeration every SPDZ-DT party builds, so it is read under core's
// bounds and refused with core's typed error.  Unchecked, a count of 2^40 was
// an allocation of the sender's choosing, and the others were taken as valid.
func TestSPDZDTHostileSplitCountsRefused(t *testing.T) {
	parts, err := dataset.VerticalPartition(dataset.SyntheticClassification(16, 4, 2, 3.0, 3), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tree.MaxSplits = 2
	for _, tc := range []struct {
		name   string
		counts []*big.Int
	}{
		{"count above MaxSplits", []*big.Int{big.NewInt(1), big.NewInt(3)}},
		{"count of 2^40", []*big.Int{big.NewInt(1 << 40)}},
		{"count beyond int64", []*big.Int{new(big.Int).Lsh(big.NewInt(1), 70)}},
		{"no features", nil},
		{"honest", []*big.Int{big.NewInt(0), big.NewInt(2)}},
	} {
		eps := transport.NewMemoryNetwork(2, 8)
		if err := transport.SendInts(eps[1], 0, tc.counts); err != nil {
			t.Fatal(err)
		}
		p := &sparty{id: 0, m: 2, ep: eps[0], part: parts[0], cfg: cfg}
		err := p.exchangeSplitCounts()
		if tc.name == "honest" {
			if err != nil || len(p.splitIDs) != len(p.cands[0])+len(p.cands[1])+2 {
				t.Errorf("honest announcement: %v, %d split ids", err, len(p.splitIDs))
			}
			continue
		}
		if !errors.Is(err, core.ErrBadSplitCounts) || !strings.Contains(err.Error(), "from party 1") {
			t.Errorf("%s: got %v, want core.ErrBadSplitCounts naming party 1", tc.name, err)
		}
	}
}

func TestSPDZDTUsesManyMoreSharedValuesThanSamples(t *testing.T) {
	// The defining property vs Pivot: O(nd) shared inputs and O(n·db)
	// multiplications per node.
	ds := dataset.SyntheticClassification(20, 4, 2, 2.0, 23)
	parts, _ := dataset.VerticalPartition(ds, 2, 0)
	cfg := DefaultConfig()
	cfg.Tree.MaxDepth = 1
	cfg.Tree.MaxSplits = 2
	_, st, err := TrainSPDZDT(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MPC.Mults < int64(ds.N()) {
		t.Fatalf("expected at least n=%d multiplications, got %d", ds.N(), st.MPC.Mults)
	}
}

// TestNPDDTForgedFramesRefused plays the peer of one NPD-DT party with a raw
// endpoint, honest up to one forged frame per receive site.  The party
// indexed every frame before counting it and panicked on a short one; each
// site now answers core's ErrMessageLength naming the peer, and a winner or
// label outside what the party holds is refused by name.
func TestNPDDTForgedFramesRefused(t *testing.T) {
	parts, err := dataset.VerticalPartition(dataset.SyntheticClassification(16, 4, 2, 3.0, 3), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := parts[0].N
	labels := func(k int, forged *big.Int) []*big.Int {
		out := make([]*big.Int, k)
		for t := range out {
			out[t] = mpcField(int64(parts[0].Y[t%n] * 65536))
		}
		if forged != nil {
			out[k-1] = forged
		}
		return out
	}
	ints := func(vs ...int64) []*big.Int {
		out := make([]*big.Int, len(vs))
		for i, v := range vs {
			out[i] = mpcField(v)
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		id        int          // the honest party; the raw peer is the other
		frames    [][]*big.Int // what the peer sends, in order
		got, want int          // the ErrMessageLength expected, or ...
		errText   string       // ... an error naming this
	}{
		{name: "short label broadcast", id: 1, frames: [][]*big.Int{labels(n-1, nil)}, got: n - 1, want: n},
		{name: "label not a class", id: 1, frames: [][]*big.Int{labels(n, mpcField(7*65536))}, errText: "not a class"},
		{name: "short gain report", id: 0, frames: [][]*big.Int{ints(1, 0)}, got: 2, want: 3},
		{name: "short winner", id: 1, frames: [][]*big.Int{labels(n, nil), ints(1, 0)}, got: 2, want: 3},
		{name: "winner names no split", id: 1, frames: [][]*big.Int{labels(n, nil), ints(1, 99, 0)}, errText: "names no split"},
		{name: "short child mask", id: 1, frames: [][]*big.Int{labels(n, nil), ints(0, 0, 0), ints(make([]int64, n)...)}, got: n, want: n + 1},
	} {
		eps := transport.NewMemoryNetwork(2, 8)
		peer := 1 - tc.id
		for _, f := range tc.frames {
			if err := transport.SendInts(eps[peer], tc.id, f); err != nil {
				t.Fatal(err)
			}
		}
		cfg := DefaultConfig()
		cfg.Tree.MaxDepth = 2
		p := &npdParty{id: tc.id, m: 2, ep: eps[tc.id], part: parts[tc.id], cfg: cfg}
		_, err := p.train()
		var short *core.ErrMessageLength
		switch {
		case tc.errText != "":
			if err == nil || !strings.Contains(err.Error(), tc.errText) {
				t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.errText)
			}
		case !errors.As(err, &short) || short.From != peer || short.Got != tc.got || short.Want != tc.want:
			t.Errorf("%s: got %v, want ErrMessageLength from %d with %d of %d values", tc.name, err, peer, tc.got, tc.want)
		}
		closeAll(eps)
	}
}

// TestSPDZDTForgedFramesRefused: the threshold announcement is counted
// before it is read, and an opened winner that the public split counts do
// not hold is refused before the owner indexes its candidates or anyone
// slices the per-split products by it.
func TestSPDZDTForgedFramesRefused(t *testing.T) {
	eps := transport.NewMemoryNetwork(2, 8)
	defer closeAll(eps)
	p := &sparty{id: 0, m: 2, ep: eps[0], cfg: DefaultConfig(), splitCounts: [][]int{{2, 1}, {0, 2}}}
	if err := transport.SendInts(eps[1], 0, nil); err != nil {
		t.Fatal(err)
	}
	var short *core.ErrMessageLength
	if _, err := p.recvThreshold(1); !errors.As(err, &short) || short.Got != 0 || short.Want != 1 {
		t.Errorf("empty threshold announcement: got %v, want ErrMessageLength with 0 of 1 values", err)
	}
	for _, tc := range []struct {
		name string
		ids  []*big.Int
		ok   bool
	}{
		{"honest", []*big.Int{big.NewInt(1), big.NewInt(1), big.NewInt(1)}, true},
		{"client beyond m", []*big.Int{big.NewInt(2), big.NewInt(0), big.NewInt(0)}, false},
		{"feature beyond the owner's", []*big.Int{big.NewInt(0), big.NewInt(2), big.NewInt(0)}, false},
		{"split of a feature with none", []*big.Int{big.NewInt(1), big.NewInt(0), big.NewInt(0)}, false},
		{"split beyond the count", []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(1)}, false},
		{"negative split", []*big.Int{big.NewInt(0), big.NewInt(0), big.NewInt(-1)}, false},
		{"split beyond int64", []*big.Int{big.NewInt(0), big.NewInt(0), new(big.Int).Lsh(big.NewInt(1), 70)}, false},
	} {
		if _, _, _, err := p.winner(tc.ids); (err == nil) != tc.ok {
			t.Errorf("%s: got %v, accepted want %v", tc.name, err, tc.ok)
		}
	}
}

func closeAll(eps []transport.Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}
