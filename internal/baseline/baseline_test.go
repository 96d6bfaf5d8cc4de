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
