package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// tiny shrinks Quick further so the whole experiment suite stays testable.
func tiny() Preset {
	p := Quick()
	p.N = 20
	p.B = 2
	p.H = 2
	p.W = 1
	p.Ms = []int{2, 3}
	p.Ns = []int{16, 32}
	p.DBars = []int{1, 2}
	p.Bs = []int{2, 3}
	p.Hs = []int{1, 2}
	p.Ws = []int{1}
	p.Trials = 1
	p.AccuracyN = 120
	return p
}

func TestFig4aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol sweep")
	}
	res, err := Fig4a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		basic := row.Series["Pivot-Basic"]
		enhanced := row.Series["Pivot-Enhanced"]
		if basic <= 0 || enhanced <= 0 {
			t.Fatalf("non-positive timings: %+v", row.Series)
		}
	}
	// Paper: Pivot-Basic always beats Pivot-Enhanced in training.  Two
	// 0.1 s trainings cannot be ordered by their wall clock, so the claim
	// is asserted on what makes it true — the enhanced protocol's extra
	// encryptions and threshold decryptions — which are deterministic.
	p := tiny()
	for _, m := range p.Ms {
		heOps := func(proto core.Protocol) int64 {
			_, stats, _, err := trainKind(synth(p, m), m, cfgFor(p, proto, 1), core.KindDT)
			if err != nil {
				t.Fatal(err)
			}
			return stats.DecShares + stats.Encryptions
		}
		if basic, enhanced := heOps(core.Basic), heOps(core.Enhanced); enhanced < basic {
			t.Errorf("m=%d: enhanced does %d encryptions + decryption shares, fewer than basic's %d", m, enhanced, basic)
		}
	}
}

func TestEnhancedGrowsFasterInN(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol sweep")
	}
	// Fig 4b's claim: enhanced training scales linearly in n (the encrypted
	// mask update needs O(n) threshold decryptions per internal node) while
	// basic grows slowly (its decryptions are O(cdb), independent of n).
	// Wall-clock at test scale is noise-dominated, so assert the claim on
	// the deterministic operation counts instead.  Packing divides DecShares
	// by the slot count, so both n fill whole packed ciphertexts (a depth-2
	// tree's update converts the root's n values, four to a ciphertext at
	// 256-bit keys), and every tree is grown to full depth, so the per-node
	// count is taken over the same seven nodes at both n.
	p := tiny()
	decPerNode := func(proto core.Protocol, n int) float64 {
		pp := p
		pp.N = n
		ds := synth(pp, pp.M)
		cfg := cfgFor(pp, proto, 1)
		cfg.Tree.LeafOnZeroGain = false
		_, stats, _, err := trainKind(ds, pp.M, cfg, core.KindDT)
		if err != nil {
			t.Fatal(err)
		}
		if stats.NodesTrained != 7 {
			t.Fatalf("%v, n = %d: %d nodes trained, want a full depth-2 tree", proto, n, stats.NodesTrained)
		}
		return float64(stats.DecShares) / float64(stats.NodesTrained)
	}
	const loN, hiN = 32, 192
	growthEnh := decPerNode(core.Enhanced, hiN) / decPerNode(core.Enhanced, loN)
	growthBas := decPerNode(core.Basic, hiN) / decPerNode(core.Basic, loN)
	if growthEnh <= growthBas*1.5 {
		t.Errorf("enhanced per-node decryption n-growth %.2fx should clearly exceed basic %.2fx", growthEnh, growthBas)
	}
}

func TestFig5aIncludesBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol sweep")
	}
	p := tiny()
	p.Ms = []int{2}
	res, err := Fig5a(p)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	for _, name := range []string{"Pivot-Basic", "Pivot-Enhanced", "SPDZ-DT", "NPD-DT"} {
		if _, ok := row.Series[name]; !ok {
			t.Fatalf("missing series %s", name)
		}
	}
	// NPD-DT (non-private) must be far cheaper than any private protocol.
	if row.Series["NPD-DT"] >= row.Series["Pivot-Basic"] {
		t.Errorf("NPD-DT (%.3fs) not cheaper than Pivot-Basic (%.3fs)",
			row.Series["NPD-DT"], row.Series["Pivot-Basic"])
	}
}

func TestTable3ProducesAllSixColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy comparison")
	}
	p := tiny()
	res, err := Table3(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 dataset rows, got %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		for _, col := range []string{"Pivot-DT", "NP-DT", "Pivot-RF", "NP-RF", "Pivot-GBDT", "NP-GBDT"} {
			if _, ok := row.Series[col]; !ok {
				t.Fatalf("row %d missing column %s", i, col)
			}
		}
		if i < 2 { // classification rows: accuracy in [0,1], above chance
			if row.Series["Pivot-DT"] < 0.5 || row.Series["Pivot-DT"] > 1.0 {
				t.Errorf("row %d Pivot-DT accuracy %v implausible", i, row.Series["Pivot-DT"])
			}
		}
	}
}

func TestFormatRendersAllSeries(t *testing.T) {
	r := &Result{ID: "x", Title: "demo", XLabel: "n", Unit: "s",
		Rows: []Row{{X: 1, Series: map[string]float64{"a": 0.5, "b": 1.5}}}}
	out := r.Format()
	for _, frag := range []string{"demo", "a", "b", "0.5", "1.5"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("formatted output missing %q:\n%s", frag, out)
		}
	}
}

func TestPresetsAreComplete(t *testing.T) {
	for _, p := range []Preset{Quick(), Paper()} {
		if p.N == 0 || p.B == 0 || p.H == 0 || p.M == 0 || len(p.Ms) == 0 || len(p.Ns) == 0 {
			t.Fatalf("incomplete preset %q: %+v", p.Name, p)
		}
	}
}

// TestRegistry pins the one list every consumer reads: ids are unique,
// every entry has a Run, and All visits every entry (counted with stubs,
// not by running the slow ones).
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Errorf("experiment %q registered twice", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("experiment %q has no Run", e.ID)
		}
	}

	saved := Registry
	defer func() { Registry = saved }()
	visits := 0
	Registry = make([]Experiment, len(saved))
	for i, e := range saved {
		Registry[i] = Experiment{ID: e.ID, Title: e.Title,
			Run: func(Preset) (*Result, error) { visits++; return &Result{}, nil }}
	}
	results, err := All(Quick())
	if err != nil || len(results) != len(saved) || visits != len(saved) {
		t.Fatalf("All ran %d of %d experiments (%d results): %v", visits, len(saved), len(results), err)
	}
	for i, r := range results {
		if r.ID != saved[i].ID || r.Title != saved[i].Title {
			t.Errorf("result %d is %q (%q), want %q", i, r.ID, r.Title, saved[i].ID)
		}
	}
}
