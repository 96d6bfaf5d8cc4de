package core

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// The per-node schedule's recorded oracle.  testdata/pernode_golden.json was
// produced by the Algorithm-3 recursion (buildNode and its per-node kernels)
// at the commit before they were deleted; the width-one depth-first schedule
// over the level kernels has to reproduce every entry: the same rendered
// trees, node order and federated predictions, the same MPC rounds, update
// rounds, encryptions and decryption shares, and no more messages.  The
// malicious entry is held tighter — equal messages, bytes within 100 — so a
// dropped proof shows up.
//
// PR 22 (log-depth comparison ladders, tournament argmax, masks dealt as
// values) re-recorded the MPC rounds, messages and bytes of every entry and
// nothing else of the twelve non-DP ones: their trees, node order,
// predictions, update rounds, encryptions and decryption shares are still
// the recursion's.  The dp entry was re-recorded whole — its noise comes
// from the dealer's stream, whose cursor the new mask request moves.
//
// PR 23 (left-only split statistics of the sent channels, the rest derived on
// shares) re-recorded three columns of all thirteen entries — encryptions,
// decryption shares and bytes, each lower: the right-side and last-class
// ciphertexts are no longer made, rerandomised, shipped or jointly decrypted
// — and the malicious entry's messages (1228 → 1211: one γ broadcast and one
// proven statistic per split fewer per node).  A script checked, entry by
// entry, that trees, node order, predictions, MPC rounds and update rounds
// equal the recorded ones before it rewrote those columns and nothing else.

// goldenVariant is one recorded configuration: 2 clients, 256-bit keys,
// seed 1, trained on ds and evaluated on its own rows.
type goldenVariant struct {
	name string
	kind ModelKind
	ds   func() *dataset.Dataset
	set  func(*Config)
}

func goldenCls() *dataset.Dataset { return smallClassification(32) }
func goldenReg() *dataset.Dataset { return dataset.SyntheticRegression(32, 4, 0.2, 9) }

// goldenShallow keeps a variant that is there for its kernel, not its tree
// shape, at depth 2; the depth-3 entries carry the visit-order evidence.
func goldenShallow(c *Config) { c.Tree.MaxDepth = 2 }

func goldenEnsemble(c *Config) {
	c.NumTrees = 2
	c.Tree.MaxDepth, c.Tree.MaxSplits = 2, 2
}

func goldenDP(c *Config) {
	goldenShallow(c)
	c.DP = &DPConfig{Epsilon: 4}
}

var goldenVariants = []goldenVariant{
	{"basic-classification", KindDT, goldenCls, func(c *Config) {}},
	{"basic-regression", KindDT, goldenReg, func(c *Config) {}},
	{"basic-entropy", KindDT, goldenCls, func(c *Config) {
		goldenShallow(c)
		c.Tree.Criterion = Entropy
	}},
	{"enhanced-hide-threshold", KindDT, goldenCls, func(c *Config) { c.Protocol = Enhanced }},
	{"enhanced-hide-feature", KindDT, goldenCls, func(c *Config) {
		goldenShallow(c)
		c.Protocol, c.Hide = Enhanced, HideFeature
	}},
	{"enhanced-hide-client", KindDT, goldenCls, func(c *Config) {
		goldenShallow(c)
		c.Protocol, c.Hide = Enhanced, HideClient
	}},
	{"enhanced-regression", KindDT, goldenReg, func(c *Config) { c.Protocol = Enhanced }},
	{"malicious", KindDT, func() *dataset.Dataset { return dataset.SyntheticClassification(16, 4, 2, 3.0, 3) },
		func(c *Config) {
			c.Malicious = true
			c.Tree.MaxDepth, c.Tree.MaxSplits = 2, 2
		}},
	{"dp", KindDT, goldenCls, goldenDP},
	{"rf-classification", KindRF, goldenCls, goldenEnsemble},
	{"rf-regression", KindRF, goldenReg, goldenEnsemble},
	{"gbdt-classification", KindGBDT, goldenCls, goldenEnsemble},
	{"gbdt-regression", KindGBDT, goldenReg, goldenEnsemble},
}

// goldenEntry is what one variant's run leaves behind.
type goldenEntry struct {
	Name string `json:"name"`
	// Outlines holds each tree's rendering; Nodes its Model.Nodes order
	// ("I" internal, "L<k>" the leaf at LeafPos k), which the rendering,
	// walking child pointers, does not show.
	Outlines     []string  `json:"outlines"`
	Nodes        []string  `json:"nodes"`
	Predictions  []float64 `json:"predictions"`
	MPCRounds    int64     `json:"mpc_rounds"`
	UpdateRounds int64     `json:"update_rounds"`
	Encryptions  int64     `json:"encryptions"`
	DecShares    int64     `json:"dec_shares"`
	MessagesSent int64     `json:"messages_sent"`
	BytesSent    int64     `json:"bytes_sent"`
}

func predictorTrees(mdl Predictor) []*Model {
	switch m := mdl.(type) {
	case *ForestModel:
		return m.Trees
	case *BoostModel:
		var trees []*Model
		for _, f := range m.Forests {
			trees = append(trees, f...)
		}
		return trees
	}
	return []*Model{mdl.(*Model)}
}

func (v goldenVariant) config() Config {
	cfg := testConfig()
	cfg.TrainMode = PerNode
	v.set(&cfg)
	return cfg
}

// runGolden trains v on the per-node schedule and predicts its training rows.
func runGolden(t *testing.T, v goldenVariant) goldenEntry {
	t.Helper()
	parts, err := dataset.VerticalPartition(v.ds(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, v.config())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mdl, err := Train(s, TrainSpec{Model: v.kind})
	if err != nil {
		t.Fatalf("%s: train: %v", v.name, err)
	}
	st := s.Stats()
	e := goldenEntry{
		Name:         v.name,
		MPCRounds:    st.MPC.Rounds,
		UpdateRounds: st.UpdateRounds,
		Encryptions:  st.Encryptions,
		DecShares:    st.DecShares,
		MessagesSent: st.MessagesSent,
		BytesSent:    st.BytesSent,
	}
	for _, tree := range predictorTrees(mdl) {
		e.Outlines = append(e.Outlines, tree.String())
		order := make([]string, len(tree.Nodes))
		for i, n := range tree.Nodes {
			order[i] = "I"
			if n.Leaf {
				order[i] = fmt.Sprintf("L%d", n.LeafPos)
			}
		}
		e.Nodes = append(e.Nodes, strings.Join(order, " "))
	}
	if e.Predictions, err = PredictAll(s, mdl, parts); err != nil {
		t.Fatalf("%s: predict: %v", v.name, err)
	}
	return e
}

func TestPerNodeScheduleGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/pernode_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded []goldenEntry
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]goldenEntry, len(recorded))
	for _, e := range recorded {
		want[e.Name] = e
	}
	if len(want) != len(goldenVariants) {
		t.Errorf("golden file holds %d entries, the test runs %d variants", len(want), len(goldenVariants))
	}
	var got []goldenEntry
	for _, v := range goldenVariants {
		g := runGolden(t, v)
		got = append(got, g)
		w, ok := want[v.name]
		if !ok {
			t.Errorf("%s: no recorded entry", v.name)
			continue
		}
		t.Logf("%-24s rounds %d update %d enc %d dec %d msgs %d -> %d bytes %d -> %d", v.name,
			g.MPCRounds, g.UpdateRounds, g.Encryptions, g.DecShares, w.MessagesSent, g.MessagesSent, w.BytesSent, g.BytesSent)
		if !reflect.DeepEqual(g.Outlines, w.Outlines) {
			t.Errorf("%s: trees differ from the recorded ones:\nrecorded:\n%s\ngot:\n%s",
				v.name, strings.Join(w.Outlines, "\n"), strings.Join(g.Outlines, "\n"))
		}
		if !reflect.DeepEqual(g.Nodes, w.Nodes) {
			t.Errorf("%s: node order %q, recorded %q", v.name, g.Nodes, w.Nodes)
		}
		if !reflect.DeepEqual(g.Predictions, w.Predictions) {
			t.Errorf("%s: predictions %v, recorded %v", v.name, g.Predictions, w.Predictions)
		}
		for _, c := range []struct {
			what      string
			got, want int64
		}{
			{"MPC rounds", g.MPCRounds, w.MPCRounds},
			{"update rounds", g.UpdateRounds, w.UpdateRounds},
			{"encryptions", g.Encryptions, w.Encryptions},
			{"decryption shares", g.DecShares, w.DecShares},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s %d, recorded %d", v.name, c.what, c.got, c.want)
			}
		}
		if g.MessagesSent > w.MessagesSent {
			t.Errorf("%s: %d messages, recorded %d", v.name, g.MessagesSent, w.MessagesSent)
		}
		if !v.config().Malicious {
			continue
		}
		// Every proof is a fixed number of ciphertext-sized integers, so a
		// dropped one moves bytes by far more than the minimal-length
		// encoding's run-to-run noise.
		if d := g.BytesSent - w.BytesSent; g.MessagesSent != w.MessagesSent || d > 100 || d < -100 {
			t.Errorf("%s: %d messages / %d bytes, recorded %d / %d", v.name,
				g.MessagesSent, g.BytesSent, w.MessagesSent, w.BytesSent)
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("this tree produces:\n%s", out)
	}
}

// TestDPDeterministic pins what lets a recorded DP entry exist at all, and
// what the width-one schedule relies on: the §9.2 noise is a function of the
// seed and the order the program draws it in, so two runs of one
// configuration grow the same tree.
func TestDPDeterministic(t *testing.T) {
	for _, v := range goldenVariants {
		if v.config().DP == nil {
			continue
		}
		a, b := runGolden(t, v), runGolden(t, v)
		if !reflect.DeepEqual(a.Outlines, b.Outlines) {
			t.Errorf("%s: two runs grew different trees:\n%s\n%s", v.name, a.Outlines[0], b.Outlines[0])
		}
	}
}
