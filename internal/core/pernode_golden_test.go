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
//
// Carried node totals (every non-root node takes ⟨n⟩ and its channel totals
// from its parent's converted statistics, so no count conversion or leaf dot
// product remains, and the last split level builds no child mask vectors
// unless leaf masks are captured) re-recorded encryptions, decryption shares,
// messages and bytes of all thirteen entries, and the MPC rounds of the four
// enhanced ones (one λ-selection round per internal node) and of malicious
// (fewer authenticated conversions).  The same script check came first: trees,
// node order, predictions and update rounds — and every other entry's MPC
// rounds — are unchanged, the dp entry included.  Old → new:
//
//	entry                    rounds       enc          dec        msgs         bytes
//	basic-classification     =            648 → 590    192 → 172  1967 → 1936  1344609 → 1338467
//	basic-regression         =            1444 → 1268  396 → 354  4512 → 4442  2211704 → 2190895
//	basic-entropy            =            412 → 362    118 → 104  2416 → 2394  2610966 → 2605423
//	enhanced-hide-threshold  865 → 868    843 → 737    240 → 204  2025 → 1996  1359602 → 1354583
//	enhanced-hide-feature    525 → 527    567 → 469    150 → 120  1240 → 1218  821988 → 819136
//	enhanced-hide-client     523 → 525    681 → 551    150 → 120  1239 → 1217  831644 → 833044
//	enhanced-regression      2070 → 2077  1895 → 1527  508 → 402  4643 → 4571  2246429 → 2222172
//	malicious                532 → 512    316 → 284    132 → 106  1211 → 1145  2412224 → 2391914
//	dp                       =            452 → 362    124 → 104  5451 → 5419  1827423 → 1817122
//	rf-classification        =            672 → 532    146 → 112  2213 → 2159  875524 → 859679
//	rf-regression            =            992 → 824    200 → 164  3892 → 3828  1065095 → 1044882
//	gbdt-classification      =            2800 → 2216  592 → 520  8452 → 8332  3293433 → 3219708
//	gbdt-regression          =            1272 → 980   264 → 228  3907 → 3847  1111782 → 1074949
//
// Packing malicious sessions (authenticated openings packed with their MACs,
// proven conversions packed with one mask proof per packed ciphertext)
// re-recorded the malicious entry's encryptions 284 → 234, decryption shares
// 106 → 56, messages 1145 → 1152 (dealer requests for bounded triples) and
// bytes 2391914 → 642095, after the same script check of every other column.
//
// When the engine began to prefetch dealer material, the messages and bytes
// columns stopped counting the dealer link: how many requests party 0 sends
// depends on what its queues hold, not on the protocol.  Each entry dropped
// by its dealer requests and their bytes, re-recorded by the same script
// check (trees, node order and predictions — dp's included — and every
// other column unchanged).  Old → new:
//
//	entry                    msgs         bytes
//	basic-classification     1936 → 1736  1338467 → 1336811
//	basic-regression         4442 → 4121  2190895 → 2188231
//	basic-entropy            2394 → 2038  2605423 → 2602412
//	enhanced-hide-threshold  1996 → 1794  1354583 → 1352906
//	enhanced-hide-feature    1218 → 1092  819136 → 818095
//	enhanced-hide-client     1217 → 1090  833044 → 832008
//	enhanced-regression      4571 → 4247  2222172 → 2219499
//	malicious                1152 → 1077  642095 → 641511
//	dp                       5419 → 5133  1817122 → 1814773
//	rf-classification        2159 → 2029  859679 → 858614
//	rf-regression            3828 → 3676  1044882 → 1043668
//	gbdt-classification      8332 → 7909  3219708 → 3216133
//	gbdt-regression          3847 → 3694  1074949 → 1073692
//
// When the split statistics began to expand against the totals every node
// carries, the conversion stopped folding each sent γ channel and converting
// its total per node.  Encryptions, decryption shares and bytes of all
// thirteen entries were re-recorded by the same script check (trees, node
// order, predictions — dp's included — MPC rounds, update rounds and
// messages unchanged).  Old → new:
//
//	entry                    enc          dec        bytes
//	basic-classification     590 → 580    172 → 162  1336811 → 1335859
//	basic-regression         1268 → 1254  354 → 340  2188231 → 2186930
//	basic-entropy            362 → 356    104 → 98   2602412 → 2601829
//	enhanced-hide-threshold  737 → 727    204 → 194  1352906 → 1351948
//	enhanced-hide-feature    469 → 463    120 → 114  818095 → 817511
//	enhanced-hide-client     551 → 545    120 → 114  832008 → 831439
//	enhanced-regression      1527 → 1513  402 → 388  2219499 → 2218158
//	malicious                234 → 228    56 → 50    641511 → 640123
//	dp                       362 → 356    104 → 98   1814773 → 1814200
//	rf-classification        532 → 520    112 → 100  858614 → 857435
//	rf-regression            824 → 812    164 → 152  1043668 → 1042490
//	gbdt-classification      2216 → 2192  520 → 496  3216133 → 3213825
//	gbdt-regression          980 → 968    228 → 216  1073692 → 1072524
//
// The per-node oracle never derives a node from its sibling (its frontiers
// hold one node), so sibling derivation moved no column here.
//
// Binding a malicious root's class totals to the label commitments (the
// super client proves each β_k·[α] with a POHDP and broadcasts it) moved
// three columns of the malicious entry and nothing else, after the same
// script check: encryptions 228 → 226 (the two dot products are no longer
// rerandomised; the proof's terms already are), messages 1077 → 1079 (one
// proof per class to the other client) and bytes 640123 → 652556 (the
// proofs).
//
// The recursion is reached through TrainSpec{PerNode: true}.  A second leg
// trains every variant on the default level-wise schedule — malicious
// included — and holds it to the recorded trees and predictions at fewer MPC
// rounds; its node order is breadth-first, so Nodes is not compared.  That
// leg's own costs are the levelwise_* columns: MPC rounds and messages
// exactly, bytes within ±10 % either way (minimal-length encodings of random
// ciphertexts move them by a few bytes a run).  DP noise is drawn in a different order there, so that leg
// skips the dp variant; TestDPDeterministic holds it to growing the same
// tree twice.

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
	// The level-wise leg's costs; the dp entry has none.
	LevelwiseMPCRounds    int64 `json:"levelwise_mpc_rounds,omitempty"`
	LevelwiseMessagesSent int64 `json:"levelwise_messages_sent,omitempty"`
	LevelwiseBytesSent    int64 `json:"levelwise_bytes_sent,omitempty"`
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
	v.set(&cfg)
	return cfg
}

// runGolden trains v on the per-node oracle (or the default schedule) and
// predicts its training rows.
func runGolden(t *testing.T, v goldenVariant, perNode bool) goldenEntry {
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
	mdl, err := Train(s, TrainSpec{Model: v.kind, PerNode: perNode})
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
		g := runGolden(t, v, true)
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

	for i, v := range goldenVariants {
		if v.config().DP != nil {
			continue
		}
		g, w := runGolden(t, v, false), want[v.name]
		got[i].LevelwiseMPCRounds, got[i].LevelwiseMessagesSent, got[i].LevelwiseBytesSent = g.MPCRounds, g.MessagesSent, g.BytesSent
		t.Logf("%-24s level-wise rounds %d msgs %d bytes %d", v.name, g.MPCRounds, g.MessagesSent, g.BytesSent)
		if !reflect.DeepEqual(g.Outlines, w.Outlines) {
			t.Errorf("%s level-wise: trees differ from the recorded ones:\nrecorded:\n%s\ngot:\n%s",
				v.name, strings.Join(w.Outlines, "\n"), strings.Join(g.Outlines, "\n"))
		}
		if !reflect.DeepEqual(g.Predictions, w.Predictions) {
			t.Errorf("%s level-wise: predictions %v, recorded %v", v.name, g.Predictions, w.Predictions)
		}
		if g.MPCRounds >= w.MPCRounds {
			t.Errorf("%s level-wise: %d MPC rounds, not below the per-node %d", v.name, g.MPCRounds, w.MPCRounds)
		}
		if d := g.BytesSent - w.LevelwiseBytesSent; g.MPCRounds != w.LevelwiseMPCRounds ||
			g.MessagesSent != w.LevelwiseMessagesSent || 10*max(d, -d) > w.LevelwiseBytesSent {
			t.Errorf("%s level-wise: %d rounds / %d messages / %d bytes, recorded %d / %d / %d (bytes ±10%%)", v.name,
				g.MPCRounds, g.MessagesSent, g.BytesSent, w.LevelwiseMPCRounds, w.LevelwiseMessagesSent, w.LevelwiseBytesSent)
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("this tree produces:\n%s", out)
	}
}

// TestDPDeterministic pins what lets a recorded DP entry exist at all, and
// what both schedules rely on: the §9.2 noise is a function of the seed and
// the order the program draws it in, so two runs of one configuration on one
// schedule grow the same tree.
func TestDPDeterministic(t *testing.T) {
	for _, v := range goldenVariants {
		if v.config().DP == nil {
			continue
		}
		for _, perNode := range []bool{true, false} {
			a, b := runGolden(t, v, perNode), runGolden(t, v, perNode)
			if !reflect.DeepEqual(a.Outlines, b.Outlines) {
				t.Errorf("%s (per-node %v): two runs grew different trees:\n%s\n%s", v.name, perNode, a.Outlines[0], b.Outlines[0])
			}
		}
	}
}
