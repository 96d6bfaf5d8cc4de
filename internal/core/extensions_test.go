package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestDPTrainingProducesValidModel(t *testing.T) {
	ds := smallClassification(40)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	cfg.DP = &DPConfig{Epsilon: 4.0} // generous budget: model should be sane
	_, parts, model := trainSession(t, ds, 2, cfg)

	if len(model.Nodes) == 0 {
		t.Fatal("empty DP model")
	}
	// With a large ε the DP model should still classify well above chance.
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
	if acc := float64(correct) / float64(ds.N()); acc < 0.6 {
		t.Fatalf("DP (ε=4) accuracy %.2f below 0.6", acc)
	}
}

func TestDPLeafLabelsAreValidClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(30)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	cfg.DP = &DPConfig{Epsilon: 1.0}
	_, _, model := trainSession(t, ds, 2, cfg)
	for _, n := range model.Nodes {
		if n.Leaf && (n.Label < 0 || n.Label > 1) {
			t.Fatalf("DP leaf label %v outside class range", n.Label)
		}
	}
}

func TestMaliciousHonestRunSucceeds(t *testing.T) {
	ds := dataset.SyntheticClassification(16, 4, 2, 3.0, 3)
	cfg := testConfig()
	cfg.Malicious = true
	cfg.Tree.MaxDepth = 2
	cfg.Tree.MaxSplits = 2
	_, parts, model := trainSession(t, ds, 2, cfg)
	if model.InternalNodes() == 0 {
		t.Fatal("malicious-mode model did not split")
	}
	// Model must still be usable.
	feat := [][]float64{parts[0].X[0], parts[1].X[0]}
	if _, err := model.PredictPlain(feat); err != nil {
		t.Fatal(err)
	}
}

// TestMaliciousRootTotalsBound has the super client prove a root's class
// totals for a label vector other than the one it committed (the two
// classes' indicator vectors swapped after the commitment phase): every
// other client refuses the proof, and its training returns the error.
func TestMaliciousRootTotalsBound(t *testing.T) {
	cfg := testConfig()
	cfg.Malicious = true
	cfg.Tree.MaxDepth, cfg.Tree.MaxSplits = 2, 2
	parts, err := dataset.VerticalPartition(dataset.SyntheticClassification(16, 4, 2, 3.0, 3), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	errs := make([]error, s.M)
	// growTrees with the tampering between its commitment phase and the
	// level loop.
	err = s.Each(func(p *Party) error {
		errs[p.ID] = func() error {
			if err := p.audit.commitTraining(p.labelVectors()); err != nil {
				return err
			}
			if p.ID == p.Super {
				lp := p.audit.labelPlain
				lp[0], lp[1] = lp[1], lp[0]
			}
			alpha, err := p.initialAlpha(nil)
			if err != nil {
				return err
			}
			task := &treeTask{model: &Model{Classes: p.part.Classes}}
			return p.runLevels([]*treeTask{task}, []frontierNode{{nd: nodeData{alpha: alpha}, parent: -1}}, 0)
		}()
		return errs[p.ID]
	})
	if err == nil {
		t.Fatal("training with misreported root totals succeeded")
	}
	for id, err := range errs {
		if id == s.Party(id).Super {
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "root total") || !strings.Contains(err.Error(), "POHDP") {
			t.Errorf("client %d: training returned %v, want the refused root-total proof", id, err)
		}
	}
}

func TestMaliciousMatchesSemiHonestShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := dataset.SyntheticClassification(16, 4, 2, 3.0, 5)
	base := testConfig()
	base.Tree.MaxDepth = 2
	base.Tree.MaxSplits = 2
	// Both runs train on the level-wise schedule, so the node-by-node
	// comparison below sees the same model array order.

	_, _, semiModel := trainSession(t, ds, 2, base)

	mal := base
	mal.Malicious = true
	_, _, malModel := trainSession(t, ds, 2, mal)

	// Identical data, hyper-parameters and deterministic split candidates:
	// the trees should pick the same split structure.
	if semiModel.InternalNodes() != malModel.InternalNodes() {
		t.Fatalf("internal node count differs: %d vs %d",
			semiModel.InternalNodes(), malModel.InternalNodes())
	}
	for i := range semiModel.Nodes {
		a, b := semiModel.Nodes[i], malModel.Nodes[i]
		if a.Leaf != b.Leaf || (!a.Leaf && (a.Owner != b.Owner || a.Feature != b.Feature)) {
			t.Fatalf("node %d structure differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestMaliciousGBDTClassification trains GBDT classification with the §9.1
// extension on.  A boosting round's class trees share one level-wise
// frontier, so the commitment phase and the final MAC check have to wrap
// that call as they wrap a single tree's; the proofs change no value, so
// the trees and predictions are the semi-honest run's.
func TestMaliciousGBDTClassification(t *testing.T) {
	ds := func() *dataset.Dataset { return dataset.SyntheticClassification(16, 4, 2, 3.0, 3) }
	semi := goldenVariant{"gbdt-classification", KindGBDT, ds, goldenEnsemble}
	mal := semi
	mal.name, mal.set = "malicious gbdt-classification", func(c *Config) {
		goldenEnsemble(c)
		c.Malicious = true
	}
	want, got := runGolden(t, semi, false), runGolden(t, mal, false)
	if !reflect.DeepEqual(got.Outlines, want.Outlines) {
		t.Errorf("malicious trees differ from the semi-honest ones:\n%s\n---\n%s",
			strings.Join(got.Outlines, "\n"), strings.Join(want.Outlines, "\n"))
	}
	if !reflect.DeepEqual(got.Predictions, want.Predictions) {
		t.Errorf("malicious predictions %v, semi-honest %v", got.Predictions, want.Predictions)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(30)
	_, _, model := trainSession(t, ds, 2, testConfig())
	var sb strings.Builder
	if err := model.Save(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(model.Nodes) || back.Leaves != model.Leaves {
		t.Fatal("model round trip changed shape")
	}
	for i := range model.Nodes {
		if model.Nodes[i].Threshold != back.Nodes[i].Threshold ||
			model.Nodes[i].Label != back.Nodes[i].Label {
			t.Fatalf("node %d changed in round trip", i)
		}
	}
}

func TestModelDepthAndLeafLabels(t *testing.T) {
	ds := smallClassification(40)
	cfg := testConfig()
	_, _, model := trainSession(t, ds, 2, cfg)
	if d := model.Depth(); d > cfg.Tree.MaxDepth {
		t.Fatalf("depth %d exceeds configured max %d", d, cfg.Tree.MaxDepth)
	}
	z := model.LeafLabels()
	if len(z) != model.Leaves {
		t.Fatalf("leaf vector length %d != %d", len(z), model.Leaves)
	}
}
