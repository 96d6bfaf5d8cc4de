package core

import (
	"testing"

	"repro/internal/dataset"
)

// Equivalence tests: configuration knobs that change cost but must not
// change the trained model.

func TestParallelDecryptionSameModel(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	cfg1 := testConfig()
	_, _, m1 := trainSession(t, ds, 2, cfg1)

	cfgPP := testConfig()
	cfgPP.Workers = 4
	_, _, m2 := trainSession(t, ds, 2, cfgPP)

	if m1.InternalNodes() != m2.InternalNodes() || m1.Leaves != m2.Leaves {
		t.Fatalf("parallel decryption changed the model: %d/%d vs %d/%d",
			m1.InternalNodes(), m1.Leaves, m2.InternalNodes(), m2.Leaves)
	}
	for i := range m1.Nodes {
		if m1.Nodes[i].Leaf != m2.Nodes[i].Leaf ||
			m1.Nodes[i].Feature != m2.Nodes[i].Feature ||
			m1.Nodes[i].Threshold != m2.Nodes[i].Threshold {
			t.Fatalf("node %d differs under -PP", i)
		}
	}
}

func TestFourClientsClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := dataset.SyntheticClassification(40, 8, 2, 3.0, 31)
	cfg := testConfig()
	s, parts, model := trainSession(t, ds, 4, cfg)
	preds, err := PredictAll(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range preds {
		if preds[i] == ds.Y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(preds)); frac < 0.8 {
		t.Fatalf("4-client accuracy %.2f", frac)
	}
}

func TestSingleFeaturePerClient(t *testing.T) {
	// m == d: every client owns exactly one feature.
	ds := dataset.SyntheticClassification(30, 3, 2, 3.0, 37)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	_, _, model := trainSession(t, ds, 3, cfg)
	if len(model.Nodes) == 0 {
		t.Fatal("no model")
	}
}

func TestConstantFeatureClientHasNoSplits(t *testing.T) {
	// One client's features are constant: it contributes zero candidate
	// splits, and training must still succeed using the others'.
	ds := dataset.SyntheticClassification(30, 4, 2, 3.0, 41)
	for i := range ds.X {
		ds.X[i][2] = 5.0
		ds.X[i][3] = 5.0
	}
	cfg := testConfig()
	_, _, model := trainSession(t, ds, 2, cfg) // client 1 owns columns 2,3
	for _, n := range model.Nodes {
		if !n.Leaf && n.Owner == 1 {
			t.Fatalf("split on a constant feature: %+v", n)
		}
	}
}

func TestDepthOneTreeIsAStump(t *testing.T) {
	// MaxDepth == 0 means "use defaults" in Config semantics, so the
	// shallowest configurable tree is a depth-1 stump.
	ds := smallClassification(20)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 1
	_, _, model := trainSession(t, ds, 2, cfg)
	if model.Depth() > 1 {
		t.Fatalf("depth %d exceeds 1", model.Depth())
	}
	if model.InternalNodes() > 1 {
		t.Fatalf("stump has %d internal nodes", model.InternalNodes())
	}
}

func TestMinSamplesPruning(t *testing.T) {
	ds := smallClassification(20)
	cfg := testConfig()
	cfg.Tree.MinSamplesSplit = 1000 // larger than n: root must be a leaf
	_, _, model := trainSession(t, ds, 2, cfg)
	if model.InternalNodes() != 0 {
		t.Fatalf("min-samples pruning ignored: %d internal nodes", model.InternalNodes())
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	// §7.3 extension: vertical LR on linearly separable data should recover
	// a usable decision boundary.
	ds := dataset.SyntheticClassification(48, 4, 2, 3.0, 51)
	cfg := testConfig()
	parts, _ := dataset.VerticalPartition(ds, 2, 0)
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var model *LRModel
	err = s.Each(func(p *Party) error {
		m, err := p.TrainLR(LRConfig{Epochs: 4, BatchSize: 8, LearningRate: 1.0})
		if p.ID == 0 && err == nil {
			model = m
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Weights) != 2 {
		t.Fatalf("weights for %d clients", len(model.Weights))
	}
	correct := 0
	for i := 0; i < ds.N(); i++ {
		feat := [][]float64{parts[0].X[i], parts[1].X[i]}
		if model.PredictLRPlain(feat) == ds.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.N()); acc < 0.8 {
		t.Fatalf("LR training accuracy %.2f", acc)
	}
}
