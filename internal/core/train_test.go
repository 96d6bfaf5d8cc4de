package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tree"
)

// testConfig keeps crypto small enough for unit tests while exercising the
// full protocol stack.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.KeyBits = 256
	cfg.Tree = TreeHyper{MaxDepth: 3, MaxSplits: 4, MinSamplesSplit: 2, LeafOnZeroGain: true}
	cfg.Seed = 1
	return cfg
}

func smallClassification(n int) *dataset.Dataset {
	return dataset.SyntheticClassification(n, 4, 2, 3.0, 7)
}

func trainSession(t *testing.T, ds *dataset.Dataset, m int, cfg Config) (*Session, []*dataset.Partition, *Model) {
	t.Helper()
	return trainSessionSpec(t, ds, m, cfg, TrainSpec{})
}

// trainSessionSpec is trainSession for a decision-tree TrainSpec (the
// per-node oracle sets PerNode).
func trainSessionSpec(t *testing.T, ds *dataset.Dataset, m int, cfg Config, spec TrainSpec) (*Session, []*dataset.Partition, *Model) {
	t.Helper()
	parts, err := dataset.VerticalPartition(ds, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mdl, err := Train(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	return s, parts, mdl.(*Model)
}

func TestBasicClassificationMatchesPlainCART(t *testing.T) {
	ds := smallClassification(60)
	cfg := testConfig()
	_, _, model := trainSession(t, ds, 3, cfg)

	ref, err := tree.Fit(ds, tree.Hyper{MaxDepth: 3, MaxSplits: 4, MinSamplesSplit: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Pivot trained on the same data must predict like plain CART on the
	// training samples (identical split criterion, up to fixed-point noise:
	// allow a small disagreement margin).
	agree := 0
	parts, _ := dataset.VerticalPartition(ds, 3, 0)
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
	if frac := float64(agree) / float64(ds.N()); frac < 0.9 {
		t.Fatalf("pivot and plain CART agree on only %.0f%% of training samples", frac*100)
	}
	if model.InternalNodes() == 0 {
		t.Fatal("model did not split at all")
	}
}

func TestBasicTrainingAccuracy(t *testing.T) {
	ds := smallClassification(80)
	cfg := testConfig()
	_, parts, model := trainSession(t, ds, 2, cfg)
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
	if acc := float64(correct) / float64(ds.N()); acc < 0.85 {
		t.Fatalf("training accuracy %.2f too low for separable data", acc)
	}
}

func TestBasicRegression(t *testing.T) {
	ds := dataset.SyntheticRegression(60, 4, 0.2, 9)
	cfg := testConfig()
	_, parts, model := trainSession(t, ds, 2, cfg)
	// Tree predictions should beat the mean baseline on training data.
	var mean float64
	for _, y := range ds.Y {
		mean += y
	}
	mean /= float64(ds.N())
	var mseTree, mseMean float64
	for i := 0; i < ds.N(); i++ {
		feat := [][]float64{parts[0].X[i], parts[1].X[i]}
		pp, err := model.PredictPlain(feat)
		if err != nil {
			t.Fatal(err)
		}
		mseTree += (pp - ds.Y[i]) * (pp - ds.Y[i])
		mseMean += (mean - ds.Y[i]) * (mean - ds.Y[i])
	}
	if mseTree >= mseMean {
		t.Fatalf("regression tree mse %.3f not better than mean baseline %.3f", mseTree, mseMean)
	}
}

func TestBasicDistributedPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(50)
	cfg := testConfig()
	s, parts, model := trainSession(t, ds, 3, cfg)

	// The privacy-preserving round-robin prediction must agree with the
	// plaintext evaluation of the public model.
	preds, err := PredictAll(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		feat := make([][]float64, 3)
		for c := 0; c < 3; c++ {
			feat[c] = parts[c].X[i]
		}
		want, _ := model.PredictPlain(feat)
		if math.Abs(preds[i]-want) > 1e-9 {
			t.Fatalf("sample %d: distributed prediction %v != plain %v", i, preds[i], want)
		}
	}
}

func TestStatsArePopulated(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(30)
	s, _, _ := trainSession(t, ds, 2, testConfig())
	st := s.Stats()
	if st.Encryptions == 0 || st.DecShares == 0 || st.MPC.Mults == 0 || st.MPC.DealerReqs == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.NodesTrained == 0 || st.TreesTrained != 1 {
		t.Fatalf("tree accounting wrong: %+v", st)
	}
	if st.Phases.Total() == 0 {
		t.Fatal("phase timings missing")
	}
}
