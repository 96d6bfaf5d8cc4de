package core

import (
	"testing"

	"repro/internal/dataset"
)

func TestEnhancedConcealsModel(t *testing.T) {
	ds := smallClassification(40)
	cfg := testConfig()
	cfg.Protocol = Enhanced
	_, _, model := trainSession(t, ds, 3, cfg)

	if model.Protocol != Enhanced {
		t.Fatal("model not marked enhanced")
	}
	for i, n := range model.Nodes {
		if n.Leaf {
			if n.EncLabel == nil {
				t.Fatalf("leaf %d: label not concealed", i)
			}
			if n.Label != 0 {
				t.Fatalf("leaf %d: plaintext label leaked into the model", i)
			}
		} else {
			if n.EncThreshold == nil {
				t.Fatalf("node %d: threshold not concealed", i)
			}
			if n.Threshold != 0 {
				t.Fatalf("node %d: plaintext threshold leaked", i)
			}
			if n.SplitIndex != 0 {
				t.Fatalf("node %d: split index s* leaked", i)
			}
		}
	}
	if model.InternalNodes() == 0 {
		t.Fatal("enhanced model did not split")
	}
}

func TestEnhancedPredictionMatchesBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	// Train the same data twice — basic and enhanced — with identical
	// hyper-parameters; predictions on training samples should agree on
	// most samples (fixed-point noise can flip near-tie splits).
	ds := smallClassification(40)
	cfgB := testConfig()
	sB, partsB, modelB := trainSession(t, ds, 2, cfgB)

	cfgE := testConfig()
	cfgE.Protocol = Enhanced
	sE, partsE, modelE := trainSession(t, ds, 2, cfgE)

	predsB, err := PredictAll(sB, modelB, partsB)
	if err != nil {
		t.Fatal(err)
	}
	predsE, err := PredictAll(sE, modelE, partsE)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range predsB {
		if predsB[i] == predsE[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(predsB)); frac < 0.9 {
		t.Fatalf("basic and enhanced predictions agree on only %.0f%%", frac*100)
	}
}

func TestEnhancedRegression(t *testing.T) {
	ds := dataset.SyntheticRegression(36, 4, 0.2, 17)
	cfg := testConfig()
	cfg.Protocol = Enhanced
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)

	preds, err := PredictAll(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	var mean, mseTree, mseMean float64
	for _, y := range ds.Y {
		mean += y
	}
	mean /= float64(ds.N())
	for i, p := range preds {
		mseTree += (p - ds.Y[i]) * (p - ds.Y[i])
		mseMean += (mean - ds.Y[i]) * (mean - ds.Y[i])
	}
	if mseTree >= mseMean {
		t.Fatalf("enhanced regression mse %.3f not better than baseline %.3f", mseTree, mseMean)
	}
}
