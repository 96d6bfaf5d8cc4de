package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/tree"
)

// The secure entropy criterion (ID3/C4.5 generalization): the private
// protocol computing −Σ p ln p under MPC must pick the same splits as the
// plaintext reference on the same data.

func TestEntropyMatchesPlainTree(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	cfg := testConfig()
	cfg.Tree.Criterion = Entropy
	_, _, model := trainSession(t, ds, 2, cfg)

	th := tree.Hyper{
		MaxDepth: cfg.Tree.MaxDepth, MaxSplits: cfg.Tree.MaxSplits,
		MinSamplesSplit: cfg.Tree.MinSamplesSplit, Criterion: tree.Entropy,
	}
	ref, err := tree.Fit(ds, th)
	if err != nil {
		t.Fatal(err)
	}

	// Compare released model predictions against the plaintext entropy tree
	// on the training set.
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := 0; i < ds.N(); i++ {
		feat := [][]float64{parts[0].X[i], parts[1].X[i]}
		got, err := model.PredictPlain(feat)
		if err != nil {
			t.Fatal(err)
		}
		if got == ref.Predict(ds.X[i]) {
			agree++
		}
	}
	if frac := float64(agree) / float64(ds.N()); frac < 0.9 {
		t.Fatalf("secure entropy tree agrees with plaintext reference on only %.0f%%", frac*100)
	}
}

func TestEntropyTrainingAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(36)
	cfg := testConfig()
	cfg.Tree.Criterion = Entropy
	s, parts, model := trainSession(t, ds, 3, cfg)
	preds, err := PredictAll(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range preds {
		if p == ds.Y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(preds)); frac < 0.85 {
		t.Fatalf("entropy training accuracy %.0f%%", frac*100)
	}
}

func TestGainRatioMatchesPlainTree(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	cfg := testConfig()
	cfg.Tree.Criterion = GainRatio
	_, _, model := trainSession(t, ds, 2, cfg)

	th := tree.Hyper{
		MaxDepth: cfg.Tree.MaxDepth, MaxSplits: cfg.Tree.MaxSplits,
		MinSamplesSplit: cfg.Tree.MinSamplesSplit, Criterion: tree.GainRatio,
	}
	ref, err := tree.Fit(ds, th)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := 0; i < ds.N(); i++ {
		feat := [][]float64{parts[0].X[i], parts[1].X[i]}
		got, err := model.PredictPlain(feat)
		if err != nil {
			t.Fatal(err)
		}
		if got == ref.Predict(ds.X[i]) {
			agree++
		}
	}
	if frac := float64(agree) / float64(ds.N()); frac < 0.9 {
		t.Fatalf("secure gain-ratio tree agrees with plaintext reference on only %.0f%%", frac*100)
	}
}

func TestEntropyWithEnhancedProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(30)
	cfg := testConfig()
	cfg.Tree.Criterion = Entropy
	cfg.Protocol = Enhanced
	cfg.Tree.MaxDepth = 2
	s, parts, model := trainSession(t, ds, 2, cfg)
	if model.InternalNodes() == 0 {
		t.Fatal("no splits under entropy + enhanced")
	}
	preds, err := PredictAll(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range preds {
		if p == ds.Y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(preds)); frac < 0.8 {
		t.Fatalf("entropy+enhanced training accuracy %.0f%%", frac*100)
	}
}
