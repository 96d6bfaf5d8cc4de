package core

import (
	"testing"

	"repro/internal/dataset"
)

func TestRFClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	cfg := testConfig()
	cfg.NumTrees = 3
	cfg.Tree.MaxDepth = 2
	parts, _ := dataset.VerticalPartition(ds, 2, 0)
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var fm *ForestModel
	err = s.Each(func(p *Party) error {
		m, err := p.TrainRF()
		if p.ID == 0 && err == nil {
			fm = m
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Trees) != 3 {
		t.Fatalf("forest has %d trees", len(fm.Trees))
	}
	// Voting prediction on a handful of training samples.
	correct := 0
	const nCheck = 10
	X := partsX(parts)
	for i := 0; i < nCheck; i++ {
		got, err := PredictOne(s, fm, sampleAt(X, i))
		if err != nil {
			t.Fatal(err)
		}
		if got == ds.Y[i] {
			correct++
		}
	}
	if correct < nCheck*6/10 {
		t.Fatalf("forest training-sample vote accuracy %d/%d", correct, nCheck)
	}
}

func TestRFRegressionMean(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := dataset.SyntheticRegression(30, 4, 0.2, 23)
	cfg := testConfig()
	cfg.NumTrees = 2
	cfg.Tree.MaxDepth = 2
	parts, _ := dataset.VerticalPartition(ds, 2, 0)
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var fm *ForestModel
	err = s.Each(func(p *Party) error {
		m, err := p.TrainRF()
		if p.ID == 0 && err == nil {
			fm = m
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The homomorphic mean of tree predictions must match the plaintext
	// mean of the public trees' predictions.
	X := partsX(parts)
	for i := 0; i < 5; i++ {
		got, err := PredictOne(s, fm, sampleAt(X, i))
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, tr := range fm.Trees {
			pp, err := tr.PredictPlain(sampleAt(X, i))
			if err != nil {
				t.Fatal(err)
			}
			want += pp
		}
		want /= float64(len(fm.Trees))
		if diff := got - want; diff > 0.01 || diff < -0.01 {
			t.Fatalf("sample %d: homomorphic forest mean %v != %v", i, got, want)
		}
	}
}

func TestGBDTRegressionReducesError(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := dataset.SyntheticRegression(30, 4, 0.1, 33)
	cfg := testConfig()
	cfg.NumTrees = 3
	cfg.LearningRate = 0.5
	cfg.Tree.MaxDepth = 2
	parts, _ := dataset.VerticalPartition(ds, 2, 0)
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var bm *BoostModel
	err = s.Each(func(p *Party) error {
		m, err := p.TrainGBDT()
		if p.ID == 0 && err == nil {
			bm = m
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Forests[0]) != 3 {
		t.Fatalf("gbdt has %d trees", len(bm.Forests[0]))
	}
	var mean, mseGBDT, mseMean float64
	for _, y := range ds.Y {
		mean += y
	}
	mean /= float64(ds.N())
	X := partsX(parts)
	for i := 0; i < ds.N(); i++ {
		got, err := PredictOne(s, bm, sampleAt(X, i))
		if err != nil {
			t.Fatal(err)
		}
		mseGBDT += (got - ds.Y[i]) * (got - ds.Y[i])
		mseMean += (mean - ds.Y[i]) * (mean - ds.Y[i])
	}
	if mseGBDT >= mseMean*0.8 {
		t.Fatalf("gbdt mse %.4f did not improve on mean baseline %.4f", mseGBDT/float64(ds.N()), mseMean/float64(ds.N()))
	}
}

func TestGBDTClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(24)
	cfg := testConfig()
	cfg.NumTrees = 2
	cfg.LearningRate = 0.8
	cfg.Tree.MaxDepth = 2
	parts, _ := dataset.VerticalPartition(ds, 2, 0)
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var bm *BoostModel
	err = s.Each(func(p *Party) error {
		m, err := p.TrainGBDT()
		if p.ID == 0 && err == nil {
			bm = m
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Forests) != 2 {
		t.Fatalf("one-vs-rest should have 2 forests, got %d", len(bm.Forests))
	}
	correct := 0
	const nCheck = 12
	X := partsX(parts)
	for i := 0; i < nCheck; i++ {
		got, err := PredictOne(s, bm, sampleAt(X, i))
		if err != nil {
			t.Fatal(err)
		}
		if got == ds.Y[i] {
			correct++
		}
	}
	if correct < nCheck*6/10 {
		t.Fatalf("gbdt classification training accuracy %d/%d", correct, nCheck)
	}
}
