package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestLabelRangeRefused: the super client's labels are held to the bounds
// the protocol's widths are sized for, when a session starts and when
// samples are appended.  Regression labels scaled by 10⁶ used to train at
// LabelBits 8 without an error, into a one-leaf tree; at LabelBits 24 they
// are in range and the tree splits.
func TestLabelRangeRefused(t *testing.T) {
	reg := dataset.SyntheticRegression(24, 4, 0.2, 9)
	cls := smallClassification(16)
	partition := func(ds *dataset.Dataset) []*dataset.Partition {
		parts, err := dataset.VerticalPartition(ds, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		return parts
	}
	sessions := map[*dataset.Dataset]*Session{}
	for _, ds := range []*dataset.Dataset{reg, cls} {
		s, err := NewSession(partition(ds), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions[ds] = s
	}
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
		set  func(y []float64)
	}{
		{"regression labels ×10⁶", reg, func(y []float64) {
			for i := range y {
				y[i] *= 1e6
			}
		}},
		{"regression label 2^LabelBits", reg, func(y []float64) { y[3] = 256 }},
		{"regression label NaN", reg, func(y []float64) { y[3] = math.NaN() }},
		{"regression label -Inf", reg, func(y []float64) { y[3] = math.Inf(-1) }},
		{"class 2 of 2", cls, func(y []float64) { y[5] = 2 }},
		{"class -1", cls, func(y []float64) { y[5] = -1 }},
		{"class 0.5", cls, func(y []float64) { y[5] = 0.5 }},
	} {
		parts := partition(tc.ds)
		tc.set(parts[0].Y)
		var bad *ErrLabelRange
		if _, err := NewSession(parts, testConfig()); !errors.As(err, &bad) {
			t.Errorf("%s: NewSession returned %v, want an ErrLabelRange", tc.name, err)
		}
		if err := AppendSamples(sessions[tc.ds], parts); !errors.As(err, &bad) {
			t.Errorf("%s: appending returned %v, want an ErrLabelRange", tc.name, err)
		}
	}

	parts := partition(reg)
	for i := range parts[0].Y {
		parts[0].Y[i] *= 1e6
	}
	cfg := testConfig()
	cfg.LabelBits = 24
	cfg.Tree.MaxDepth = 2
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mdl, err := Train(s, TrainSpec{Model: KindDT})
	if err != nil {
		t.Fatal(err)
	}
	if mdl.(*Model).InternalNodes() == 0 {
		t.Fatal("labels ×10⁶ at LabelBits 24 trained a one-leaf tree")
	}
}

// TestEnhancedFeatureRangeRefused: the enhanced protocol compares features
// at value+2 bits, so a training value whose encoding reaches 2^value is
// refused when the session starts, at the client that holds it.
func TestEnhancedFeatureRangeRefused(t *testing.T) {
	for _, x := range []float64{1e6, -1e6, math.NaN(), math.Inf(1)} {
		parts, err := dataset.VerticalPartition(smallClassification(16), 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		parts[1].X[4][1] = x
		cfg := testConfig()
		cfg.Protocol = Enhanced
		if _, err := NewSession(parts, cfg); err == nil || !strings.Contains(err.Error(), "client 1") {
			t.Errorf("feature %v: NewSession returned %v, want client 1's refusal", x, err)
		}
	}
}
