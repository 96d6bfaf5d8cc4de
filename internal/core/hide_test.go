package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
)

// The §5.2 hide-level extension: HideFeature conceals j*, HideClient
// conceals i* too.  These tests assert both the concealment (what the
// released model contains) and the utility (predictions still match the
// basic protocol's released model).

func hideConfig(level HideLevel) Config {
	cfg := testConfig()
	cfg.Protocol = Enhanced
	cfg.Hide = level
	return cfg
}

func TestHideFeatureConcealsFeature(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	_, _, model := trainSession(t, ds, 3, hideConfig(HideFeature))

	if model.Hide != HideFeature {
		t.Fatal("model not marked hide-feature")
	}
	if model.InternalNodes() == 0 {
		t.Fatal("model did not split")
	}
	for i, n := range model.Nodes {
		if n.Leaf {
			if n.EncLabel == nil {
				t.Fatalf("leaf %d: label not concealed", i)
			}
			continue
		}
		if n.Feature != -1 {
			t.Fatalf("node %d: split feature %d leaked", i, n.Feature)
		}
		if n.Owner < 0 {
			t.Fatalf("node %d: owner should stay public under HideFeature", i)
		}
		if n.EncThreshold == nil || n.Threshold != 0 {
			t.Fatalf("node %d: threshold not concealed", i)
		}
		if n.EncFeatSel == nil || n.EncFeatSel[n.Owner] == nil {
			t.Fatalf("node %d: missing owner feature selector", i)
		}
		for c, phi := range n.EncFeatSel {
			if c != n.Owner && phi != nil {
				t.Fatalf("node %d: unexpected selector for non-owner %d", i, c)
			}
		}
	}
}

func TestHideClientConcealsOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(40)
	_, _, model := trainSession(t, ds, 3, hideConfig(HideClient))

	if model.Hide != HideClient {
		t.Fatal("model not marked hide-client")
	}
	if model.InternalNodes() == 0 {
		t.Fatal("model did not split")
	}
	for i, n := range model.Nodes {
		if n.Leaf {
			continue
		}
		if n.Owner != -1 {
			t.Fatalf("node %d: owner %d leaked", i, n.Owner)
		}
		if n.Feature != -1 {
			t.Fatalf("node %d: feature %d leaked", i, n.Feature)
		}
		if n.EncFeatSel == nil {
			t.Fatalf("node %d: missing feature selectors", i)
		}
		for c, phi := range n.EncFeatSel {
			if phi == nil {
				t.Fatalf("node %d: missing selector for client %d", i, c)
			}
			_ = c
		}
	}
}

// TestHideLevelsPredictLikeBasic trains the same data under the basic
// protocol and each hide level; the concealed models must predict (via the
// secret-shared prediction protocol) what the public model predicts.
func TestHideLevelsPredictLikeBasic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(36)
	sB, partsB, modelB := trainSession(t, ds, 2, testConfig())
	predsB, err := PredictAll(sB, modelB, partsB)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []HideLevel{HideFeature, HideClient} {
		s, parts, model := trainSession(t, ds, 2, hideConfig(level))
		preds, err := PredictAll(s, model, parts)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		agree := 0
		for i := range preds {
			if preds[i] == predsB[i] {
				agree++
			}
		}
		if frac := float64(agree) / float64(len(preds)); frac < 0.9 {
			t.Errorf("%s: only %.0f%% of predictions match the public model", level, frac*100)
		}
	}
}

func TestHideClientRegression(t *testing.T) {
	ds := dataset.SyntheticRegression(30, 4, 0.2, 23)
	cfg := hideConfig(HideClient)
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
		t.Fatalf("hide-client regression mse %.3f not better than predicting the mean %.3f", mseTree, mseMean)
	}
}

func TestHiddenModelRoundTripsThroughJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := smallClassification(30)
	s, parts, model := trainSession(t, ds, 2, hideConfig(HideClient))

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hide != HideClient || loaded.Protocol != Enhanced {
		t.Fatalf("metadata lost: hide=%v protocol=%v", loaded.Hide, loaded.Protocol)
	}
	if len(loaded.Nodes) != len(model.Nodes) {
		t.Fatalf("node count %d != %d", len(loaded.Nodes), len(model.Nodes))
	}
	for i, n := range model.Nodes {
		ln := loaded.Nodes[i]
		if n.Leaf != ln.Leaf {
			t.Fatalf("node %d leaf flag lost", i)
		}
		if !n.Leaf {
			if ln.EncThreshold == nil || ln.EncThreshold.C.Cmp(n.EncThreshold.C) != 0 {
				t.Fatalf("node %d threshold ciphertext corrupted", i)
			}
			for c := range n.EncFeatSel {
				if len(ln.EncFeatSel[c]) != len(n.EncFeatSel[c]) {
					t.Fatalf("node %d selector %d length changed", i, c)
				}
				for j := range n.EncFeatSel[c] {
					if ln.EncFeatSel[c][j].C.Cmp(n.EncFeatSel[c][j].C) != 0 {
						t.Fatalf("node %d selector (%d,%d) corrupted", i, c, j)
					}
				}
			}
		}
	}

	// The reloaded model must still predict correctly through the live
	// session (ciphertexts intact).
	predsOrig, err := PredictAll(s, model, parts)
	if err != nil {
		t.Fatal(err)
	}
	predsLoaded, err := PredictAll(s, loaded, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range predsOrig {
		if predsOrig[i] != predsLoaded[i] {
			t.Fatalf("sample %d: reloaded model predicts %v, original %v", i, predsLoaded[i], predsOrig[i])
		}
	}
}

func TestHideLevelString(t *testing.T) {
	cases := map[HideLevel]string{
		HideThreshold: "hide-threshold",
		HideFeature:   "hide-feature",
		HideClient:    "hide-client",
	}
	for level, want := range cases {
		if got := level.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", level, got, want)
		}
	}
}
