package pivot

import (
	"testing"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.KeyBits = 256
	cfg.Tree = TreeHyper{MaxDepth: 2, MaxSplits: 3, MinSamplesSplit: 2, LeafOnZeroGain: true}
	cfg.NumTrees = 2
	return cfg
}

func TestFacadeTrainPredict(t *testing.T) {
	ds := SyntheticClassification(40, 6, 2, 3.0, 5)
	fed, err := NewFederation(ds, 3, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	model, err := fed.Train(TrainSpec{Model: KindDT})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 10; i++ {
		pred, err := fed.PredictAt(model, i)
		if err != nil {
			t.Fatal(err)
		}
		if pred == ds.Y[i] {
			correct++
		}
	}
	if correct < 7 {
		t.Fatalf("facade DT training accuracy %d/10", correct)
	}
	if fed.Stats().Encryptions == 0 {
		t.Fatal("stats not wired through facade")
	}
}

func TestFacadePredictOne(t *testing.T) {
	ds := SyntheticClassification(30, 4, 2, 3.0, 6)
	fed, err := NewFederation(ds, 2, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	model, err := fed.Train(TrainSpec{Model: KindDT})
	if err != nil {
		t.Fatal(err)
	}
	parts := fed.Parts()
	got, err := fed.PredictOne(model, [][]float64{parts[0].X[3], parts[1].X[3]})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fed.PredictAt(model, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("PredictOne %v != PredictAt %v", got, want)
	}
	if _, err := fed.PredictOne(model, [][]float64{{1}}); err == nil {
		t.Fatal("expected slice-count validation error")
	}
}

func TestFacadeUnifiedAPI(t *testing.T) {
	ds := SyntheticClassification(24, 4, 2, 3.0, 8)
	fed, err := NewFederation(ds, 2, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()

	// An empty TrainSpec defaults to a single decision tree.
	mdl, err := fed.Train(TrainSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if mdl.Kind() != KindDT || mdl.NumClasses() != 2 {
		t.Fatalf("kind %q classes %d", mdl.Kind(), mdl.NumClasses())
	}
	if _, ok := mdl.(*Model); !ok {
		t.Fatalf("Train returned %T, want *Model", mdl)
	}

	// The batched and per-sample entry points agree on every sample.
	all, err := fed.PredictAll(mdl)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != ds.N() {
		t.Fatalf("PredictAll returned %d predictions", len(all))
	}
	for i := range all {
		at, err := fed.PredictAt(mdl, i)
		if err != nil {
			t.Fatal(err)
		}
		if all[i] != at {
			t.Fatalf("sample %d: PredictAll %v != PredictAt %v", i, all[i], at)
		}
	}
	at := all[3]
	parts := fed.Parts()
	one, err := fed.PredictOne(mdl, [][]float64{parts[0].X[3], parts[1].X[3]})
	if err != nil {
		t.Fatal(err)
	}
	if one != at {
		t.Fatalf("PredictOne %v != PredictAt %v", one, at)
	}

	// Error surfaces.
	if _, err := fed.Train(TrainSpec{Model: "svm"}); err == nil {
		t.Fatal("expected unknown-kind training error")
	}
	if _, err := fed.PredictAt(mdl, ds.N()); err == nil {
		t.Fatal("expected index range error")
	}
	if _, err := fed.PredictOne(mdl, [][]float64{{1}}); err == nil {
		t.Fatal("expected slice-count validation error")
	}
}

func TestFacadeEnsembles(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	ds := SyntheticClassification(24, 4, 2, 3.0, 7)
	cfg := fastConfig()
	fed, err := NewFederation(ds, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	fm, err := fed.Train(TrainSpec{Model: KindRF})
	if err != nil {
		t.Fatal(err)
	}
	if trees := fm.(*ForestModel).Trees; len(trees) != cfg.NumTrees {
		t.Fatalf("forest size %d", len(trees))
	}
	if _, err := fed.PredictAt(fm, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAlignedFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	// Three clients with overlapping row subsets of a common universe: the
	// aligned federation must train on exactly the intersection, with every
	// client's rows in the same (id-sorted) order.
	const universe = 30
	ds := SyntheticClassification(universe, 6, 2, 3.0, 9)
	parts, err := VerticalPartition(ds, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Client c keeps rows {c, c+1, ..., 24+c}; intersection = rows 2..24.
	ids := make([][]string, 3)
	for c := range parts {
		var rows []int
		for r := c; r < 25+c; r++ {
			rows = append(rows, r)
			ids[c] = append(ids[c], rowID(r))
		}
		p, err := parts[c].SelectRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		parts[c] = p
	}
	fed, common, err := NewAlignedFederation(parts, ids, TestPSIGroup(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if len(common) != 23 {
		t.Fatalf("intersection size %d, want 23", len(common))
	}
	for _, p := range fed.Parts() {
		if p.N != 23 {
			t.Fatalf("client %d has %d aligned rows", p.Client, p.N)
		}
	}
	// Rows must be aligned across clients: reassemble sample 0 and check it
	// matches one original row of ds.
	model, err := fed.Train(TrainSpec{Model: KindDT})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.(*Model).Nodes) == 0 {
		t.Fatal("empty model from aligned federation")
	}
	if _, err := fed.PredictAt(model, 0); err != nil {
		t.Fatal(err)
	}
}

func rowID(r int) string { return "row-" + string(rune('A'+r/10)) + string(rune('0'+r%10)) }

func TestFacadeAlignedFederationErrors(t *testing.T) {
	ds := SyntheticClassification(8, 4, 2, 1.0, 3)
	parts, err := VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched id-list length.
	ids := [][]string{{"a"}, {"a", "b", "c", "d", "e", "f", "g", "h"}}
	if _, _, err := NewAlignedFederation(parts, ids, TestPSIGroup(), fastConfig()); err == nil {
		t.Fatal("expected id/row count mismatch error")
	}
	// Disjoint universes: empty intersection must be rejected.
	idsA := make([]string, 8)
	idsB := make([]string, 8)
	for i := range idsA {
		idsA[i] = rowID(i)
		idsB[i] = rowID(i + 50)
	}
	if _, _, err := NewAlignedFederation(parts, [][]string{idsA, idsB}, TestPSIGroup(), fastConfig()); err == nil {
		t.Fatal("expected empty-intersection error")
	}
}

func TestFacadeErrors(t *testing.T) {
	ds := SyntheticClassification(10, 2, 2, 1.0, 8)
	if _, err := NewFederation(ds, 5, fastConfig()); err == nil {
		t.Fatal("expected error: more clients than features")
	}
	fed, err := NewFederation(ds, 2, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	model, err := fed.Train(TrainSpec{Model: KindDT})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.PredictAt(model, 99); err == nil {
		t.Fatal("expected index range error")
	}
}
