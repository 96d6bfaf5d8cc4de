package dataset

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestSyntheticClassificationShape(t *testing.T) {
	ds := SyntheticClassification(200, 10, 4, 2.0, 1)
	if ds.N() != 200 || ds.D() != 10 || ds.Classes != 4 {
		t.Fatalf("shape %dx%d classes %d", ds.N(), ds.D(), ds.Classes)
	}
	seen := map[float64]bool{}
	for _, y := range ds.Y {
		if y != math.Trunc(y) || y < 0 || y >= 4 {
			t.Fatalf("bad label %v", y)
		}
		seen[y] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d classes present", len(seen))
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := SyntheticClassification(50, 5, 2, 1.0, 42)
	b := SyntheticClassification(50, 5, 2, 1.0, 42)
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ between identical seeds")
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("features differ between identical seeds")
			}
		}
	}
}

func TestSyntheticRegressionShape(t *testing.T) {
	ds := SyntheticRegression(100, 8, 0.1, 3)
	if ds.N() != 100 || ds.D() != 8 || ds.IsClassification() {
		t.Fatalf("bad regression dataset")
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	ds := SyntheticClassification(100, 4, 2, 1.0, 5)
	train, test := Split(ds, 0.3, 9)
	if train.N()+test.N() != 100 {
		t.Fatalf("split sizes %d + %d", train.N(), test.N())
	}
	if test.N() != 30 {
		t.Fatalf("test size %d", test.N())
	}
}

func TestVerticalPartition(t *testing.T) {
	ds := SyntheticClassification(60, 7, 3, 1.0, 8)
	parts, err := VerticalPartition(ds, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := map[int]bool{}
	for c, p := range parts {
		if p.Client != c || p.N != 60 {
			t.Fatalf("partition %d malformed", c)
		}
		total += len(p.Features)
		for _, f := range p.Features {
			if seen[f] {
				t.Fatalf("feature %d assigned twice", f)
			}
			seen[f] = true
		}
		if (c == 0) != (p.Y != nil) {
			t.Fatalf("labels in wrong place for client %d", c)
		}
		// Local columns must match the source data.
		for i := 0; i < p.N; i++ {
			for j, f := range p.Features {
				if p.X[i][j] != ds.X[i][f] {
					t.Fatalf("client %d sample %d feature %d mismatch", c, i, f)
				}
			}
		}
	}
	if total != 7 {
		t.Fatalf("features lost: %d", total)
	}
}

func TestVerticalPartitionErrors(t *testing.T) {
	ds := SyntheticClassification(10, 3, 2, 1.0, 1)
	if _, err := VerticalPartition(ds, 5, 0); err == nil {
		t.Error("expected error: more clients than features")
	}
	if _, err := VerticalPartition(ds, 2, 7); err == nil {
		t.Error("expected error: super client out of range")
	}
}

func TestSplitCandidates(t *testing.T) {
	col := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	cands := SplitCandidates(col, 3)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			t.Fatal("candidates not increasing")
		}
	}
	// Constant column has no valid split.
	if c := SplitCandidates([]float64{5, 5, 5}, 4); len(c) != 0 {
		t.Fatalf("constant column should have no splits, got %v", c)
	}
	// Few unique values: all midpoints.
	if c := SplitCandidates([]float64{1, 2, 1, 2}, 8); len(c) != 1 || c[0] != 1.5 {
		t.Fatalf("two-value column: %v", c)
	}
}

func TestSplitCandidatesBounded(t *testing.T) {
	f := func(vals []float64, b uint8) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		n := int(b%16) + 1
		return len(SplitCandidates(vals, n)) <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := SyntheticClassification(30, 5, 2, 1.0, 11)
	var buf bytes.Buffer
	if err := SaveCSV(ds, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() || back.D() != ds.D() {
		t.Fatalf("shape changed: %dx%d", back.N(), back.D())
	}
	for i := range ds.X {
		if back.Y[i] != ds.Y[i] {
			t.Fatalf("label %d changed", i)
		}
		for j := range ds.X[i] {
			if back.X[i][j] != ds.X[i][j] {
				t.Fatalf("value (%d,%d) changed", i, j)
			}
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(bytes.NewBufferString("h1,label\n"), 0); err == nil {
		t.Error("expected error: no rows")
	}
	if _, err := LoadCSV(bytes.NewBufferString("h1,label\nx,1\n"), 0); err == nil {
		t.Error("expected error: non-numeric")
	}
}

// FuzzLoadCSV feeds arbitrary bytes to LoadCSV, the loader behind every
// command's -data file.  It must never panic; whatever it accepts must be
// rectangular — one name per feature column, every row that wide, one label
// per row — and survive SaveCSV → LoadCSV unchanged (NaN included).
func FuzzLoadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := LoadCSV(bytes.NewReader(data), 2)
		if err != nil {
			return
		}
		d := len(ds.Names)
		if d < 1 || ds.N() < 1 || len(ds.Y) != ds.N() || slices.ContainsFunc(ds.X, func(row []float64) bool { return len(row) != d }) {
			t.Fatalf("accepted a dataset that is not rectangular: %d names, %+v", d, ds)
		}
		var buf bytes.Buffer
		if err := SaveCSV(ds, &buf); err != nil {
			t.Fatal(err)
		}
		back, err := LoadCSV(&buf, 2)
		if err != nil {
			t.Fatalf("saved dataset does not load: %v\n%q", err, buf.Bytes())
		}
		// Bit equality, so that a NaN equals itself.
		same := func(a, b []float64) bool {
			return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		}
		ok := back.Classes == ds.Classes && slices.Equal(back.Names, ds.Names) && same(back.Y, ds.Y) &&
			slices.EqualFunc(back.X, ds.X, same)
		if !ok {
			t.Fatalf("round trip changed the dataset:\n%+v\n%+v", ds, back)
		}
	})
}

func TestTableThreeStandInShapes(t *testing.T) {
	if ds := BankMarketing(1); ds.N() != 4521 || ds.D() != 17 || ds.Classes != 2 {
		t.Error("bank marketing stand-in shape")
	}
	// Keep the big ones light: just construct and check a prefix.
	if ds := CreditCard(1); ds.N() != 30000 || ds.D() != 25 {
		t.Error("credit card stand-in shape")
	}
	if ds := AppliancesEnergy(1); ds.N() != 19735 || ds.D() != 29 || ds.IsClassification() {
		t.Error("appliances energy stand-in shape")
	}
}
