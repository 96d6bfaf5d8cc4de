package core

import (
	"encoding/json"
	"math/big"
	"os"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// The packed conversion and packed-open paths are the only ones; the
// per-value path they replaced is kept as a recording.
// testdata/packing_golden.json holds the rendered trees the per-value
// conversions and openings trained on these configurations, and the packed
// paths must reproduce them — packing rearranges how masked values ride
// ciphertexts and field elements, never what those values are.

// assertPackingGolden holds trees to the recorded outlines under name.
func assertPackingGolden(t *testing.T, name string, trees []*Model) {
	t.Helper()
	raw, err := os.ReadFile("testdata/packing_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded map[string][]string
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tr := range trees {
		got = append(got, tr.String())
	}
	if !reflect.DeepEqual(got, recorded[name]) {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("%s: trees differ from the recorded ones; this tree produces:\n%s", name, out)
	}
}

func TestPackingEquivalenceDT(t *testing.T) {
	// Ungated: the cheap case keeps the packed conversions on the short
	// suite's radar.
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	_, _, packed := trainSession(t, smallClassification(24), 2, cfg)
	assertPackingGolden(t, "dt", []*Model{packed})
	if packed.InternalNodes() == 0 {
		t.Fatal("degenerate comparison: tree did not split")
	}
}

func TestPackingEquivalenceGBDT(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	// Multi-class GBDT under the batched level-wise update: the heaviest
	// consumer of both the packed conversions and the packed opens.
	_, _, bm := trainEnsemble(t, dataset.SyntheticClassification(24, 4, 3, 3.0, 11), KindGBDT)
	assertPackingGolden(t, "gbdt", predictorTrees(bm))
}

// TestCtChunkBudget is the regression test for the hard-coded
// ciphertext-size bug: the chunk budget must derive from the actual byte
// length of a mod-N² ciphertext under the key in use, and a full frame of
// them must stay within MaxFrameSize at every key size.
func TestCtChunkBudget(t *testing.T) {
	prev := 0
	for _, keyBits := range []int{256, 512, 1024, 2048} {
		n := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(keyBits)), big.NewInt(1))
		p := &Party{pk: &paillier.PublicKey{N: n}}
		chunk := p.ctChunk()
		if chunk < 1 {
			t.Fatalf("keyBits=%d: zero chunk budget", keyBits)
		}
		ctBytes := (2*keyBits+7)/8 + 16
		if int64(chunk)*int64(ctBytes) > transport.MaxFrameSize {
			t.Fatalf("keyBits=%d: %d cts × %d bytes overflows MaxFrameSize", keyBits, chunk, ctBytes)
		}
		if prev != 0 && chunk >= prev {
			t.Fatalf("keyBits=%d: budget %d not smaller than the shorter key's %d", keyBits, chunk, prev)
		}
		prev = chunk
	}
}
