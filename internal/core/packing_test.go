package core

import (
	"crypto/rand"
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

// TestCtChunkLevelBudget is the regression test for the hard-coded
// ciphertext-size bug: the chunk budget must derive from the actual byte
// length of a ciphertext at its Damgård–Jurik level (mod N^(s+1)), not from
// the historical 2·KeyBits assumption — which over-admits level-s
// ciphertexts badly enough to overflow MaxFrameSize at realistic key sizes.
func TestCtChunkLevelBudget(t *testing.T) {
	for _, keyBits := range []int{256, 512, 1024, 2048} {
		n := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(keyBits)), big.NewInt(1))
		p := &Party{pk: &paillier.PublicKey{N: n}}
		prev := 0
		for level := 1; level <= paillier.MaxDJLevel; level++ {
			chunk := p.ctChunkLevel(level)
			if chunk < 1 {
				t.Fatalf("keyBits=%d level=%d: zero chunk budget", keyBits, level)
			}
			ctBytes := (keyBits*(level+1)+7)/8 + 16
			if int64(chunk)*int64(ctBytes) > transport.MaxFrameSize {
				t.Fatalf("keyBits=%d level=%d: %d cts × %d bytes overflows MaxFrameSize",
					keyBits, level, chunk, ctBytes)
			}
			if level > 1 && chunk >= prev {
				t.Fatalf("keyBits=%d: level-%d budget %d not smaller than level-%d's %d",
					keyBits, level, chunk, level-1, prev)
			}
			prev = chunk
		}
		// Demonstrate the bug being fixed: the old formula admitted
		// MaxFrameSize/2 ÷ (2·KeyBits/8) ciphertexts per frame regardless
		// of level, so a frame of level-3 ciphertexts lands at 2× the
		// MaxFrameSize/2 payload budget — the headroom that absorbs the
		// per-integer marshal overhead is gone, and the frame sits at the
		// hard transport limit before a single length prefix is added.
		oldChunk := transport.MaxFrameSize / 2 / (2 * keyBits / 8)
		level3Bytes := keyBits * 4 / 8
		if int64(oldChunk)*int64(level3Bytes) <= transport.MaxFrameSize/2 {
			t.Fatalf("keyBits=%d: old formula no longer demonstrates the budget overflow", keyBits)
		}
	}
}

// TestChunkedDJCiphertextMessaging forces tiny frames and ships level-2
// ciphertexts through the level-aware chunked helpers: the reassembled
// ciphertexts must be bit-identical after an echo round trip.
func TestChunkedDJCiphertextMessaging(t *testing.T) {
	ds := smallClassification(12)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		s.Party(i).testCtChunk = 3
	}
	const total, level = 10, 2
	err = s.Each(func(p *Party) error {
		if p.ID == p.Super {
			dj := p.pk.DJ(level)
			cts := make([]*paillier.Ciphertext, total)
			for i := range cts {
				ct, err := dj.Encrypt(rand.Reader, big.NewInt(int64(i)))
				if err != nil {
					return err
				}
				cts[i] = ct
			}
			if err := p.sendCtsChunkedLevel(1, level, cts); err != nil {
				return err
			}
			back, err := p.recvCtsChunkedLevel(1, total, level)
			if err != nil {
				return err
			}
			for i := range cts {
				if cts[i].C.Cmp(back[i].C) != 0 {
					return p.errf("ciphertext %d corrupted by chunked round trip", i)
				}
			}
			return nil
		}
		cts, err := p.recvCtsChunkedLevel(p.Super, total, level)
		if err != nil {
			return err
		}
		return p.sendCtsChunkedLevel(p.Super, level, cts)
	})
	if err != nil {
		t.Fatal(err)
	}
}
