package core

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/dataset"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// The packed conversion and packed-open paths must be drop-in: NoPack
// toggles them off, and the trees that come out must be bit-identical —
// packing rearranges how masked values ride ciphertexts and field elements,
// never what those values are.

func TestPackingEquivalenceDT(t *testing.T) {
	// Ungated: the cheap case keeps the packed/unpacked oracle comparison
	// on the short suite's radar.
	ds := smallClassification(24)
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	cfg.NoPack = true
	_, _, oracle := trainSession(t, ds, 2, cfg)
	cfg.NoPack = false
	_, _, packed := trainSession(t, ds, 2, cfg)
	assertSameTree(t, "nopack-vs-packed", packed, oracle)
	if oracle.InternalNodes() == 0 {
		t.Fatal("degenerate comparison: tree did not split")
	}
}

func TestPackingEquivalenceGBDT(t *testing.T) {
	if testing.Short() {
		t.Skip("slow protocol run")
	}
	// Multi-class GBDT under the batched level-wise update: the heaviest
	// consumer of both the packed conversions and the packed opens.
	ds := dataset.SyntheticClassification(24, 4, 3, 3.0, 11)
	cfg := testConfig()
	cfg.NumTrees = 2
	cfg.LearningRate = 0.5
	cfg.Tree.MaxDepth = 2

	train := func(noPack bool) *BoostModel {
		c := cfg
		c.NoPack = noPack
		parts, err := dataset.VerticalPartition(ds, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		var out *BoostModel
		if err := s.Each(func(p *Party) error {
			m, err := p.TrainGBDT()
			if p.ID == 0 && err == nil {
				out = m
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	oracle, packed := train(true), train(false)
	if len(oracle.Forests) != len(packed.Forests) {
		t.Fatalf("class count differs: %d vs %d", len(oracle.Forests), len(packed.Forests))
	}
	for k := range oracle.Forests {
		for w := range oracle.Forests[k] {
			assertSameTree(t, "gbdt-nopack-vs-packed", packed.Forests[k][w], oracle.Forests[k][w])
		}
	}
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
