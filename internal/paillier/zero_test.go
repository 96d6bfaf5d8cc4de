package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
)

func TestZeroDeterministic(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	z := pk.ZeroDeterministic()
	if got := sk.Decrypt(pk, z); got.Sign() != 0 {
		t.Fatalf("trivial zero decrypts to %v", got)
	}
	// Homomorphically absorbing it is the identity.
	ct, err := pk.EncryptInt64(rand.Reader, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.Decrypt(pk, pk.Add(ct, z)); got.Int64() != 42 {
		t.Fatalf("x + 0 decrypts to %v", got)
	}
	// Identical at every caller — no randomness involved.
	if pk.ZeroDeterministic().C.Cmp(z.C) != 0 {
		t.Fatal("trivial zero not deterministic")
	}
}

// TestEncryptPublic: the trivial encryption of a public value is refused on
// receive (unit randomness), while a fresh encryption and the trivial one
// rerandomized pass; it is deterministic, and it composes with Add,
// ScalarMulVec and SubVec to what threshold decryption recovers, negative
// values included.
func TestEncryptPublic(t *testing.T) {
	pk, _, keys := testKeys(t, 3)
	decrypt := func(c *Ciphertext) int64 {
		t.Helper()
		shares := make([]*DecryptionShare, len(keys))
		for i, k := range keys {
			shares[i] = k.PartialDecrypt(pk, c)
		}
		x, err := pk.CombineShares(shares)
		if err != nil {
			t.Fatal(err)
		}
		return x.Int64()
	}
	for _, x := range []int64{0, 1, 3, -1, -7} {
		pub := pk.EncryptPublic(big.NewInt(x))
		if pk.EncryptPublic(big.NewInt(x)).C.Cmp(pub.C) != 0 {
			t.Fatalf("EncryptPublic(%d) not deterministic", x)
		}
		var bad *ErrBadCiphertext
		if err := pk.CheckCiphertexts([]*Ciphertext{pub}); !errors.As(err, &bad) || bad.Reason != "unit randomness" {
			t.Errorf("EncryptPublic(%d) on receive: got %v, want unit randomness refused", x, err)
		}
		fresh, err := pk.EncryptInt64(rand.Reader, x)
		if err != nil {
			t.Fatal(err)
		}
		rerand, err := pk.Rerandomize(rand.Reader, pub)
		if err != nil {
			t.Fatal(err)
		}
		if err := pk.CheckCiphertexts([]*Ciphertext{fresh, rerand}); err != nil {
			t.Errorf("x = %d: Encrypt or Rerandomize(EncryptPublic) refused: %v", x, err)
		}
		if got := decrypt(rerand); got != x {
			t.Errorf("Rerandomize(EncryptPublic(%d)) decrypts to %d", x, got)
		}

		if got := decrypt(pk.Add(pub, fresh)); got != 2*x {
			t.Errorf("EncryptPublic(%d) + Enc(%d) decrypts to %d", x, x, got)
		}
		scaled := pk.ScalarMulVec([]*Ciphertext{pub, pub}, []*big.Int{big.NewInt(0), big.NewInt(-5)}, 1)
		if got0, got1 := decrypt(scaled[0]), decrypt(scaled[1]); got0 != 0 || got1 != -5*x {
			t.Errorf("ScalarMulVec(EncryptPublic(%d), [0, -5]) decrypts to [%d, %d]", x, got0, got1)
		}
		diff := pk.SubVec([]*Ciphertext{pub, fresh}, []*Ciphertext{fresh, pk.EncryptPublic(big.NewInt(4))}, 1)
		if got0, got1 := decrypt(diff[0]), decrypt(diff[1]); got0 != 0 || got1 != x-4 {
			t.Errorf("SubVec over EncryptPublic(%d) decrypts to [%d, %d], want [0, %d]", x, got0, got1, x-4)
		}
	}
}
