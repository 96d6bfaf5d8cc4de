package paillier

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func testKey(t testing.TB, parties int) (*PublicKey, *SecretKey, []*PartialKey) {
	t.Helper()
	pk, sk, keys, err := KeyGen(rand.Reader, 256, parties)
	if err != nil {
		t.Fatal(err)
	}
	return pk, sk, keys
}

// TestFixedBaseMatchesExp cross-checks the windowed table against
// big.Int.Exp for random bases, moduli and exponents.
func TestFixedBaseMatchesExp(t *testing.T) {
	pk, _, _ := testKey(t, 1)
	for _, window := range []uint{1, 3, 4, 6, 8} {
		for trial := 0; trial < 20; trial++ {
			base, err := rand.Int(rand.Reader, pk.N2)
			if err != nil {
				t.Fatal(err)
			}
			tbl := NewFixedBaseTable(base, pk.N2, window, 256)
			e, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 256))
			if err != nil {
				t.Fatal(err)
			}
			got := tbl.Exp(e)
			want := new(big.Int).Exp(base, e, pk.N2)
			if got.Cmp(want) != 0 {
				t.Fatalf("window %d: table exp mismatch for e=%v", window, e)
			}
		}
	}
}

// TestFixedBaseEdgeExponents pins the boundary exponents: zero, one, the
// largest in-table value, and out-of-range values that must fall back.
func TestFixedBaseEdgeExponents(t *testing.T) {
	pk, _, _ := testKey(t, 1)
	base := big.NewInt(7)
	const maxBits = 64
	tbl := NewFixedBaseTable(base, pk.N2, 6, maxBits)

	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), maxBits), big.NewInt(1)), // max in-table
		new(big.Int).Lsh(big.NewInt(1), maxBits),                                  // first fallback
		new(big.Int).Lsh(big.NewInt(1), maxBits+13),                               // deep fallback
	}
	for _, e := range cases {
		got := tbl.Exp(e)
		want := new(big.Int).Exp(base, e, pk.N2)
		if got.Cmp(want) != 0 {
			t.Fatalf("exp mismatch for e=%v", e)
		}
	}

	// Negative exponent: must match big.Int.Exp's modular-inverse behavior.
	neg := big.NewInt(-3)
	got := tbl.Exp(neg)
	want := new(big.Int).Exp(base, neg, pk.N2)
	if got.Cmp(want) != 0 {
		t.Fatalf("negative exponent mismatch")
	}
}

// TestPooledEncryptionEquation verifies the fixed-base pipeline end to end:
// a pooled encryption g^m · r^N mod N² must equal the ciphertext assembled
// from the returned nonce with plain big.Int.Exp, for random plaintexts and
// the signed/fixed-point edge cases.
func TestPooledEncryptionEquation(t *testing.T) {
	pk, sk, _ := testKey(t, 1)
	if _, err := pk.EnablePool(PoolConfig{Workers: 1, Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	defer pk.DisablePool()

	half := new(big.Int).Rsh(pk.N, 1)
	edge := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(-1),
		new(big.Int).Set(half),                      // maximum positive plaintext
		new(big.Int).Neg(half),                      // most negative plaintext
		new(big.Int).Lsh(big.NewInt(3), 16),         // fixed-point 3.0 at f=16
		new(big.Int).Neg(new(big.Int).Lsh(one, 16)), // fixed-point -1.0 at f=16
		new(big.Int).Sub(big.NewInt(0), big.NewInt(123456789)),
	}
	var ms []*big.Int
	ms = append(ms, edge...)
	for i := 0; i < 24; i++ {
		m, err := rand.Int(rand.Reader, pk.N)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, new(big.Int).Sub(m, half)) // spread over signed range
	}

	for _, m := range ms {
		ct, r, err := pk.EncryptWithNonce(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		// Reassemble (1+N)^m · r^N with the baseline exponentiation.
		enc := pk.EncodeSigned(m)
		want := new(big.Int).Mul(enc, pk.N)
		want.Add(want, one)
		want.Mod(want, pk.N2)
		rn := new(big.Int).Exp(r, pk.N, pk.N2)
		want.Mul(want, rn)
		want.Mod(want, pk.N2)
		if ct.C.Cmp(want) != 0 {
			t.Fatalf("pooled ciphertext does not match g^m·r^N for m=%v", m)
		}
		got := sk.Decrypt(pk, ct)
		if got.Cmp(pk.DecodeSigned(enc)) != 0 {
			t.Fatalf("decrypt mismatch: got %v want %v", got, pk.DecodeSigned(enc))
		}
	}
}

// TestPoolNonceIsUnit checks that pooled nonces are valid units of Z_N^*
// and are not repeated across draws.
func TestPoolNonceIsUnit(t *testing.T) {
	pk, _, _ := testKey(t, 1)
	pool, err := NewPool(pk, PoolConfig{Workers: 1, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		r, rn, err := pool.Obfuscator()
		if err != nil {
			t.Fatal(err)
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) != 0 {
			t.Fatalf("pooled nonce not a unit")
		}
		if want := new(big.Int).Exp(r, pk.N, pk.N2); want.Cmp(rn) != 0 {
			t.Fatalf("pooled pair inconsistent: rn != r^N")
		}
		key := r.String()
		if seen[key] {
			t.Fatalf("pooled nonce repeated after %d draws", i)
		}
		seen[key] = true
	}
}

// TestPooledEncryptSkipsNonce: encryption and rerandomization consume only
// h^e, so a pool that never serves Obfuscator never builds the nonce table;
// the first Obfuscator call does, and its pair still satisfies rn = r^N.
func TestPooledEncryptSkipsNonce(t *testing.T) {
	pk, sk, _ := testKey(t, 1)
	pool, err := pk.EnablePool(PoolConfig{Workers: 1, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pk.DisablePool()
	pool.Reserve(40, 2)
	for i := 0; i < 100; i++ {
		ct, err := pk.Encrypt(rand.Reader, big.NewInt(int64(i-50)))
		if err != nil {
			t.Fatal(err)
		}
		if ct, err = pk.Rerandomize(rand.Reader, ct); err != nil {
			t.Fatal(err)
		}
		if got := sk.Decrypt(pk, ct); got.Int64() != int64(i-50) {
			t.Fatalf("pooled encrypt+rerandomize decrypts to %v, want %d", got, i-50)
		}
	}
	cts, err := pk.EncryptVec(rand.Reader, []*big.Int{big.NewInt(1), big.NewInt(2)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pk.RerandomizeVec(rand.Reader, cts, 2); err != nil {
		t.Fatal(err)
	}
	if pool.tblN != nil {
		t.Fatal("encryption built the nonce table nobody reads")
	}
	r, rn, err := pk.Obfuscator(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if pool.tblN == nil {
		t.Fatal("Obfuscator did not build the nonce table")
	}
	if want := new(big.Int).Exp(r, pk.N, pk.N2); want.Cmp(rn) != 0 {
		t.Fatal("on-demand nonce inconsistent: rn != r^N")
	}
}
