package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

const testBits = 256

func testKeys(t testing.TB, parties int) (*PublicKey, *SecretKey, []*PartialKey) {
	t.Helper()
	pk, sk, pks, err := KeyGen(rand.Reader, testBits, parties)
	if err != nil {
		t.Fatal(err)
	}
	return pk, sk, pks
}

func TestEncryptDecrypt(t *testing.T) {
	pk, sk, _ := testKeys(t, 3)
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40)} {
		ct, err := pk.EncryptInt64(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := sk.Decrypt(pk, ct); got.Int64() != v {
			t.Errorf("Decrypt(Enc(%d)) = %v", v, got)
		}
	}
}

func TestEncryptDecryptQuick(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	f := func(v int64) bool {
		ct, err := pk.Encrypt(rand.Reader, big.NewInt(v))
		if err != nil {
			return false
		}
		return sk.Decrypt(pk, ct).Int64() == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestThresholdDecrypt(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5} {
		pk, _, pks := testKeys(t, m)
		for _, v := range []int64{0, 7, -7, 123456789} {
			ct, err := pk.EncryptInt64(rand.Reader, v)
			if err != nil {
				t.Fatal(err)
			}
			shares := make([]*DecryptionShare, m)
			for i, k := range pks {
				shares[i] = k.PartialDecrypt(pk, ct)
			}
			got, err := pk.CombineShares(shares)
			if err != nil {
				t.Fatal(err)
			}
			if got.Int64() != v {
				t.Errorf("m=%d: threshold decrypt %d -> %v", m, v, got)
			}
		}
	}
}

func TestThresholdRequiresAllShares(t *testing.T) {
	pk, _, pks := testKeys(t, 3)
	ct, _ := pk.EncryptInt64(rand.Reader, 99)
	shares := []*DecryptionShare{pks[0].PartialDecrypt(pk, ct), pks[1].PartialDecrypt(pk, ct)}
	got, err := pk.CombineShares(shares)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() == 99 {
		t.Fatal("decryption with m-1 shares should not yield the plaintext")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	c1, _ := pk.EncryptInt64(rand.Reader, 1234)
	c2, _ := pk.EncryptInt64(rand.Reader, -234)
	if got := sk.Decrypt(pk, pk.Add(c1, c2)); got.Int64() != 1000 {
		t.Errorf("Add: got %v", got)
	}
	if got := sk.Decrypt(pk, pk.Sub(c1, c2)); got.Int64() != 1468 {
		t.Errorf("Sub: got %v", got)
	}
}

func TestHomomorphicMulConst(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	c, _ := pk.EncryptInt64(rand.Reader, 37)
	for _, k := range []int64{0, 1, -1, 5, -5, 1000} {
		got := sk.Decrypt(pk, pk.MulConst(c, big.NewInt(k)))
		if got.Int64() != 37*k {
			t.Errorf("MulConst(%d): got %v, want %d", k, got, 37*k)
		}
	}
}

func TestHomomorphicAddPlain(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	c, _ := pk.EncryptInt64(rand.Reader, 10)
	if got := sk.Decrypt(pk, pk.AddPlain(c, big.NewInt(-25))); got.Int64() != -15 {
		t.Errorf("AddPlain: got %v", got)
	}
}

func TestHomomorphicDot(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	vals := []int64{3, -1, 4, 1, -5}
	coef := []int64{1, 0, 2, 1, -3}
	cts := make([]*Ciphertext, len(vals))
	for i, v := range vals {
		cts[i], _ = pk.EncryptInt64(rand.Reader, v)
	}
	xs := make([]*big.Int, len(coef))
	var want int64
	for i, k := range coef {
		xs[i] = big.NewInt(k)
		want += k * vals[i]
	}
	dot, err := pk.Dot(xs, cts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.Decrypt(pk, dot); got.Int64() != want {
		t.Errorf("Dot: got %v, want %d", got, want)
	}
}

func TestDotLengthMismatch(t *testing.T) {
	pk, _, _ := testKeys(t, 2)
	c, _ := pk.EncryptInt64(rand.Reader, 1)
	if _, err := pk.Dot([]*big.Int{big.NewInt(1)}, []*Ciphertext{c, c}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestRerandomizePreservesPlaintext(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	c, _ := pk.EncryptInt64(rand.Reader, 777)
	c2, err := pk.Rerandomize(rand.Reader, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.C.Cmp(c2.C) == 0 {
		t.Fatal("rerandomize did not change the ciphertext")
	}
	if got := sk.Decrypt(pk, c2); got.Int64() != 777 {
		t.Errorf("rerandomized decrypt = %v", got)
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	pk, _, _ := testKeys(t, 2)
	c1, _ := pk.EncryptInt64(rand.Reader, 5)
	c2, _ := pk.EncryptInt64(rand.Reader, 5)
	if c1.C.Cmp(c2.C) == 0 {
		t.Fatal("two encryptions of the same plaintext coincide")
	}
}

func TestBatchPartialDecrypt(t *testing.T) {
	pk, _, pks := testKeys(t, 3)
	const n = 20
	cts := make([]*Ciphertext, n)
	want := make([]int64, n)
	for i := range cts {
		want[i] = int64(i*i - 50)
		cts[i], _ = pk.EncryptInt64(rand.Reader, want[i])
	}
	for _, workers := range []int{1, 4} {
		byParty := make([][]*DecryptionShare, len(pks))
		for p, k := range pks {
			byParty[p] = k.PartialDecryptVec(pk, cts, workers)
		}
		got, err := pk.CombineSharesVec(byParty, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Int64() != want[i] {
				t.Errorf("workers=%d idx=%d: got %v want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMarshalRoundTrips(t *testing.T) {
	pk, sk, _ := testKeys(t, 2)
	cts := make([]*Ciphertext, 4)
	for i := range cts {
		cts[i], _ = pk.EncryptInt64(rand.Reader, int64(i+1))
	}
	back := UnmarshalCiphertexts(MarshalCiphertexts(cts))
	for i := range back {
		if got := sk.Decrypt(pk, back[i]); got.Int64() != int64(i+1) {
			t.Errorf("marshal round trip idx %d: %v", i, got)
		}
	}
}

func TestSignedEncoding(t *testing.T) {
	pk, _, _ := testKeys(t, 2)
	f := func(v int64) bool {
		x := big.NewInt(v)
		return pk.DecodeSigned(pk.EncodeSigned(x)).Cmp(x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyGenValidation(t *testing.T) {
	if _, _, _, err := KeyGen(rand.Reader, 64, 2); err == nil {
		t.Error("expected error for tiny key")
	}
	if _, _, _, err := KeyGen(rand.Reader, 256, 0); err == nil {
		t.Error("expected error for zero parties")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	pk, _, _ := testKeys(b, 2)
	x := big.NewInt(123456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Encrypt(rand.Reader, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartialDecrypt(b *testing.B) {
	pk, _, pks := testKeys(b, 3)
	ct, _ := pk.EncryptInt64(rand.Reader, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pks[0].PartialDecrypt(pk, ct)
	}
}

func BenchmarkDotBinary(b *testing.B) {
	pk, _, _ := testKeys(b, 2)
	const n = 256
	cts := make([]*Ciphertext, n)
	xs := make([]*big.Int, n)
	for i := range cts {
		cts[i], _ = pk.EncryptInt64(rand.Reader, int64(i))
		xs[i] = big.NewInt(int64(i % 2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Dot(xs, cts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckCiphertexts: values no honest peer can send — zero, multiples of
// N, trivial encryptions (≡ 1 mod N), anything at or beyond the modulus,
// negatives — are refused with a typed error carrying the index; honest
// ciphertexts and shares pass.
func TestCheckCiphertexts(t *testing.T) {
	pk, _, keys := testKeys(t, 2)
	good, err := pk.EncryptVec(rand.Reader, []*big.Int{big.NewInt(7), big.NewInt(-7)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.CheckCiphertexts(good); err != nil {
		t.Fatalf("honest ciphertexts refused: %v", err)
	}
	shares := MarshalShares(keys[0].PartialDecryptVec(pk, good, 1))
	if err := pk.CheckShares(shares); err != nil {
		t.Fatalf("honest shares refused: %v", err)
	}
	bad := map[string]*big.Int{
		"zero":     new(big.Int),
		"N":        pk.N,
		"7N":       new(big.Int).Mul(pk.N, big.NewInt(7)),
		"one":      big.NewInt(1),
		"N2":       pk.N2,
		"2^4096":   new(big.Int).Lsh(one, 4096),
		"negative": big.NewInt(-5),
		"nil":      nil,
	}
	for name, v := range bad {
		err := pk.CheckCiphertexts([]*Ciphertext{good[0], {C: v}})
		var bc *ErrBadCiphertext
		if !errors.As(err, &bc) || bc.Index != 1 {
			t.Errorf("%s: got %v, want ErrBadCiphertext at index 1", name, err)
		}
		// Shares are range-checked only: a multiple of N below N² passes.
		err = pk.CheckShares([]*big.Int{shares[0], v})
		inRange := v != nil && v.Sign() > 0 && v.Cmp(pk.N2) < 0
		if inRange != (err == nil) {
			t.Errorf("%s as a share: got %v, in range %v", name, err, inRange)
		}
	}
}

// fuzzKey is a fixed 256-bit test key, N = p·q, for FuzzCheckCiphertexts:
// its committed corpus holds values relative to N (N, N + 1, N² − 1, 3p, …).
func fuzzKey() *PublicKey {
	p, _ := new(big.Int).SetString("c9c6e76550001f71d9926c3c9a53de79", 16)
	q, _ := new(big.Int).SetString("ea3e5fec4f772409940da53aeca5e81d", 16)
	n := new(big.Int).Mul(p, q)
	return &PublicKey{N: n, N2: new(big.Int).Mul(n, n)}
}

// FuzzCheckCiphertexts: bytes → a received value c (big-endian, negated when
// neg is set).  CheckCiphertexts never panics; it accepts c exactly when
// 0 < c < N² and c mod N is neither 0 nor 1, and refuses everything else
// with an ErrBadCiphertext at the index; Neg on an accepted value does not
// panic.  The one accepted value Neg cannot invert, a multiple of a single
// prime factor, takes the factorisation to form; the target recognises it
// by its gcd with N rather than pay a gcd per received ciphertext.
func FuzzCheckCiphertexts(f *testing.F) {
	pk := fuzzKey()
	f.Fuzz(func(t *testing.T, data []byte, neg bool) {
		c := new(big.Int).SetBytes(data)
		if neg {
			c.Neg(c)
		}
		err := pk.CheckCiphertexts([]*Ciphertext{{C: c}})
		rem := new(big.Int).Mod(c, pk.N)
		valid := c.Sign() > 0 && c.Cmp(pk.N2) < 0 && rem.Sign() != 0 && rem.Cmp(one) != 0
		if !valid {
			var bad *ErrBadCiphertext
			if !errors.As(err, &bad) || bad.Index != 0 {
				t.Fatalf("%v: got %v, want an ErrBadCiphertext at index 0", c, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%v refused: %v", c, err)
		}
		if new(big.Int).GCD(nil, nil, c, pk.N).Cmp(one) == 0 {
			pk.Neg(&Ciphertext{C: c})
		}
	})
}

// TestSubVecMatchesSub: SubVec inverts once per block, and every output is
// still the integer pk.Sub produces — across the block boundaries (63, 64,
// 65), the empty and one-element vectors, and 1–3 workers.  A multiple of p
// is invertible modulo neither N nor N², so a vector holding one panics with
// Neg's message as it always has — wherever in its block it sits — while the
// blocks before and after it, subtracted on their own, are untouched by it.
func TestSubVecMatchesSub(t *testing.T) {
	p, err := rand.Prime(rand.Reader, testBits/2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := rand.Prime(rand.Reader, testBits/2)
	if err != nil {
		t.Fatal(err)
	}
	n := new(big.Int).Mul(p, q)
	pk := &PublicKey{N: n, N2: new(big.Int).Mul(n, n)}
	residues := func(count int) []*Ciphertext {
		out := make([]*Ciphertext, count)
		for i := range out {
			for {
				c, err := rand.Int(rand.Reader, pk.N2)
				if err != nil {
					t.Fatal(err)
				}
				if new(big.Int).GCD(nil, nil, c, n).Cmp(one) == 0 {
					out[i] = &Ciphertext{C: c}
					break
				}
			}
		}
		return out
	}
	check := func(as, bs []*Ciphertext, workers int) {
		t.Helper()
		got := pk.SubVec(as, bs, workers)
		if len(got) != len(as) {
			t.Fatalf("SubVec returned %d of %d elements", len(got), len(as))
		}
		for i := range got {
			if want := pk.Sub(as[i], bs[i]); got[i].C.Cmp(want.C) != 0 {
				t.Fatalf("n=%d workers=%d: element %d differs from Sub", len(as), workers, i)
			}
		}
	}
	for _, count := range []int{0, 1, 63, 64, 65, 200} {
		as, bs := residues(count), residues(count)
		for workers := 1; workers <= 3; workers++ {
			check(as, bs, workers)
		}
	}

	as, bs := residues(200), residues(200)
	for _, at := range []int{64, 100, 127} { // first, inside, last of block 1
		poisoned := append([]*Ciphertext(nil), bs...)
		poisoned[at] = &Ciphertext{C: new(big.Int).Mul(p, big.NewInt(3))}
		func() {
			defer func() {
				if r := recover(); r != "paillier: ciphertext not invertible" {
					t.Fatalf("multiple of p at %d: recovered %v, want Neg's panic", at, r)
				}
			}()
			pk.SubVec(as, poisoned, 1)
		}()
		check(as[:64], poisoned[:64], 1)
		check(as[128:], poisoned[128:], 2)
	}
}

// failingReader is a randomness source that is always exhausted.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("no randomness") }

// TestEncryptVecFailsWhole: when encryptions fail on several workers at once,
// both encryptors report the error and return no partial vector.
func TestEncryptVecFailsWhole(t *testing.T) {
	pk, _, _ := testKeys(t, 2)
	xs := make([]*big.Int, 32)
	for i := range xs {
		xs[i] = big.NewInt(int64(i))
	}
	for _, workers := range []int{1, 4} {
		if out, err := pk.EncryptVec(failingReader{}, xs, workers); err == nil || out != nil {
			t.Errorf("workers %d: EncryptVec = %d ciphertexts, %v; want nil and the reader's error", workers, len(out), err)
		}
		if out, err := pk.DJ(2).EncryptVec(failingReader{}, xs, workers); err == nil || out != nil {
			t.Errorf("workers %d: DJ.EncryptVec = %d ciphertexts, %v; want nil and the reader's error", workers, len(out), err)
		}
	}
}

// TestDJEncryptDefiningEquation pins the kept level-s encryption to
// c = (1+N)^m · r^(N^s) mod N^(s+1), m = x mod N^s: a seeded reader feeds
// Encrypt, a second reader with the same seed redraws r, and a generic
// modexp recomputes the right-hand side.  At s = 1 the same bytes must also
// give PublicKey.Encrypt's ciphertext.
func TestDJEncryptDefiningEquation(t *testing.T) {
	pk, _, _ := testKeys(t, 2)
	for s := 1; s <= 3; s++ {
		dj := pk.DJ(s)
		onePlusN := new(big.Int).Add(pk.N, one)
		xs := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(-1),
			big.NewInt(123456789), big.NewInt(-987654321),
			new(big.Int).Sub(dj.NS, one),
			new(big.Int).Lsh(one, uint((s-1)*pk.N.BitLen()+13)), // beyond Z_N from s = 2 on
		}
		for i, x := range xs {
			seed := int64(100*s + i)
			ct, err := dj.Encrypt(mrand.New(mrand.NewSource(seed)), x)
			if err != nil {
				t.Fatal(err)
			}
			r, err := pk.randomUnit(mrand.New(mrand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			m := new(big.Int).Mod(x, dj.NS)
			want := new(big.Int).Exp(onePlusN, m, dj.NS1)
			want.Mul(want, new(big.Int).Exp(r, dj.NS, dj.NS1))
			want.Mod(want, dj.NS1)
			if ct.C.Cmp(want) != 0 {
				t.Fatalf("s=%d x=%v: ciphertext is not (1+N)^m · r^(N^s) mod N^(s+1)", s, x)
			}
			if s == 1 {
				plain, err := pk.Encrypt(mrand.New(mrand.NewSource(seed)), x)
				if err != nil {
					t.Fatal(err)
				}
				if plain.C.Cmp(ct.C) != 0 {
					t.Fatalf("x=%v: level-1 DJ and Paillier encryptions of the same bytes differ", x)
				}
			}
		}
	}
}
