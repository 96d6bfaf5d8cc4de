package paillier

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"testing"
)

// bigMulMod is the formula mulMod replaced: one multiplication, one long
// division.  It is the oracle of every test below (and of FuzzMulMod).
func bigMulMod(x, y, m *big.Int) *big.Int {
	z := new(big.Int).Mul(x, y)
	return z.Mod(z, m)
}

// checkMulMod compares mulMod with the oracle for one operand pair, in the
// plain, aliased and pooled-scratch forms, and checks the bound on the
// correction loop.
func checkMulMod(t testing.TB, r *reducer, s *scratch, x, y *big.Int) {
	t.Helper()
	want := bigMulMod(x, y, r.m)
	if got := r.mulMod(new(big.Int), x, y, s); got.Cmp(want) != 0 {
		t.Fatalf("mulMod(%x, %x) mod %x = %x, want %x", x, y, r.m, got, want)
	}
	if got := r.mul(new(big.Int), x, y); got.Cmp(want) != 0 {
		t.Fatalf("mul(%x, %x) mod %x = %x, want %x", x, y, r.m, got, want)
	}
	// z aliasing x, and y.
	if got := new(big.Int).Set(x); r.mulMod(got, got, y, s).Cmp(want) != 0 {
		t.Fatalf("mulMod(z=x) mod %x = %x, want %x", r.m, got, want)
	}
	if got := new(big.Int).Set(y); r.mulMod(got, x, got, s).Cmp(want) != 0 {
		t.Fatalf("mulMod(z=y) mod %x = %x, want %x", r.m, got, want)
	}
	// The correction loop: feed reduce the raw product of in-range operands.
	if r.fits(x) && r.fits(y) {
		s.t.Mul(x, y)
		if subs := r.reduce(new(big.Int), s); subs > 2 {
			t.Fatalf("reduce took %d corrective subtractions (x=%x y=%x m=%x)", subs, x, y, r.m)
		}
	}
}

// testModuli returns the key moduli N, N², N³ at 256/512/1024-bit keys plus
// synthetic moduli at the edges of the word-aligned estimate: top word 1, top
// word all-ones, one word, and the smallest moduli.
func testModuli(t testing.TB) map[string]*big.Int {
	out := map[string]*big.Int{
		"one":   big.NewInt(1),
		"two":   big.NewInt(2),
		"word":  new(big.Int).SetUint64(0xfffffffffffffff1),
		"2^64":  new(big.Int).Lsh(one, 64),
		"2^128": new(big.Int).Lsh(one, 128),
	}
	for _, words := range []int{2, 8, 32} {
		w := uint(words) * bits.UintSize
		top1 := new(big.Int).Lsh(one, w-bits.UintSize) // top word = 1
		out[fmt.Sprintf("top1/%d", words)] = top1.Add(top1, big.NewInt(12345))
		ones := new(big.Int).Lsh(one, w)
		out[fmt.Sprintf("ones/%d", words)] = ones.Sub(ones, one) // every word all-ones
		almost := new(big.Int).Lsh(one, w)
		out[fmt.Sprintf("topones/%d", words)] = almost.Sub(almost, new(big.Int).Lsh(one, w-bits.UintSize)).Add(almost, big.NewInt(7))
	}
	keyBits := []int{256, 512, 1024}
	if testing.Short() {
		keyBits = keyBits[:2]
	}
	for _, kb := range keyBits {
		pk, _, _, err := KeyGen(rand.Reader, kb, 2)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("N/%d", kb)] = pk.N
		out[fmt.Sprintf("N2/%d", kb)] = pk.N2
		out[fmt.Sprintf("N3/%d", kb)] = new(big.Int).Mul(pk.N2, pk.N)
	}
	return out
}

// TestMulModMatchesBigMod: mulMod equals Mul+Mod on every modulus shape, for
// edge, random, aliased, oversized and negative operands.
func TestMulModMatchesBigMod(t *testing.T) {
	for name, m := range testModuli(t) {
		m := m
		t.Run(name, func(t *testing.T) {
			r := newReducer(m)
			s := new(scratch)
			mm1 := new(big.Int).Sub(m, one)
			// Largest value that still takes the fast path: k full words.
			full := new(big.Int).Lsh(one, uint(r.k)*bits.UintSize)
			full.Sub(full, one)
			edges := []*big.Int{
				new(big.Int), big.NewInt(1), mm1, m, full,
				new(big.Int).Rsh(m, 1),
				new(big.Int).Lsh(m, 3),                // oversized
				new(big.Int).Lsh(one, 4096),           // far oversized
				new(big.Int).Neg(mm1), big.NewInt(-1), // negative
				new(big.Int).Neg(new(big.Int).Lsh(one, 4096)), // negative and oversized
			}
			for _, x := range edges {
				for _, y := range edges {
					checkMulMod(t, r, s, x, y)
				}
			}
			for i := 0; i < 300; i++ {
				x, _ := rand.Int(rand.Reader, m)
				y, _ := rand.Int(rand.Reader, m)
				checkMulMod(t, r, s, x, y)
				// Operands above m that still fit k words stay on the fast path.
				xf, _ := rand.Int(rand.Reader, full)
				checkMulMod(t, r, s, xf, y)
			}
			// mulMod(a, a, a): squaring in place.
			a, _ := rand.Int(rand.Reader, m)
			want := bigMulMod(a, a, m)
			if r.mulMod(a, a, a, s).Cmp(want) != 0 {
				t.Fatalf("mulMod(a, a, a) = %x, want %x", a, want)
			}
		})
	}
}

// TestMulModAllocs gates the hot loops: a mulMod loop with a held scratch
// allocates nothing; one FixedBaseTable.Exp and one Dot over 256 indicator
// terms allocate only their result (the formulas they replace allocated about
// two objects per term).
func TestMulModAllocs(t *testing.T) {
	pk, _, _, err := KeyGen(rand.Reader, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := pk.n2()
	s := new(scratch)
	x, _ := rand.Int(rand.Reader, pk.N2)
	y, _ := rand.Int(rand.Reader, pk.N2)
	acc := new(big.Int).Set(x)
	r.mulMod(acc, acc, y, s) // size the scratch and the accumulator
	if n := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			r.mulMod(acc, acc, y, s)
		}
	}); n != 0 {
		t.Errorf("mulMod loop: %v allocs per run, want 0", n)
	}

	tbl := NewFixedBaseTable(x, pk.N2, poolWindow, poolExpBits)
	e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(one, 256))
	tbl.Exp(e)
	if n := testing.AllocsPerRun(50, func() { tbl.Exp(e) }); n > 4 {
		t.Errorf("FixedBaseTable.Exp: %v allocs per run, want <= 4", n)
	}

	const terms = 256
	xs := make([]*big.Int, terms)
	cts := make([]*Ciphertext, terms)
	for i := range xs {
		xs[i] = big.NewInt(int64(i % 2))
		c, _ := rand.Int(rand.Reader, pk.N2)
		cts[i] = &Ciphertext{C: c}
	}
	if _, err := pk.Dot(xs, cts); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { pk.Dot(xs, cts) }); n > 4 {
		t.Errorf("Dot over %d indicator terms: %v allocs per run, want <= 4", terms, n)
	}
}

// FuzzMulMod: bytes → (modulus, x, y); mulMod must equal Mul+Mod on the fast
// path and on the slow one (operands longer than the modulus, negative
// operands).  The committed corpus holds the word-boundary cases.
func FuzzMulMod(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, x, y := fuzzOperands(data)
		if m.Sign() == 0 {
			return
		}
		checkMulMod(t, newReducer(m), new(scratch), x, y)
	})
}

// fuzzOperands splits data into three big-endian integers, each behind a
// two-byte header: 15 bits of length and, for x and y, a top bit that negates
// the value.  Truncated input yields short or zero values, so every byte
// string decodes.
func fuzzOperands(data []byte) (m, x, y *big.Int) {
	next := func() (*big.Int, bool) {
		if len(data) < 2 {
			data = nil
			return new(big.Int), false
		}
		hdr := binary.BigEndian.Uint16(data)
		neg, n := hdr&0x8000 != 0, int(hdr&0x7fff)
		data = data[2:]
		if n > len(data) {
			n = len(data)
		}
		v := new(big.Int).SetBytes(data[:n])
		data = data[n:]
		return v, neg
	}
	m, _ = next()
	x, xneg := next()
	y, yneg := next()
	if xneg {
		x.Neg(x)
	}
	if yneg {
		y.Neg(y)
	}
	return m, x, y
}
