package paillier

import (
	"math/big"
	"math/bits"
	"sync"
)

// Modular multiplication kernel.  Every homomorphic operation is a product
// of two residues followed by a reduction, and big.Int.Mod costs 3.7× the
// multiplication it follows at the paper's key size (long division, plus a
// freshly allocated quotient per call).  A reducer replaces that division
// with Barrett's method (Handbook of Applied Cryptography, Algorithm 14.42)
// on word boundaries: two more multiplications, word slices taken with
// SetBits instead of shifts, and a caller-owned scratch so that a loop of
// products allocates nothing.  Residues stay ordinary canonical integers in
// [0, m), so ciphertexts, wire bytes and saved models keep their
// representation (a Montgomery domain would need a conversion at every
// boundary; DESIGN.md, "Acceleration layer", has the measurements).

// reducer multiplies modulo one fixed modulus m > 0.  It is immutable after
// construction and safe for concurrent use.
type reducer struct {
	m   *big.Int
	k   int      // words of m
	mu  *big.Int // ⌊b^2k / m⌋, b = 2^bits.UintSize
	bk1 *big.Int // b^(k+1)

	pool sync.Pool // *scratch, for one-shot callers
}

// scratch holds the intermediates of one mulMod.  A loop owns one and reuses
// it; a scratch must not be shared between goroutines.
type scratch struct {
	t, q, qm big.Int // x·y, then ⌊t/b^(k-1)⌋·µ, then ⌊q/b^(k+1)⌋·m
	v, w     big.Int // word-slice views of the above; they never own memory
	x, y     big.Int // operands reduced on the slow path
}

func newReducer(m *big.Int) *reducer {
	if m.Sign() <= 0 {
		panic("paillier: modulus must be positive")
	}
	k := len(m.Bits())
	b2k := new(big.Int).Lsh(one, uint(2*k)*bits.UintSize)
	r := &reducer{
		m:   m,
		k:   k,
		mu:  b2k.Div(b2k, m),
		bk1: new(big.Int).Lsh(one, uint(k+1)*bits.UintSize),
	}
	r.pool.New = func() any { return new(scratch) }
	return r
}

// mulMod sets z = x·y mod m, in [0, m), and returns z.  z may alias x or y.
// It is a total function: an operand that is negative or longer than k words
// (nothing a well-formed residue can be) is reduced with Mod first.
func (r *reducer) mulMod(z, x, y *big.Int, s *scratch) *big.Int {
	if !r.fits(x) {
		x = s.x.Mod(x, r.m)
	}
	if !r.fits(y) {
		y = s.y.Mod(y, r.m)
	}
	s.t.Mul(x, y)
	r.reduce(z, s)
	return z
}

// mul is mulMod for one-shot callers: the scratch comes from the reducer's
// pool.
func (r *reducer) mul(z, x, y *big.Int) *big.Int {
	s := r.pool.Get().(*scratch)
	r.mulMod(z, x, y, s)
	r.pool.Put(s)
	return z
}

// unit returns a fresh 1 with room for a residue of m, so a product
// accumulated into it never regrows.
func (r *reducer) unit() *big.Int {
	return new(big.Int).SetBits(make([]big.Word, 1, r.k+2)).SetUint64(1)
}

// fits reports whether x is a valid mulMod operand as is: then the product
// of two of them is below b^2k, Barrett's precondition.
func (r *reducer) fits(x *big.Int) bool {
	return x.Sign() >= 0 && len(x.Bits()) <= r.k
}

// reduce sets z = s.t mod m for 0 ≤ s.t < b^2k and returns the number of
// corrective subtractions, which HAC 14.43 bounds by two: the quotient
// estimate q3 satisfies Q−2 ≤ q3 ≤ Q for the true quotient Q.
func (r *reducer) reduce(z *big.Int, s *scratch) (subs int) {
	t, k := s.t.Bits(), r.k
	// q3 = ⌊⌊t / b^(k-1)⌋ · µ / b^(k+1)⌋
	s.q.Mul(s.v.SetBits(hiWords(t, k-1)), r.mu)
	s.qm.Mul(s.v.SetBits(hiWords(s.q.Bits(), k+1)), r.m)
	// z = (t mod b^(k+1)) − (q3·m mod b^(k+1)), plus b^(k+1) if that wrapped
	z.Sub(s.v.SetBits(loWords(t, k+1)), s.w.SetBits(loWords(s.qm.Bits(), k+1)))
	if z.Sign() < 0 {
		z.Add(z, r.bk1)
	}
	for z.Cmp(r.m) >= 0 {
		z.Sub(z, r.m)
		subs++
	}
	return subs
}

// hiWords returns ⌊x / b^n⌋ and loWords x mod b^n as slices of x.
func hiWords(x []big.Word, n int) []big.Word {
	if len(x) <= n {
		return nil
	}
	return x[n:]
}

func loWords(x []big.Word, n int) []big.Word {
	if len(x) > n {
		return x[:n]
	}
	return x
}
