package paillier

import (
	"math/big"
)

// Fixed-base windowed exponentiation.  Pivot's hot paths exponentiate the
// same base over and over — the obfuscator base h = ρ^N mod N² behind every
// encryption and rerandomization, and the commitment bases of the §9.1
// zero-knowledge proofs — so the classic fixed-base precomputation applies:
// spend one table build of ~rows·2^w multiplications, then every subsequent
// exponentiation costs at most ⌈maxBits/w⌉ modular multiplications instead
// of a full square-and-multiply over N-bit exponents.

// FixedBaseTable caches windowed powers of one base modulo one modulus.
// rows[i][j] = base^(j · 2^(i·w)) mod m, so for an exponent written in
// base-2^w digits e = Σ d_i · 2^(i·w) the power is Π rows[i][d_i].
//
// A table is immutable after construction and safe for concurrent use.
type FixedBaseTable struct {
	base    *big.Int
	mod     *big.Int
	red     *reducer
	window  uint
	maxBits uint
	rows    [][]*big.Int
}

// NewFixedBaseTable builds a table for exponents up to maxBits bits with the
// given window width (typically 4–7; larger windows trade table size and
// build time for fewer multiplications per exponentiation).
func NewFixedBaseTable(base, mod *big.Int, window, maxBits uint) *FixedBaseTable {
	if window == 0 {
		window = 6
	}
	if maxBits == 0 {
		maxBits = uint(mod.BitLen())
	}
	numRows := (maxBits + window - 1) / window
	t := &FixedBaseTable{
		base:    new(big.Int).Mod(base, mod),
		mod:     mod,
		red:     newReducer(mod),
		window:  window,
		maxBits: maxBits,
		rows:    make([][]*big.Int, numRows),
	}
	s := new(scratch)
	cur := new(big.Int).Set(t.base) // base^(2^(i·w)) for the current row
	size := 1 << window
	for i := range t.rows {
		row := make([]*big.Int, size)
		row[0] = big.NewInt(1)
		for j := 1; j < size; j++ {
			row[j] = t.red.mulMod(new(big.Int), row[j-1], cur, s)
		}
		t.rows[i] = row
		// Advance to the next row's base: cur^(2^w) = row[2^w - 1] · cur.
		cur = t.red.mulMod(new(big.Int), row[size-1], cur, s)
	}
	return t
}

// MaxBits reports the largest exponent bit length served from the table.
func (t *FixedBaseTable) MaxBits() uint { return t.maxBits }

// Exp computes base^e mod m.  Exponents that fit in maxBits are answered
// from the table; anything else (including negative exponents) falls back to
// big.Int.Exp so the table is a drop-in replacement.
func (t *FixedBaseTable) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 || uint(e.BitLen()) > t.maxBits {
		return new(big.Int).Exp(t.base, e, t.mod)
	}
	s := t.red.pool.Get().(*scratch)
	defer t.red.pool.Put(s)
	acc := t.red.unit()
	bits := uint(e.BitLen())
	for i, row := range t.rows {
		lo := uint(i) * t.window
		if lo >= bits {
			break
		}
		digit := 0
		for b := uint(0); b < t.window; b++ {
			digit |= int(e.Bit(int(lo+b))) << b
		}
		switch {
		case digit == 0:
		case acc.Cmp(one) == 0:
			acc.Set(row[digit]) // first factor: nothing to reduce
		default:
			t.red.mulMod(acc, acc, row[digit], s)
		}
	}
	return acc
}
