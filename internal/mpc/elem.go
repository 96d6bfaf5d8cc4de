package mpc

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// Elem is an element of Z_Q, Q = 2^255 − 19, held as four little-endian
// 64-bit limbs and always canonical (< Q).  Every operation returns a
// canonical element, so == compares field values.  The shape of Q is what
// makes this cheap: 2^255 ≡ 19 and 2^256 ≡ 38 (mod Q), so a 512-bit product
// folds to 255 bits with four multiplies by 38 and no division.
type Elem [4]uint64

// Limbs of Q.
const (
	q0 = 0xffffffffffffffed
	q1 = 0xffffffffffffffff
	q3 = 0x7fffffffffffffff
)

// reduceOnce maps a 256-bit x < 2Q to x mod Q.
func reduceOnce(x Elem) Elem {
	var t Elem
	var b uint64
	t[0], b = bits.Sub64(x[0], q0, 0)
	t[1], b = bits.Sub64(x[1], q1, b)
	t[2], b = bits.Sub64(x[2], q1, b)
	t[3], b = bits.Sub64(x[3], q3, b)
	if b != 0 {
		return x
	}
	return t
}

// reduce512 folds a 512-bit integer (little-endian limbs) into Z_Q.
func reduce512(t [8]uint64) Elem {
	// 2^256 ≡ 38: r = low half + 38·high half, four limbs and a small carry.
	var r Elem
	var carry uint64
	carry, r[0] = madd(t[4], 38, t[0], 0)
	carry, r[1] = madd(t[5], 38, t[1], carry)
	carry, r[2] = madd(t[6], 38, t[2], carry)
	carry, r[3] = madd(t[7], 38, t[3], carry)
	// carry ≤ 38.  It counts 2^256s and bit 255 counts one 2^255: together
	// (2·carry + bit255)·19.
	top := carry<<1 | r[3]>>63
	r[3] &= q3
	var c uint64
	r[0], c = bits.Add64(r[0], top*19, 0)
	r[1], c = bits.Add64(r[1], 0, c)
	r[2], c = bits.Add64(r[2], 0, c)
	r[3] += c
	return reduceOnce(r)
}

// Add returns a + b.
func (a Elem) Add(b Elem) Elem {
	var r Elem
	var c uint64
	r[0], c = bits.Add64(a[0], b[0], 0)
	r[1], c = bits.Add64(a[1], b[1], c)
	r[2], c = bits.Add64(a[2], b[2], c)
	r[3], _ = bits.Add64(a[3], b[3], c) // a, b < 2^255: no carry out
	return reduceOnce(r)
}

// Sub returns a − b.
func (a Elem) Sub(b Elem) Elem {
	var r Elem
	var br uint64
	r[0], br = bits.Sub64(a[0], b[0], 0)
	r[1], br = bits.Sub64(a[1], b[1], br)
	r[2], br = bits.Sub64(a[2], b[2], br)
	r[3], br = bits.Sub64(a[3], b[3], br)
	if br != 0 {
		// r holds a − b + 2^256; adding Q modulo 2^256 leaves a − b + Q.
		var c uint64
		r[0], c = bits.Add64(r[0], q0, 0)
		r[1], c = bits.Add64(r[1], q1, c)
		r[2], c = bits.Add64(r[2], q1, c)
		r[3], _ = bits.Add64(r[3], q3, c)
	}
	return r
}

// Neg returns −a.
func (a Elem) Neg() Elem { return Elem{}.Sub(a) }

// madd returns a·b + t + c as a double word; it cannot overflow.
func madd(a, b, t, c uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, t, 0)
	hi += carry
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	return hi, lo
}

// Mul returns a·b: a 4×4 schoolbook product, one row of b per limb of a,
// unrolled so the eight product limbs stay in registers.
func (a Elem) Mul(b Elem) Elem {
	var t [8]uint64
	var c uint64
	c, t[0] = madd(a[0], b[0], 0, 0)
	c, t[1] = madd(a[0], b[1], 0, c)
	c, t[2] = madd(a[0], b[2], 0, c)
	t[4], t[3] = madd(a[0], b[3], 0, c)

	c, t[1] = madd(a[1], b[0], t[1], 0)
	c, t[2] = madd(a[1], b[1], t[2], c)
	c, t[3] = madd(a[1], b[2], t[3], c)
	t[5], t[4] = madd(a[1], b[3], t[4], c)

	c, t[2] = madd(a[2], b[0], t[2], 0)
	c, t[3] = madd(a[2], b[1], t[3], c)
	c, t[4] = madd(a[2], b[2], t[4], c)
	t[6], t[5] = madd(a[2], b[3], t[5], c)

	c, t[3] = madd(a[3], b[0], t[3], 0)
	c, t[4] = madd(a[3], b[1], t[4], c)
	c, t[5] = madd(a[3], b[2], t[5], c)
	t[7], t[6] = madd(a[3], b[3], t[6], c)
	return reduce512(t)
}

// Lsh returns a·2^n for a public bit count n < 256.
func (a Elem) Lsh(n uint) Elem {
	if n >= 256 {
		panic("mpc: Elem.Lsh shift out of range")
	}
	var t [8]uint64
	w, s := n/64, n%64
	for i := uint(0); i < 4; i++ {
		t[i+w] |= a[i] << s
		if s != 0 {
			t[i+w+1] |= a[i] >> (64 - s)
		}
	}
	return reduce512(t)
}

// half returns a/2.
func (a Elem) half() Elem {
	var c uint64
	if a[0]&1 == 1 { // a + Q is even and < 2^256
		a[0], c = bits.Add64(a[0], q0, 0)
		a[1], c = bits.Add64(a[1], q1, c)
		a[2], c = bits.Add64(a[2], q1, c)
		a[3], _ = bits.Add64(a[3], q3, c)
	}
	return Elem{a[0]>>1 | a[1]<<63, a[1]>>1 | a[2]<<63, a[2]>>1 | a[3]<<63, a[3] >> 1}
}

// invPow2 returns 2^−m.
func invPow2(m uint) Elem {
	x := Elem{1}
	for ; m > 0; m-- {
		x = x.half()
	}
	return x
}

// Bit returns bit i of a's canonical integer representative.
func (a Elem) Bit(i int) uint {
	if i < 0 || i >= 256 {
		return 0
	}
	return uint(a[i/64]>>(uint(i)%64)) & 1
}

// IsZero reports a == 0.
func (a Elem) IsZero() bool { return a == Elem{} }

// slot returns bits [off, off+width) of a's integer representative: the
// integer (a >> off) mod 2^width, which is what a packed opening holds in
// the slot at that offset.
func (a Elem) slot(off, width uint) Elem {
	var r Elem
	if off < 256 {
		w, s := off/64, off%64
		for i := uint(0); i+w < 4; i++ {
			r[i] = a[i+w] >> s
			if s != 0 && i+w+1 < 4 {
				r[i] |= a[i+w+1] << (64 - s)
			}
		}
	}
	if width < 256 {
		w, s := width/64, width%64
		r[w] &= 1<<s - 1
		for i := w + 1; i < 4; i++ {
			r[i] = 0
		}
	}
	return r
}

// bitLen returns the length of a's integer representative in bits.
func (a Elem) bitLen() int {
	for i := 3; i >= 0; i-- {
		if a[i] != 0 {
			return 64*i + bits.Len64(a[i])
		}
	}
	return 0
}

// bytes returns a as 32 big-endian bytes.
func (a Elem) bytes() (b [32]byte) {
	binary.BigEndian.PutUint64(b[0:], a[3])
	binary.BigEndian.PutUint64(b[8:], a[2])
	binary.BigEndian.PutUint64(b[16:], a[1])
	binary.BigEndian.PutUint64(b[24:], a[0])
	return b
}

// limbsFromBytes reads a big-endian magnitude of at most 32 bytes.  The
// result is an integer below 2^256, not necessarily canonical.
func limbsFromBytes(b []byte) Elem {
	var buf [32]byte
	copy(buf[32-len(b):], b)
	return Elem{
		binary.BigEndian.Uint64(buf[24:]),
		binary.BigEndian.Uint64(buf[16:]),
		binary.BigEndian.Uint64(buf[8:]),
		binary.BigEndian.Uint64(buf[0:]),
	}
}

// isCanonical reports whether the 256-bit integer x is below Q.
func (x Elem) isCanonical() bool {
	return x[3] < q3 || x[3] == q3 && (x[2]&x[1] != q1 || x[0] < q0)
}

// elemFromInt64 maps a signed machine integer into Z_Q.
func elemFromInt64(c int64) Elem {
	if c < 0 {
		return Elem{uint64(-c)}.Neg()
	}
	return Elem{uint64(c)}
}

// ElemFromBig maps a signed integer of any size into Z_Q.  Integers below
// 2^255 in magnitude — every share, opened value and protocol constant —
// take the allocation-free path.
func ElemFromBig(x *big.Int) Elem {
	if x.BitLen() > 255 {
		x = ToField(x)
	}
	var buf [32]byte
	x.FillBytes(buf[:]) // the magnitude
	e := reduceOnce(limbsFromBytes(buf[:]))
	if x.Sign() < 0 {
		return e.Neg()
	}
	return e
}

// Big returns a's canonical representative in [0, Q).
func (a Elem) Big() *big.Int {
	b := a.bytes()
	return new(big.Int).SetBytes(b[:])
}

func elemsToBig(xs []Elem) []*big.Int {
	out := make([]*big.Int, len(xs))
	for i, x := range xs {
		out[i] = x.Big()
	}
	return out
}
