// Package mpc implements the secret-sharing side of Pivot's hybrid
// framework: SPDZ-style additive secret sharing over a prime field with a
// trusted-dealer offline phase (the paper benchmarks the online phase of
// MP-SPDZ; see DESIGN.md "Substitutions").
//
// The package provides the secure computation primitives of §2.2 — addition,
// Beaver multiplication, comparison, division — plus the derived primitives
// the protocols need: truncation (Catrina–de Hoogh), bit decomposition,
// equality, argmax, fixed-point reciprocal/division (Goldschmidt/Newton),
// exponentiation, logarithm and softmax.  All primitives are vectorized;
// every element of a batch shares the same communication round.
//
// Parties are single-program-multiple-data: each compute party runs the same
// call sequence on its Engine, and the dealer party runs RunDealer.
package mpc

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
)

// Q is the field modulus 2^255 - 19 (prime).  It leaves ample headroom for
// the k + κ bit masked openings used by the comparison protocols.
var Q = func() *big.Int {
	q := new(big.Int).Lsh(big.NewInt(1), 255)
	return q.Sub(q, big.NewInt(19))
}()

// qHalf is Q/2, used for signed decoding.
var qHalf = new(big.Int).Rsh(Q, 1)

// Share is one party's additive share of a secret value in Z_Q, by value:
// copying a share copies the secret share.  In authenticated
// (malicious-secure) mode M holds the share of the SPDZ MAC α·value; in
// semi-honest mode M stays zero and is never read.
type Share struct {
	V, M Elem
}

// Signed interprets a field element as a signed integer in (-Q/2, Q/2].
func Signed(x *big.Int) *big.Int {
	out := new(big.Int).Set(x)
	if out.Cmp(qHalf) > 0 {
		out.Sub(out, Q)
	}
	return out
}

// ToField maps a signed integer into Z_Q.
func ToField(x *big.Int) *big.Int {
	return new(big.Int).Mod(x, Q)
}

// prg is a deterministic expandable randomness source used by the dealer and
// by public coin derivation.  SHA-256 in counter mode; plenty for a protocol
// simulation (see DESIGN.md).
type prg struct {
	key   [32]byte
	ctr   uint64
	buf   []byte // generated, not yet consumed; a window of store
	store []byte // backing array reused across refills
}

func newPRG(seed []byte) *prg {
	p := &prg{}
	p.key = sha256.Sum256(seed)
	return p
}

// read consumes the next n bytes of the stream.  The returned slice is only
// valid until the next read, and the caller may overwrite it.
func (p *prg) read(n int) []byte {
	if len(p.buf) < n {
		// Refill: the unconsumed tail moves to the front of the backing
		// array, so a steady stream of reads reuses one allocation.
		need := len(p.buf) + (n-len(p.buf)+31)/32*32
		if cap(p.store) < need {
			p.store = make([]byte, 0, 2*need)
		}
		p.buf = append(p.store[:0], p.buf...)
		for len(p.buf) < n {
			var blk [40]byte
			copy(blk[:32], p.key[:])
			binary.BigEndian.PutUint64(blk[32:], p.ctr)
			p.ctr++
			h := sha256.Sum256(blk[:])
			p.buf = append(p.buf, h[:]...)
		}
	}
	out := p.buf[:n]
	p.buf = p.buf[n:]
	return out
}

// fieldElem samples a uniform element of Z_Q: 64 stream bytes, read as a
// big-endian integer, reduced mod Q.  The modulo bias from reducing 512
// random bits is below 2^-250.
func (p *prg) fieldElem() Elem {
	b := p.read(64)
	var t [8]uint64
	for i := range t {
		t[7-i] = binary.BigEndian.Uint64(b[8*i:])
	}
	return reduce512(t)
}

// intnBytes samples a uniform integer in [0, 2^bits) — ⌈bits/8⌉ stream
// bytes, read big-endian and shifted right by the surplus bits — and returns
// its minimal big-endian magnitude (empty for zero), valid until the next
// read.
func (p *prg) intnBytes(bits uint) []byte {
	nbytes := int(bits+7) / 8
	b := p.read(nbytes)
	if rem := uint(nbytes*8) - bits; rem > 0 {
		for i := nbytes - 1; i > 0; i-- {
			b[i] = b[i]>>rem | b[i-1]<<(8-rem)
		}
		b[0] >>= rem
	}
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	return b
}

func (p *prg) bit() uint {
	return uint(p.read(1)[0] & 1)
}

// coinCoeffs expands a public seed into count field coefficients (used by
// the MAC check's random linear combination).
func coinCoeffs(seed []byte, count int) []Elem {
	g := newPRG(seed)
	out := make([]Elem, count)
	for i := range out {
		out[i] = g.fieldElem()
	}
	return out
}
