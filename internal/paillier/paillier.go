// Package paillier implements the Paillier partially homomorphic
// cryptosystem (Paillier, EUROCRYPT'99) and the full-threshold variant Pivot
// relies on (§2.1 of the paper): the public key is known to everyone, each
// client holds a partial secret key, and decryption requires a share from
// every client.
//
// The paper's implementation uses GMP + libhcs; this package is a
// from-scratch stdlib implementation on math/big.  Homomorphic operations
// follow the paper's notation:
//
//	Add        [x1] ⊕ [x2]  = [x1 + x2]
//	MulConst   x1  ⊗ [x2]   = [x1 · x2]
//	Dot        x   ⊙ [v]    = [x · v]
//
// Plaintexts live in Z_N with signed encoding: a negative value -x is
// represented as N - x, and DecodeSigned maps back.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
)

var one = big.NewInt(1)

// PublicKey is a Paillier public key with generator g = N + 1.
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // N^2, cached

	// pool, when attached via EnablePool, serves precomputed encryption
	// obfuscators (see pool.go).  Keys are shared by reference across
	// parties, so one pool serves a whole session.
	pool atomic.Pointer[Pool]

	// red is the mod-N² multiplier (modmul.go), built on first use because
	// keys are also assembled as literals from wire material.
	red atomic.Pointer[reducer]
}

// n2 returns the key's mod-N² multiplier.
func (pk *PublicKey) n2() *reducer {
	if r := pk.red.Load(); r != nil {
		return r
	}
	pk.red.CompareAndSwap(nil, newReducer(pk.N2))
	return pk.red.Load()
}

// SecretKey is the non-threshold secret key (λ, μ).  It is produced by
// KeyGen for testing and for the non-threshold baselines; the Pivot
// protocols themselves only ever use PartialKeys.
type SecretKey struct {
	Lambda *big.Int
	Mu     *big.Int
}

// PartialKey is one client's share of the threshold decryption exponent.
// The dealer computes d with d ≡ 0 (mod λ) and d ≡ 1 (mod N) and splits it
// additively over the integers with statistical masking, so a share may be
// negative.
type PartialKey struct {
	Index  int
	DShare *big.Int
}

// Ciphertext is an element of Z_{N^2}.  The zero value is invalid.
type Ciphertext struct {
	C *big.Int
}

// KeyGen generates an n-bit modulus and both the plain secret key and m
// full-threshold partial keys.  The paper assumes a distributed key
// generation ceremony; a trusted-dealer split is used here (see DESIGN.md,
// "Substitutions") — the online protocols are unaffected.
func KeyGen(random io.Reader, bits, parties int) (*PublicKey, *SecretKey, []*PartialKey, error) {
	if bits < 128 {
		return nil, nil, nil, errors.New("paillier: key size below 128 bits")
	}
	if parties < 1 {
		return nil, nil, nil, errors.New("paillier: need at least one party")
	}
	var p, q *big.Int
	var err error
	for {
		p, err = rand.Prime(random, bits/2)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("paillier: prime generation: %w", err)
		}
		q, err = rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("paillier: prime generation: %w", err)
		}
		if p.Cmp(q) != 0 {
			break
		}
	}
	n := new(big.Int).Mul(p, q)
	pk := &PublicKey{N: n, N2: new(big.Int).Mul(n, n)}

	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	lambda := new(big.Int).Div(new(big.Int).Mul(pm1, qm1), new(big.Int).GCD(nil, nil, pm1, qm1))

	// μ = (L(g^λ mod N²))⁻¹ mod N, with g = N+1 so L(g^λ) = λ mod N.
	mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, n), n)
	if mu == nil {
		return nil, nil, nil, errors.New("paillier: gcd(λ, N) != 1, retry keygen")
	}
	sk := &SecretKey{Lambda: lambda, Mu: mu}

	// Threshold exponent d: d ≡ 0 (mod λ), d ≡ 1 (mod N) by CRT.
	// gcd(λ, N) = 1 for RSA moduli, so the inverse exists.
	lambdaInv := new(big.Int).ModInverse(lambda, n)
	if lambdaInv == nil {
		return nil, nil, nil, errors.New("paillier: λ not invertible mod N")
	}
	d := new(big.Int).Mul(lambda, lambdaInv) // ≡ 0 mod λ, ≡ 1 mod N

	// Additive split over the integers with 80 bits of statistical masking.
	bound := new(big.Int).Lsh(one, uint(d.BitLen()+80))
	shares := make([]*PartialKey, parties)
	rest := new(big.Int).Set(d)
	for i := 0; i < parties-1; i++ {
		r, err := rand.Int(random, bound)
		if err != nil {
			return nil, nil, nil, err
		}
		shares[i] = &PartialKey{Index: i, DShare: r}
		rest.Sub(rest, r)
	}
	shares[parties-1] = &PartialKey{Index: parties - 1, DShare: rest}
	return pk, sk, shares, nil
}

// randomUnit returns a uniformly random element of Z_N^*.
func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Obfuscator returns a fresh (r, r^N mod N²) pair for encryption: from the
// attached pool when one is enabled, otherwise by drawing r from random and
// exponentiating.  The zero-knowledge proofs in internal/zkp use it for
// their commitment randomness too.
//
// NOTE: an attached pool sources its randomness from crypto/rand at
// generation time, so with a pool enabled the supplied reader is NOT
// consulted (this also applies to Encrypt, EncryptWithNonce, Rerandomize
// and the vector APIs).  Callers needing a specific randomness source must
// not attach a pool to the key.
func (pk *PublicKey) Obfuscator(random io.Reader) (*big.Int, *big.Int, error) {
	if p := pk.pool.Load(); p != nil {
		return p.Obfuscator()
	}
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, nil, err
	}
	return r, new(big.Int).Exp(r, pk.N, pk.N2), nil
}

// obfuscator returns r^N mod N² alone, which is all that Encrypt,
// Rerandomize and the vector APIs consume: a pooled pair then costs one
// table walk, the nonce r being derived only for callers of Obfuscator.
func (pk *PublicKey) obfuscator(random io.Reader) (*big.Int, error) {
	if p := pk.pool.Load(); p != nil {
		o, err := p.take()
		return o.rn, err
	}
	_, rn, err := pk.Obfuscator(random)
	return rn, err
}

// onePlusNExp returns (1+N)^m = 1 + mN for m in Z_N (DJ.onePlusNExp at
// level 1); the value is below N² without a reduction.
func (pk *PublicKey) onePlusNExp(m *big.Int) *big.Int {
	gm := new(big.Int).Mul(m, pk.N)
	return gm.Add(gm, one)
}

// EncodeSigned maps a signed integer into Z_N.
func (pk *PublicKey) EncodeSigned(x *big.Int) *big.Int {
	v := new(big.Int).Mod(x, pk.N)
	if v.Sign() < 0 {
		v.Add(v, pk.N)
	}
	return v
}

// DecodeSigned maps an element of Z_N back to a signed integer, treating
// values above N/2 as negative.
func (pk *PublicKey) DecodeSigned(x *big.Int) *big.Int {
	half := new(big.Int).Rsh(pk.N, 1)
	out := new(big.Int).Set(x)
	if out.Cmp(half) > 0 {
		out.Sub(out, pk.N)
	}
	return out
}

// Encrypt encrypts a signed plaintext.
func (pk *PublicKey) Encrypt(random io.Reader, x *big.Int) (*Ciphertext, error) {
	rn, err := pk.obfuscator(random)
	if err != nil {
		return nil, err
	}
	c := pk.onePlusNExp(pk.EncodeSigned(x))
	return &Ciphertext{C: pk.n2().mul(c, c, rn)}, nil
}

// EncryptWithNonce encrypts x and also returns the randomness r, which the
// zero-knowledge proofs in internal/zkp need as part of the witness.
// The ciphertext is (1+N)^x · r^N mod N², computed as (1 + xN) · r^N.
func (pk *PublicKey) EncryptWithNonce(random io.Reader, x *big.Int) (*Ciphertext, *big.Int, error) {
	r, rn, err := pk.Obfuscator(random)
	if err != nil {
		return nil, nil, err
	}
	c := pk.onePlusNExp(pk.EncodeSigned(x))
	return &Ciphertext{C: pk.n2().mul(c, c, rn)}, r, nil
}

// EncryptInt64 is a convenience wrapper over Encrypt.
func (pk *PublicKey) EncryptInt64(random io.Reader, x int64) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(x))
}

// Decrypt recovers the signed plaintext with the non-threshold key.
func (sk *SecretKey) Decrypt(pk *PublicKey, c *Ciphertext) *big.Int {
	u := new(big.Int).Exp(c.C, sk.Lambda, pk.N2)
	m := lFunc(u, pk.N)
	m.Mul(m, sk.Mu)
	m.Mod(m, pk.N)
	return pk.DecodeSigned(m)
}

// lFunc is L(u) = (u - 1) / N.
func lFunc(u, n *big.Int) *big.Int {
	t := new(big.Int).Sub(u, one)
	return t.Div(t, n)
}

// DecryptionShare is one client's contribution to a threshold decryption.
type DecryptionShare struct {
	Index int
	Value *big.Int // c^{d_i} mod N²
}

// PartialDecrypt computes this client's decryption share c^{d_i} mod N².
func (k *PartialKey) PartialDecrypt(pk *PublicKey, c *Ciphertext) *DecryptionShare {
	return &DecryptionShare{Index: k.Index, Value: expSigned(c.C, k.DShare, pk.N2)}
}

// expSigned computes base^e mod m for a possibly negative exponent.
func expSigned(base, e, m *big.Int) *big.Int {
	if e.Sign() >= 0 {
		return new(big.Int).Exp(base, e, m)
	}
	inv := new(big.Int).ModInverse(base, m)
	if inv == nil {
		panic("paillier: ciphertext not invertible")
	}
	return inv.Exp(inv, new(big.Int).Neg(e), m)
}

// CombineShares combines decryption shares from all parties into the signed
// plaintext.  With the full-threshold structure every share is required.
func (pk *PublicKey) CombineShares(shares []*DecryptionShare) (*big.Int, error) {
	if len(shares) == 0 {
		return nil, errors.New("paillier: no decryption shares")
	}
	r := pk.n2()
	u := new(big.Int).Set(shares[0].Value)
	for _, s := range shares[1:] {
		r.mul(u, u, s.Value)
	}
	// u = c^d = (1+N)^x, so x = L(u).
	m := lFunc(u, pk.N)
	m.Mod(m, pk.N)
	return pk.DecodeSigned(m), nil
}

// Add returns [x1 + x2] = c1 · c2 mod N².
func (pk *PublicKey) Add(c1, c2 *Ciphertext) *Ciphertext {
	return &Ciphertext{C: pk.n2().mul(new(big.Int), c1.C, c2.C)}
}

// Sub returns [x1 - x2].
func (pk *PublicKey) Sub(c1, c2 *Ciphertext) *Ciphertext {
	return pk.Add(c1, pk.Neg(c2))
}

// Neg returns [-x] = c^{-1} mod N².
func (pk *PublicKey) Neg(c *Ciphertext) *Ciphertext {
	inv := new(big.Int).ModInverse(c.C, pk.N2)
	if inv == nil {
		panic("paillier: ciphertext not invertible")
	}
	return &Ciphertext{C: inv}
}

// MulConst returns [k · x] = c^k mod N² for a signed constant k.
func (pk *PublicKey) MulConst(c *Ciphertext, k *big.Int) *Ciphertext {
	return &Ciphertext{C: expSigned(c.C, k, pk.N2)}
}

// AddPlain returns [x + k] for a signed constant k.
func (pk *PublicKey) AddPlain(c *Ciphertext, k *big.Int) *Ciphertext {
	gm := pk.onePlusNExp(pk.EncodeSigned(k))
	return &Ciphertext{C: pk.n2().mul(gm, gm, c.C)}
}

// Dot returns [x · v] = Π v_i^{x_i} for a plaintext vector x and ciphertext
// vector v (the homomorphic dot product ⊙ of §2.1).  Entries of x equal to
// 0 or 1 are handled without modular exponentiation, which makes the
// indicator-vector dot products that dominate Pivot's local computation step
// cheap.
func (pk *PublicKey) Dot(x []*big.Int, v []*Ciphertext) (*Ciphertext, error) {
	if len(x) != len(v) {
		return nil, fmt.Errorf("paillier: dot length mismatch %d vs %d", len(x), len(v))
	}
	return &Ciphertext{C: pk.n2().dot(x, v)}, nil
}

// dot returns Π v_i^{x_i} mod m, skipping the exponentiation for entries of
// x equal to 0 or 1.  An empty product is 1: Enc(0) with r = 1, which callers
// rerandomize where it must hide anything.
func (r *reducer) dot(x []*big.Int, v []*Ciphertext) *big.Int {
	s := r.pool.Get().(*scratch)
	defer r.pool.Put(s)
	acc := r.unit()
	for i, xi := range x {
		switch {
		case xi.Sign() == 0:
			continue
		case xi.Cmp(one) == 0:
			r.mulMod(acc, acc, v[i].C, s)
		default:
			r.mulMod(acc, acc, expSigned(v[i].C, xi, r.m), s)
		}
	}
	return acc
}

// BucketProducts partitions one ciphertext vector by bucket[t] in [0, nb) and
// returns the nb per-bucket products Π_{bucket[t]=b} cs[t] in a single pass
// (1 for an empty bucket).  Split statistics are built from it: a feature's
// ascending thresholds put every sample in exactly one bucket, so all of the
// feature's left and right sums are prefix and suffix sums over the buckets
// instead of one Dot over every sample per candidate split.
func (pk *PublicKey) BucketProducts(cs []*Ciphertext, bucket []int, nb int) ([]*Ciphertext, error) {
	if len(cs) != len(bucket) {
		return nil, fmt.Errorf("paillier: bucket length mismatch %d vs %d", len(bucket), len(cs))
	}
	r := pk.n2()
	s := r.pool.Get().(*scratch)
	defer r.pool.Put(s)
	out := make([]*Ciphertext, nb)
	for b := range out {
		out[b] = &Ciphertext{C: r.unit()}
	}
	for t, c := range cs {
		b := bucket[t]
		if b < 0 || b >= nb {
			return nil, fmt.Errorf("paillier: bucket %d of sample %d outside [0,%d)", b, t, nb)
		}
		r.mulMod(out[b].C, out[b].C, c.C, s)
	}
	return out, nil
}

// Rerandomize multiplies c by a fresh encryption of zero.
func (pk *PublicKey) Rerandomize(random io.Reader, c *Ciphertext) (*Ciphertext, error) {
	rn, err := pk.obfuscator(random)
	if err != nil {
		return nil, err
	}
	// A pooled rn is consumed exactly once, so it doubles as the result.
	return &Ciphertext{C: pk.n2().mul(rn, rn, c.C)}, nil
}

// EncryptZero returns a fresh encryption of 0.
func (pk *PublicKey) EncryptZero(random io.Reader) (*Ciphertext, error) {
	return pk.Encrypt(random, big.NewInt(0))
}

// ZeroDeterministic returns the trivial encryption of 0 (unit randomness:
// c = g⁰·1^N = 1).  It carries no hiding at all — use it only where every
// party must derive the same ciphertext locally without communication.
func (pk *PublicKey) ZeroDeterministic() *Ciphertext {
	return &Ciphertext{C: big.NewInt(1)}
}

// EncryptPublic returns the trivial encryption of a public x (unit
// randomness: c = (1+N)^x = 1 + xN).  Like ZeroDeterministic it hides
// nothing — anyone reads x as (c−1)/N — so every party can derive the same
// ciphertext locally, and CheckCiphertexts refuses it on receive: whatever
// is sent from it must be rerandomized first.
func (pk *PublicKey) EncryptPublic(x *big.Int) *Ciphertext {
	return &Ciphertext{C: pk.onePlusNExp(pk.EncodeSigned(x))}
}

// Clone returns a deep copy of the ciphertext.
func (c *Ciphertext) Clone() *Ciphertext {
	return &Ciphertext{C: new(big.Int).Set(c.C)}
}
