package paillier

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Damgård–Jurik generalisation (Damgård–Jurik, PKC'01).  At level s the
// ciphertext group is Z*_{N^(s+1)} and the plaintext space Z_{N^s}, so one
// encryption — one wire frame, one obfuscator exponentiation — carries s·|N|
// bits of payload instead of |N|.  Level 1 is exactly Paillier, and the same
// modulus serves every level.  The packing layer (pack.go) selects s > 1
// when fresh packed encryptions need more slots than Z_N can hold; a level-1
// ciphertext cannot be lifted to a higher level after the fact (raising it
// into Z*_{N^(s+1)} multiplies the plaintext by N^(s-1), spending exactly
// the capacity gained), so conversions over existing level-1 ciphertexts
// pack within Z_N instead.

// MaxDJLevel is the highest level for which KeyGen prepares threshold
// decryption exponents.  Non-threshold decryption works at any level.
const MaxDJLevel = 3

// DJ is a level-s view of a public key.  Construct with PublicKey.DJ; the
// zero value is invalid.
type DJ struct {
	PK  *PublicKey
	S   int
	NS  *big.Int // N^s, the plaintext modulus
	NS1 *big.Int // N^(s+1), the ciphertext modulus

	red *reducer // mod-N^(s+1) multiplier (modmul.go)
}

// DJ returns the level-s view of the key.  Level 1 operations are identical
// to the plain PublicKey methods (but skip the obfuscator pool, whose tables
// are N²-specific).
func (pk *PublicKey) DJ(s int) *DJ {
	if s < 1 {
		panic("paillier: DJ level must be >= 1")
	}
	ns := new(big.Int).Set(pk.N)
	for i := 1; i < s; i++ {
		ns.Mul(ns, pk.N)
	}
	ns1 := new(big.Int).Mul(ns, pk.N)
	return &DJ{PK: pk, S: s, NS: ns, NS1: ns1, red: newReducer(ns1)}
}

// Capacity returns the usable signed plaintext width in bits: packed totals
// must stay below N^s/2 so the signed decode cannot flip them negative.
func (d *DJ) Capacity() uint {
	return uint(d.NS.BitLen() - 2)
}

// EncodeSigned maps a signed integer into Z_{N^s}.
func (d *DJ) EncodeSigned(x *big.Int) *big.Int {
	v := new(big.Int).Mod(x, d.NS)
	if v.Sign() < 0 {
		v.Add(v, d.NS)
	}
	return v
}

// DecodeSigned maps an element of Z_{N^s} back to a signed integer.
func (d *DJ) DecodeSigned(x *big.Int) *big.Int {
	half := new(big.Int).Rsh(d.NS, 1)
	out := new(big.Int).Set(x)
	if out.Cmp(half) > 0 {
		out.Sub(out, d.NS)
	}
	return out
}

// onePlusNExp computes (1+N)^m mod N^(s+1) by the binomial expansion
// Σ_{i=0..s} C(m,i)·N^i — every higher term vanishes mod N^(s+1).  This is
// polynomial in s where a generic modexp would be linear in |m| ≈ s·|N|.
func (d *DJ) onePlusNExp(m *big.Int) *big.Int {
	out := big.NewInt(1)
	term := big.NewInt(1) // running Π_{t<i}(m-t) · inv(i!) · N^i mod N^(s+1)
	fact := big.NewInt(1)
	npow := big.NewInt(1)
	tmp := new(big.Int)
	t := new(big.Int)
	s := d.red.pool.Get().(*scratch)
	defer d.red.pool.Put(s)
	for i := 1; i <= d.S; i++ {
		tmp.Sub(m, big.NewInt(int64(i-1))) // negative for m < i-1: mulMod reduces it
		d.red.mulMod(term, term, tmp, s)
		fact.Mul(fact, big.NewInt(int64(i)))
		npow.Mul(npow, d.PK.N)
		inv := new(big.Int).ModInverse(fact, d.NS1)
		d.red.mulMod(t, term, inv, s)
		d.red.mulMod(t, t, npow, s)
		if out.Add(out, t).Cmp(d.NS1) >= 0 {
			out.Sub(out, d.NS1)
		}
	}
	return out
}

// decode recovers m from u = (1+N)^m mod N^(s+1) with the iterative
// algorithm of the Damgård–Jurik paper (§3): peel m mod N^j off level by
// level, subtracting the binomial tail with precomputable k!⁻¹ factors.
func (d *DJ) decode(u *big.Int) *big.Int {
	n := d.PK.N
	i := new(big.Int)
	nj := new(big.Int).Set(n) // N^j
	for j := 1; j <= d.S; j++ {
		nj1 := new(big.Int).Mul(nj, n) // N^(j+1)
		t1 := lFunc(new(big.Int).Mod(u, nj1), n)
		t1.Mod(t1, nj)
		t2 := new(big.Int).Set(i)
		ik := new(big.Int).Set(i)
		npow := big.NewInt(1)
		fact := big.NewInt(1)
		for k := 2; k <= j; k++ {
			ik.Sub(ik, one)
			t2.Mul(t2, ik)
			t2.Mod(t2, nj)
			npow.Mul(npow, n)
			fact.Mul(fact, big.NewInt(int64(k)))
			inv := new(big.Int).ModInverse(fact, nj)
			sub := new(big.Int).Mul(t2, npow)
			sub.Mod(sub, nj)
			sub.Mul(sub, inv)
			sub.Mod(sub, nj)
			t1.Sub(t1, sub)
			t1.Mod(t1, nj)
		}
		i.Set(t1)
		nj = nj1
	}
	return i
}

// Encrypt encrypts a signed plaintext at level s:
// c = (1+N)^m · r^(N^s) mod N^(s+1).
func (d *DJ) Encrypt(random io.Reader, x *big.Int) (*Ciphertext, error) {
	m := d.EncodeSigned(x)
	r, err := d.PK.randomUnit(random)
	if err != nil {
		return nil, err
	}
	c := new(big.Int).Exp(r, d.NS, d.NS1)
	return &Ciphertext{C: d.red.mul(c, c, d.onePlusNExp(m))}, nil
}

// Decrypt recovers the signed plaintext with the non-threshold key:
// c^λ = (1+N)^(mλ), decode, multiply by λ⁻¹ mod N^s.
func (d *DJ) Decrypt(sk *SecretKey, c *Ciphertext) *big.Int {
	u := new(big.Int).Exp(c.C, sk.Lambda, d.NS1)
	m := d.decode(u)
	inv := new(big.Int).ModInverse(sk.Lambda, d.NS)
	m.Mul(m, inv)
	m.Mod(m, d.NS)
	return d.DecodeSigned(m)
}

// PartialDecrypt computes this party's share c^(d_s,i) mod N^(s+1), where
// d_s ≡ 0 (mod λ), ≡ 1 (mod N^s) is the level-s threshold exponent dealt by
// KeyGen.
func (d *DJ) PartialDecrypt(k *PartialKey, c *Ciphertext) (*DecryptionShare, error) {
	ds, err := k.djShare(d.S)
	if err != nil {
		return nil, err
	}
	return &DecryptionShare{Index: k.Index, Value: expSigned(c.C, ds, d.NS1)}, nil
}

// CombineShares combines level-s decryption shares: Π shares = c^(d_s) =
// (1+N)^m, decoded iteratively.
func (d *DJ) CombineShares(shares []*DecryptionShare) (*big.Int, error) {
	if len(shares) == 0 {
		return nil, errors.New("paillier: no decryption shares")
	}
	u := new(big.Int).Set(shares[0].Value)
	for _, s := range shares[1:] {
		d.red.mul(u, u, s.Value)
	}
	m := d.decode(u)
	return d.DecodeSigned(m), nil
}

// Add returns [x1 + x2] at level s.
func (d *DJ) Add(c1, c2 *Ciphertext) *Ciphertext {
	return &Ciphertext{C: d.red.mul(new(big.Int), c1.C, c2.C)}
}

// MulConst returns [k·x] at level s for a signed constant k.
func (d *DJ) MulConst(c *Ciphertext, k *big.Int) *Ciphertext {
	return &Ciphertext{C: expSigned(c.C, k, d.NS1)}
}

// AddPlain returns [x + k] at level s for a signed constant k.
func (d *DJ) AddPlain(c *Ciphertext, k *big.Int) *Ciphertext {
	gm := d.onePlusNExp(d.EncodeSigned(k))
	return &Ciphertext{C: d.red.mul(gm, gm, c.C)}
}

// EncryptVec encrypts a vector at level s in parallel.
func (d *DJ) EncryptVec(random io.Reader, xs []*big.Int, workers int) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(xs))
	var firstErr error
	parallelFor(len(xs), workers, func(i int) {
		ct, err := d.Encrypt(random, xs[i])
		if err != nil {
			firstErr = err
			return
		}
		out[i] = ct
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// PartialDecryptVec computes this party's decryption shares for a vector of
// level-s ciphertexts in parallel.
func (d *DJ) PartialDecryptVec(k *PartialKey, cs []*Ciphertext, workers int) ([]*DecryptionShare, error) {
	if _, err := k.djShare(d.S); err != nil {
		return nil, err
	}
	out := make([]*DecryptionShare, len(cs))
	parallelFor(len(cs), workers, func(i int) {
		out[i], _ = d.PartialDecrypt(k, cs[i])
	})
	return out, nil
}

// CombineSharesVec combines, per ciphertext, one decryption share from every
// party: shares[p][i] is party p's share of ciphertext i.  The share
// products and iterative decodes run in parallel.
func (d *DJ) CombineSharesVec(shares [][]*DecryptionShare, workers int) ([]*big.Int, error) {
	if len(shares) == 0 {
		return nil, errors.New("paillier: no decryption shares")
	}
	count := len(shares[0])
	for _, row := range shares {
		if len(row) != count {
			return nil, errors.New("paillier: ragged decryption share matrix")
		}
	}
	out := make([]*big.Int, count)
	var firstErr error
	parallelFor(count, workers, func(i int) {
		col := make([]*DecryptionShare, len(shares))
		for p := range shares {
			col[p] = shares[p][i]
		}
		v, err := d.CombineShares(col)
		if err != nil {
			firstErr = err
			return
		}
		out[i] = v
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// AddVec adds two ciphertext vectors slot-wise at level s: ciphertext
// addition adds every packed slot in parallel (no cross-slot carries while
// the caller's headroom bound holds).
func (d *DJ) AddVec(as, bs []*Ciphertext, workers int) ([]*Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("paillier: AddVec length mismatch %d vs %d", len(as), len(bs))
	}
	out := make([]*Ciphertext, len(as))
	parallelFor(len(as), workers, func(i int) {
		out[i] = d.Add(as[i], bs[i])
	})
	return out, nil
}

// ScalarMulVec multiplies every ciphertext — hence every packed slot — by
// the same signed constant.  Slots must retain log2(k) bits of headroom.
func (d *DJ) ScalarMulVec(cs []*Ciphertext, k *big.Int, workers int) []*Ciphertext {
	out := make([]*Ciphertext, len(cs))
	parallelFor(len(cs), workers, func(i int) {
		out[i] = d.MulConst(cs[i], k)
	})
	return out
}

// DotVec computes the homomorphic dot product Π v_i^(x_i) at level s; over
// packed ciphertexts this is a slot-wise dot product of the groups.  Entries
// of x equal to 0 or 1 skip the exponentiation, as in PublicKey.Dot.
func (d *DJ) DotVec(x []*big.Int, v []*Ciphertext) (*Ciphertext, error) {
	if len(x) != len(v) {
		return nil, fmt.Errorf("paillier: dot length mismatch %d vs %d", len(x), len(v))
	}
	return &Ciphertext{C: d.red.dot(x, v)}, nil
}

// djShare returns this party's additive share of the level-s threshold
// exponent d_s.
func (k *PartialKey) djShare(s int) (*big.Int, error) {
	if s == 1 {
		return k.DShare, nil
	}
	if s < 2 || s > MaxDJLevel || len(k.DJShares) < s-1 {
		return nil, fmt.Errorf("paillier: no threshold exponent for DJ level %d (max %d)", s, MaxDJLevel)
	}
	return k.DJShares[s-2], nil
}
