package paillier

import (
	"io"
	"math/big"
)

// Damgård–Jurik generalisation (Damgård–Jurik, PKC'01), encryption half
// only.  At level s the ciphertext group is Z*_{N^(s+1)} and the plaintext
// space Z_{N^s}; level 1 is exactly Paillier.  Every ciphertext the protocols
// send, add, pack or decrypt is level-1 Paillier, so nothing here decrypts:
// the encryption half stays only because the repository benchmark times a
// level-2 EncryptVec as one of its per-layer kernels.

// DJ is a level-s view of a public key.  Construct with PublicKey.DJ; the
// zero value is invalid.  It stays only because the benchmark times it.
type DJ struct {
	PK  *PublicKey
	S   int
	NS  *big.Int // N^s, the plaintext modulus
	NS1 *big.Int // N^(s+1), the ciphertext modulus

	red *reducer // mod-N^(s+1) multiplier (modmul.go)
}

// DJ returns the level-s view of the key.  It stays only because the
// benchmark times it.
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

// EncodeSigned maps a signed integer into Z_{N^s}.  It stays only because
// the benchmark times DJ encryption.
func (d *DJ) EncodeSigned(x *big.Int) *big.Int {
	v := new(big.Int).Mod(x, d.NS)
	if v.Sign() < 0 {
		v.Add(v, d.NS)
	}
	return v
}

// onePlusNExp computes (1+N)^m mod N^(s+1) by the binomial expansion
// Σ_{i=0..s} C(m,i)·N^i — every higher term vanishes mod N^(s+1).  This is
// polynomial in s where a generic modexp would be linear in |m| ≈ s·|N|.
// It stays only because the benchmark times DJ encryption.
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

// Encrypt encrypts a signed plaintext at level s:
// c = (1+N)^m · r^(N^s) mod N^(s+1).  It stays only because the benchmark
// times it.
func (d *DJ) Encrypt(random io.Reader, x *big.Int) (*Ciphertext, error) {
	m := d.EncodeSigned(x)
	r, err := d.PK.randomUnit(random)
	if err != nil {
		return nil, err
	}
	c := new(big.Int).Exp(r, d.NS, d.NS1)
	return &Ciphertext{C: d.red.mul(c, c, d.onePlusNExp(m))}, nil
}

// EncryptVec encrypts a vector at level s in parallel.  It stays only
// because the benchmark times it (paillier.dj2_encrypt_us).
func (d *DJ) EncryptVec(random io.Reader, xs []*big.Int, workers int) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(xs))
	err := parallelForErr(len(xs), workers, func(i int) (err error) {
		out[i], err = d.Encrypt(random, xs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
