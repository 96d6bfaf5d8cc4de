package paillier

import (
	"fmt"
	"io"
	"math/big"
	"sync"
)

// Batch helpers.  Threshold decryption is the dominant cost of Pivot's MPC
// conversion step (§6: the O(cdbt) and O(nt) C_d terms), and the paper's
// "-PP" variants parallelize exactly this, reporting up to 2.7× lower
// training time.  Parallelism is a knob so benchmarks can report both the
// sequential and parallel variants.

// PartialDecryptVec computes this party's decryption share for every
// ciphertext, optionally in parallel across workers goroutines (workers <= 1
// means sequential).
func (k *PartialKey) PartialDecryptVec(pk *PublicKey, cs []*Ciphertext, workers int) []*DecryptionShare {
	out := make([]*DecryptionShare, len(cs))
	parallelFor(len(cs), workers, func(i int) {
		out[i] = k.PartialDecrypt(pk, cs[i])
	})
	return out
}

// CombineSharesVec combines per-ciphertext share vectors: sharesByParty[p][i]
// is party p's share for ciphertext i.
func (pk *PublicKey) CombineSharesVec(sharesByParty [][]*DecryptionShare, workers int) ([]*big.Int, error) {
	if len(sharesByParty) == 0 {
		return nil, nil
	}
	n := len(sharesByParty[0])
	out := make([]*big.Int, n)
	err := parallelForErr(n, workers, func(i int) (err error) {
		shares := make([]*DecryptionShare, len(sharesByParty))
		for p := range sharesByParty {
			shares[p] = sharesByParty[p][i]
		}
		out[i], err = pk.CombineShares(shares)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EncryptVec encrypts a vector of signed plaintexts.  With workers > 1 the
// randomness source must be safe for concurrent use: crypto/rand.Reader is,
// and the pooled path (which bypasses random — see Obfuscator) always is.
func (pk *PublicKey) EncryptVec(random io.Reader, xs []*big.Int, workers int) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(xs))
	err := parallelForErr(len(xs), workers, func(i int) (err error) {
		out[i], err = pk.Encrypt(random, xs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AddVec returns the elementwise homomorphic sum [a_i + b_i].
func (pk *PublicKey) AddVec(as, bs []*Ciphertext, workers int) []*Ciphertext {
	if len(as) != len(bs) {
		panic("paillier: AddVec length mismatch")
	}
	out := make([]*Ciphertext, len(as))
	parallelFor(len(as), workers, func(i int) {
		out[i] = pk.Add(as[i], bs[i])
	})
	return out
}

// subBlock is how many inverses SubVec takes from one ModInverse.
const subBlock = 64

// SubVec returns the elementwise homomorphic difference [a_i - b_i] =
// a_i·b_i⁻¹ mod N².  An inversion costs about ten modular products at the
// paper's key size, so a block of subBlock elements inverts once (Montgomery's
// trick): prefix products of the b_i, one ModInverse of the last, and a walk
// back that peels one b_i⁻¹ per step.  A block whose product has no inverse is
// redone with Sub, which panics on the offending element as Neg always has.
func (pk *PublicKey) SubVec(as, bs []*Ciphertext, workers int) []*Ciphertext {
	if len(as) != len(bs) {
		panic("paillier: SubVec length mismatch")
	}
	out := make([]*Ciphertext, len(as))
	r := pk.n2()
	parallelFor((len(as)+subBlock-1)/subBlock, workers, func(blk int) {
		lo, hi := blk*subBlock, (blk+1)*subBlock
		if hi > len(as) {
			hi = len(as)
		}
		s := r.pool.Get().(*scratch)
		defer r.pool.Put(s)
		prefix := make([]big.Int, hi-lo) // prefix[i] = b_lo ⋯ b_(lo+i)
		prefix[0].Set(bs[lo].C)
		for i := lo + 1; i < hi; i++ {
			r.mulMod(&prefix[i-lo], &prefix[i-lo-1], bs[i].C, s)
		}
		inv := new(big.Int).ModInverse(&prefix[hi-lo-1], pk.N2) // (b_lo ⋯ b_i)⁻¹, i walking down
		if inv == nil {
			for i := lo; i < hi; i++ {
				out[i] = pk.Sub(as[i], bs[i])
			}
			return
		}
		for i := hi - 1; i > lo; i-- {
			d := r.mulMod(new(big.Int), inv, &prefix[i-lo-1], s) // b_i⁻¹
			out[i] = &Ciphertext{C: r.mulMod(d, d, as[i].C, s)}
			r.mulMod(inv, inv, bs[i].C, s)
		}
		out[lo] = &Ciphertext{C: r.mulMod(inv, inv, as[lo].C, s)}
	})
	return out
}

// ScalarMulVec returns the elementwise [k_i · x_i] = c_i^{k_i}.  Entries
// with k_i ∈ {0, 1} skip the modular exponentiation, mirroring Dot: the
// indicator-style vectors that dominate Pivot's model update step make this
// the common case.
func (pk *PublicKey) ScalarMulVec(cs []*Ciphertext, ks []*big.Int, workers int) []*Ciphertext {
	if len(cs) != len(ks) {
		panic("paillier: ScalarMulVec length mismatch")
	}
	out := make([]*Ciphertext, len(cs))
	parallelFor(len(cs), workers, func(i int) {
		switch {
		case ks[i].Sign() == 0:
			out[i] = pk.ZeroDeterministic()
		case ks[i].Cmp(one) == 0:
			out[i] = cs[i]
		default:
			out[i] = pk.MulConst(cs[i], ks[i])
		}
	})
	return out
}

// DotVec computes one homomorphic dot product per (x, v) pair, in parallel
// across workers.
func (pk *PublicKey) DotVec(xss [][]*big.Int, vss [][]*Ciphertext, workers int) ([]*Ciphertext, error) {
	if len(xss) != len(vss) {
		return nil, fmt.Errorf("paillier: DotVec length mismatch %d vs %d", len(xss), len(vss))
	}
	out := make([]*Ciphertext, len(xss))
	err := parallelForErr(len(xss), workers, func(i int) (err error) {
		out[i], err = pk.Dot(xss[i], vss[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BucketProductsVec computes one BucketProducts pass per (cs, bucket, nb)
// triple, in parallel across workers.
func (pk *PublicKey) BucketProductsVec(css [][]*Ciphertext, buckets [][]int, nbs []int, workers int) ([][]*Ciphertext, error) {
	if len(css) != len(buckets) || len(css) != len(nbs) {
		return nil, fmt.Errorf("paillier: BucketProductsVec length mismatch %d/%d/%d", len(css), len(buckets), len(nbs))
	}
	out := make([][]*Ciphertext, len(css))
	err := parallelForErr(len(css), workers, func(i int) (err error) {
		out[i], err = pk.BucketProducts(css[i], buckets[i], nbs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RerandomizeVec rerandomizes every ciphertext (fresh obfuscators, pooled
// when a pool is attached).
func (pk *PublicKey) RerandomizeVec(random io.Reader, cs []*Ciphertext, workers int) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(cs))
	err := parallelForErr(len(cs), workers, func(i int) (err error) {
		out[i], err = pk.Rerandomize(random, cs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FoldAdd homomorphically sums a ciphertext vector.  Deterministic and
// sequential on purpose: every client must derive the identical ciphertext
// without communication.
func (pk *PublicKey) FoldAdd(cs []*Ciphertext) *Ciphertext {
	r := pk.n2()
	s := r.pool.Get().(*scratch)
	defer r.pool.Put(s)
	acc := new(big.Int).Set(cs[0].C)
	for _, c := range cs[1:] {
		r.mulMod(acc, acc, c.C, s)
	}
	return &Ciphertext{C: acc}
}

// MarshalCiphertexts flattens ciphertexts for the wire.
func MarshalCiphertexts(cs []*Ciphertext) []*big.Int {
	out := make([]*big.Int, len(cs))
	for i, c := range cs {
		out[i] = c.C
	}
	return out
}

// UnmarshalCiphertexts wraps wire integers back into ciphertexts.
func UnmarshalCiphertexts(xs []*big.Int) []*Ciphertext {
	out := make([]*Ciphertext, len(xs))
	for i, x := range xs {
		out[i] = &Ciphertext{C: x}
	}
	return out
}

// ErrBadCiphertext reports a value received as a ciphertext or decryption
// share that cannot be one under this key.
type ErrBadCiphertext struct {
	Index  int // position in the checked vector
	Reason string
}

func (e *ErrBadCiphertext) Error() string {
	return fmt.Sprintf("paillier: bad ciphertext at index %d: %s", e.Index, e.Reason)
}

// CheckCiphertexts validates ciphertexts received from a peer: 0 < c < N²
// and N ∤ c.  Zero and the multiples of N — which anyone can form without a
// factor of N — have no inverse, and Neg panics on them; a value beyond the
// modulus would be reduced silently and drag every later product through
// the reducer's slow path.
func (pk *PublicKey) CheckCiphertexts(cs []*Ciphertext) error {
	rem := new(big.Int)
	for i, c := range cs {
		if err := checkResidue(i, c.C, pk.N2); err != nil {
			return err
		}
		if rem.Mod(c.C, pk.N).Sign() == 0 {
			return &ErrBadCiphertext{Index: i, Reason: "multiple of N"}
		}
	}
	return nil
}

// CheckShares validates the range of decryption shares received from a
// peer: 0 < v < N².
func (pk *PublicKey) CheckShares(xs []*big.Int) error {
	for i, x := range xs {
		if err := checkResidue(i, x, pk.N2); err != nil {
			return err
		}
	}
	return nil
}

func checkResidue(i int, x, mod *big.Int) error {
	switch {
	case x == nil:
		return &ErrBadCiphertext{Index: i, Reason: "missing"}
	case x.Sign() <= 0:
		return &ErrBadCiphertext{Index: i, Reason: "not positive"}
	case x.Cmp(mod) >= 0:
		return &ErrBadCiphertext{Index: i, Reason: fmt.Sprintf("%d bits, beyond the %d-bit modulus", x.BitLen(), mod.BitLen())}
	}
	return nil
}

// MarshalShares flattens decryption shares (index order is positional).
func MarshalShares(ss []*DecryptionShare) []*big.Int {
	out := make([]*big.Int, len(ss))
	for i, s := range ss {
		out[i] = s.Value
	}
	return out
}

// UnmarshalShares reconstructs decryption shares for party index.
func UnmarshalShares(index int, xs []*big.Int) []*DecryptionShare {
	out := make([]*DecryptionShare, len(xs))
	for i, x := range xs {
		out[i] = &DecryptionShare{Index: index, Value: x}
	}
	return out
}

func parallelFor(n, workers int, body func(i int)) {
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	// Cap at the batch size but not at NumCPU: honoring the requested
	// fan-out keeps the "-PP" worker knob meaningful everywhere and lets
	// the race detector exercise the concurrent paths even on small hosts.
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// parallelForErr is parallelFor for a body that can fail: every index runs,
// and the first error reported is returned.
func parallelForErr(n, workers int, body func(i int) error) error {
	var mu sync.Mutex
	var first error
	parallelFor(n, workers, func(i int) {
		if err := body(i); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	})
	return first
}
