package mpc

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// TestMulVecSigned exercises the lifted bounded-Beaver path on negative,
// positive and boundary operands, against plain integer products.
func TestMulVecSigned(t *testing.T) {
	const w = 20
	lim := int64(1) << w
	rng := rand.New(rand.NewSource(5))
	var av, bv []int64
	// Boundary cases first, then random signed values.
	for _, x := range []int64{0, 1, -1, lim - 1, -(lim - 1)} {
		for _, y := range []int64{0, 1, -1, lim - 1, -(lim - 1)} {
			av, bv = append(av, x), append(bv, y)
		}
	}
	for i := 0; i < 75; i++ {
		av = append(av, rng.Int63n(2*lim-1)-lim+1)
		bv = append(bv, rng.Int63n(2*lim-1)-lim+1)
	}
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		xs := make([]Share, len(av))
		ys := make([]Share, len(av))
		for i := range av {
			xs[i] = e.ConstInt64(av[i])
			ys[i] = e.ConstInt64(bv[i])
		}
		zs := e.MulVecSigned(xs, ys, w, w)
		for i, z := range zs {
			want := new(big.Int).Mul(big.NewInt(av[i]), big.NewInt(bv[i]))
			if got := e.OpenSigned(z); got.Cmp(want) != 0 {
				return fmt.Errorf("idx %d: %d·%d: got %v want %v", i, av[i], bv[i], got, want)
			}
		}
		return nil
	})
}

// TestMulVecSignedMatchesUniform pins the packed signed path to the uniform
// Beaver product MulVec computes on the same inputs, with and without MACs:
// packing changes what is opened, never the products, and an authenticated
// run's packed openings pass the MAC check.
func TestMulVecSignedMatchesUniform(t *testing.T) {
	for _, auth := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Authenticated = auth
		runParties(t, 3, cfg, func(e *Engine) error {
			const n = 64
			xs := make([]Share, n)
			ys := make([]Share, n)
			for i := range xs {
				xs[i] = e.ConstInt64(int64(i*37%1000 - 500))
				ys[i] = e.ConstInt64(int64(i*91%2000 - 1000))
			}
			got := e.OpenVec(e.MulVecSigned(xs, ys, 12, 12))
			want := e.OpenVec(e.MulVec(xs, ys))
			for i := range got {
				if got[i].Cmp(want[i]) != 0 {
					return fmt.Errorf("authenticated=%v idx %d: MulVecSigned %v, MulVec %v", auth, i, Signed(got[i]), Signed(want[i]))
				}
			}
			return e.CheckMACs()
		})
	}
}
