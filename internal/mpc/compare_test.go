package mpc

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// bitLTPubLinear is the oracle for bitLTPub: the Catrina–de Hoogh ladder as
// a prefix scan from the MSB, one multiplication round per bit, which the
// carry tree replaced.
func (e *Engine) bitLTPubLinear(cs []Elem, rbits [][]Share, width uint) []Share {
	count := len(cs)
	// prefix[t] = product (from the MSB) of XNOR(c_i, r_i); acc accumulates
	// r_i·(1-c_i)·prefix_{i+1}.
	one := e.ConstInt64(1)
	prefix := make([]Share, count)
	acc := make([]Share, count)
	for t := range prefix {
		prefix[t] = one
	}
	xs := make([]Share, 2*count)
	ys := make([]Share, 2*count)
	for i := int(width) - 1; i >= 0; i-- {
		for t := 0; t < count; t++ {
			rb := rbits[t][i]
			xnor := rb
			if cs[t].Bit(i) == 0 {
				xnor = e.Sub(one, rb)
			}
			xs[2*t], xs[2*t+1] = prefix[t], prefix[t]
			ys[2*t], ys[2*t+1] = xnor, rb
		}
		prods := e.mulVecBits(xs, ys)
		for t := 0; t < count; t++ {
			if cs[t].Bit(i) == 0 {
				acc[t] = e.Add(acc[t], prods[2*t+1])
			}
			prefix[t] = prods[2*t]
		}
	}
	return acc
}

// checkLadder runs the tree and the linear ladder on the instances (cs[t],
// rs[t]) of the given width and compares both opened bits with the plain
// integer comparison.  It also pins the tree's depth: ⌈log₂ width⌉
// multiplication rounds.
func checkLadder(e *Engine, width uint, cs, rs []uint64) error {
	elems := make([]Elem, len(cs))
	rbits := make([][]Share, len(cs))
	for t := range cs {
		elems[t] = Elem{cs[t]}
		rbits[t] = make([]Share, width)
		for i := range rbits[t] {
			rbits[t][i] = e.ConstInt64(int64(rs[t] >> i & 1))
		}
	}
	before := e.Stats.Rounds
	tree := e.bitLTPub(elems, rbits, width)
	if got, want := e.Stats.Rounds-before, int64(bits.Len(width-1)); got != want {
		return fmt.Errorf("width %d: tree ran %d rounds, want %d", width, got, want)
	}
	treeBits := e.openElems(tree)
	linBits := e.openElems(e.bitLTPubLinear(elems, rbits, width))
	for t := range cs {
		var want Elem
		if cs[t] < rs[t] {
			want = Elem{1}
		}
		if treeBits[t] != want || linBits[t] != want {
			return fmt.Errorf("width %d: c=%#x r=%#x: tree %v, linear ladder %v, want %v",
				width, cs[t], rs[t], treeBits[t], linBits[t], want)
		}
	}
	return nil
}

// TestBitLTPubExhaustive compares the carry tree with c < r and with the
// linear ladder on every (c, r) pair of widths 1…6.
func TestBitLTPubExhaustive(t *testing.T) {
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		for width := uint(1); width <= 6; width++ {
			var cs, rs []uint64
			for c := uint64(0); c < 1<<width; c++ {
				for r := uint64(0); r < 1<<width; r++ {
					cs, rs = append(cs, c), append(rs, r)
				}
			}
			if err := checkLadder(e, width, cs, rs); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestBitLTPubProperty covers every width 1…64 — odd widths, whose top node
// climbs the tree unpaired, included — on the boundary operands and on
// per-instance random ones.
func TestBitLTPubProperty(t *testing.T) {
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		rng := rand.New(rand.NewPCG(22, 7)) // same stream at every party
		for width := uint(1); width <= 64; width++ {
			top := ^uint64(0) >> (64 - width) // 2^width − 1
			var cs, rs []uint64
			add := func(c, r uint64) { cs, rs = append(cs, c&top), append(rs, r&top) }
			for i := 0; i < 8; i++ {
				c, r := rng.Uint64()&top, rng.Uint64()&top
				add(0, r)
				add(top, r)
				add(c, c)
				if c < top {
					add(c, c+1)
				}
				if c > 0 {
					add(c, c-1)
				}
				add(c, r)
				// Agreement on a long high prefix, difference at one low bit.
				add(c, c^(1<<(uint(i)%width)))
			}
			add(0, 0)
			add(top, top)
			add(0, top)
			add(top, 0)
			if err := checkLadder(e, width, cs, rs); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestLaddersOnSignedEdges: the primitives built on the ladder at the ends
// of the signed range they accept.
func TestLaddersOnSignedEdges(t *testing.T) {
	runParties(t, 3, DefaultConfig(), func(e *Engine) error {
		for _, k := range []uint{9, 32, 38, 61} {
			lim := int64(1) << (k - 1)
			vals := []int64{0, -1, 1, lim - 1, -(lim - 1), lim / 2, -lim / 2}
			shares := make([]Share, len(vals))
			for i, v := range vals {
				shares[i] = e.ConstInt64(v)
			}
			for _, m := range []uint{1, 2, 7, k - 1} {
				mods := e.openElems(e.Mod2mVec(shares, k, m))
				truncs := e.TruncVec(shares, k, m)
				for i, v := range vals {
					if want := elemFromInt64(v & (1<<m - 1)); mods[i] != want {
						return fmt.Errorf("Mod2m(%d, k=%d, m=%d) = %v, want %v", v, k, m, mods[i], want)
					}
					if got := e.OpenSigned(truncs[i]).Int64(); got != v>>m {
						return fmt.Errorf("Trunc(%d, k=%d, m=%d) = %d, want %d", v, k, m, got, v>>m)
					}
				}
			}
			ltz := e.openElems(e.LTZVec(shares, k))
			eqz := e.openElems(e.EQZVecGrouped(shares, uniformWidths(len(shares), k)))
			for i, v := range vals {
				if want := (Elem{uint64(v>>63) & 1}); ltz[i] != want {
					return fmt.Errorf("LTZ(%d, k=%d) = %v", v, k, ltz[i])
				}
				var zero Elem
				if v == 0 {
					zero = Elem{1}
				}
				if eqz[i] != zero {
					return fmt.Errorf("EQZ(%d, k=%d) = %v", v, k, eqz[i])
				}
			}
		}
		return nil
	})
}

// TestLadderRoundDepth pins the sequential rounds of the primitives the
// protocols are latency-bound on, so a slide back to one round per bit fails
// on a count, not on a timing.
func TestLadderRoundDepth(t *testing.T) {
	log2 := func(x uint) int64 { return int64(bits.Len(x - 1)) } // ⌈log₂ x⌉
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		xs := make([]Share, 18)
		pos := make([]Share, len(xs))
		ids := make([][]int64, len(xs))
		for i := range xs {
			xs[i] = e.ConstInt64(int64(i*37%11) - 5)
			pos[i] = e.ConstInt64(int64(i + 1))
			ids[i] = []int64{int64(i % 3), int64(i)}
		}
		f := e.F()
		// One fixed-point product: the Beaver round, then a truncation by f.
		fpMul := 1 + 1 + log2(f)
		for _, tc := range []struct {
			name string
			run  func()
			want int64
		}{
			{"Mod2mVec(48, 16)", func() { e.Mod2mVec(xs, 48, 16) }, 1 + log2(16)},
			{"Mod2mVec(32, 9)", func() { e.Mod2mVec(xs, 32, 9) }, 1 + log2(9)},
			{"Mod2mVec(32, 1)", func() { e.Mod2mVec(xs, 32, 1) }, 1},
			{"TruncVec(54, 16)", func() { e.TruncVec(xs, 54, 16) }, 1 + log2(16)},
			{"LTZVec(38)", func() { e.LTZVec(xs, 38) }, 1 + log2(37)},
			{"LEVec(38)", func() { e.LEVec(xs, pos, 38) }, 1 + log2(38)},
			// Bit decomposition and normalization keep their per-bit chains
			// (they need every prefix); everything else in a division is a
			// product or a truncation.
			{"FPDivVec(26)", func() { e.FPDivVec(pos, pos, 26) },
				(1 + 26) + 26 + 1 + (1 + log2(26-f)) + 8*fpMul + 2 + (1 + log2(26))},
			{"ArgmaxGrouped(18 candidates)", func() { e.ArgmaxGrouped(xs, []int{18}, ids, 38) },
				log2(18) * ((1 + log2(38)) + 1)},
			{"ArgmaxGrouped(groups of 5, 2, 11)", func() { e.ArgmaxGrouped(xs, []int{5, 2, 11}, ids, 38) },
				log2(11) * ((1 + log2(38)) + 1)},
		} {
			before := e.Stats.Rounds
			tc.run()
			if got := e.Stats.Rounds - before; got != tc.want {
				return fmt.Errorf("%s: %d rounds, want %d", tc.name, got, tc.want)
			}
		}
		return nil
	})
}
