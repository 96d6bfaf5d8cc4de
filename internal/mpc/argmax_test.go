package mpc

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// argmaxGroupedLinear is the oracle for ArgmaxGrouped: the paper's sequential
// oblivious-update loop advanced in lockstep across groups.  Step t compares
// every group's running maximum against its t-th candidate in one batched
// comparison, then applies all selections in one batched multiplication
// round.
func (e *Engine) argmaxGroupedLinear(vals []Share, groups []int, ids [][]int64, k uint) []ArgmaxResult {
	G := len(groups)
	cols := len(ids[0])
	offs := make([]int, G)
	maxSize := 0
	{
		off := 0
		for g, sz := range groups {
			offs[g] = off
			off += sz
			if sz > maxSize {
				maxSize = sz
			}
		}
	}
	cur := make([]ArgmaxResult, G)
	for g := range cur {
		cur[g] = ArgmaxResult{Max: vals[offs[g]], IDs: make([]Share, cols)}
		for c := 0; c < cols; c++ {
			cur[g].IDs[c] = e.ConstInt64(ids[offs[g]][c])
		}
	}
	for t := 1; t < maxSize; t++ {
		var active []int
		for g, sz := range groups {
			if t < sz {
				active = append(active, g)
			}
		}
		xs := make([]Share, len(active))
		ys := make([]Share, len(active))
		for i, g := range active {
			xs[i] = cur[g].Max
			ys[i] = vals[offs[g]+t]
		}
		signs := e.LTVec(xs, ys, k)
		// One batched round for all selects of all groups.
		var ss, as, bs []Share
		for i, g := range active {
			idx := offs[g] + t
			ss = append(ss, signs[i])
			as = append(as, vals[idx])
			bs = append(bs, cur[g].Max)
			for c := 0; c < cols; c++ {
				ss = append(ss, signs[i])
				as = append(as, e.ConstInt64(ids[idx][c]))
				bs = append(bs, cur[g].IDs[c])
			}
		}
		sel := e.selectPairwise(ss, as, bs)
		stride := cols + 1
		for i, g := range active {
			cur[g].Max = sel[i*stride]
			cur[g].IDs = sel[i*stride+1 : (i+1)*stride]
		}
	}
	return cur
}

// Property test: for random group shapes and values, the grouped argmax must
// return, per group, exactly what the ungrouped Argmax returns on that
// group's slice — same maximum, same identifier, same tie-breaking — for
// both the linear oracle and the tournament ArgmaxGrouped runs.  Small sizes
// keep it -short-friendly; it is the unit contract the level-wise training
// pipeline relies on.
func TestArgmaxGroupedMatchesPerGroup(t *testing.T) {
	runParties(t, 2, DefaultConfig(), func(e *Engine) error {
		// Per-party RNG with identical seed: every party draws the same
		// deterministic sequence without sharing state across goroutines.
		rng := rand.New(rand.NewPCG(11, 13))
		for trial := 0; trial < 4; trial++ {
			G := 1 + rng.IntN(4)
			groups := make([]int, G)
			var vals []Share
			var plain []int64
			var ids [][]int64
			for g := 0; g < G; g++ {
				groups[g] = 1 + rng.IntN(5)
				for t := 0; t < groups[g]; t++ {
					// Duplicates are likely at this range, exercising ties.
					v := int64(rng.IntN(7)) - 3
					plain = append(plain, v)
					vals = append(vals, e.ConstInt64(v))
					ids = append(ids, []int64{int64(g), int64(t)})
				}
			}
			for _, tournament := range []bool{false, true} {
				grouped := e.argmaxGroupedLinear
				if tournament {
					grouped = e.ArgmaxGrouped
				}
				got := grouped(vals, groups, ids, 16)
				if len(got) != G {
					return fmt.Errorf("trial %d: %d results for %d groups", trial, len(got), G)
				}
				off := 0
				for g := 0; g < G; g++ {
					want := e.Argmax(vals[off:off+groups[g]], ids[off:off+groups[g]], 16, tournament)
					wm := e.OpenSigned(want.Max).Int64()
					gm := e.OpenSigned(got[g].Max).Int64()
					if wm != gm {
						return fmt.Errorf("trial %d group %d (tournament=%v): max %d, want %d", trial, g, tournament, gm, wm)
					}
					for c := range want.IDs {
						wi := e.OpenSigned(want.IDs[c]).Int64()
						gi := e.OpenSigned(got[g].IDs[c]).Int64()
						if wi != gi {
							return fmt.Errorf("trial %d group %d col %d (tournament=%v): id %d, want %d",
								trial, g, c, tournament, gi, wi)
						}
					}
					// Cross-check the winner against the plaintext values.
					pos := int(e.OpenSigned(got[g].IDs[1]).Int64())
					best := plain[off]
					for t := 1; t < groups[g]; t++ {
						if plain[off+t] > best {
							best = plain[off+t]
						}
					}
					if plain[off+pos] != best || gm != best {
						return fmt.Errorf("trial %d group %d: winner %d at %d, plaintext max %d",
							trial, g, gm, pos, best)
					}
					off += groups[g]
				}
			}
		}
		return nil
	})
}
