package mpc

import (
	"fmt"
	"math"
	"testing"
)

// The division as first written, kept as the oracle of FPDivVec, RecipVec
// and LnVec: a bit decomposition at max(k, F+2) bits, then a second per-bit
// chain from the MSB that normalises the divisor, then the Newton stage and a
// quotient truncated by that raised width.

// msbNormalizeOracle returns, for positive a < 2^k given by shared bits, the
// sharing of v = 2^(k-1-p) where p is the index of a's most significant set
// bit.  a·v then lies in [2^(k-1), 2^k).  It also returns ⟨p⟩.
func (e *Engine) msbNormalizeOracle(bits [][]Share, k uint) ([]Share, []Share) {
	count := len(bits)
	// Suffix products of (1 - z_i) from the MSB: suffix[t] after step i is
	// Π_{j>=i}(1-z_j); s_i = 1 - suffix marks "some bit >= i is set".
	one := e.ConstInt64(1)
	suffix := make([]Share, count)
	sPrev := make([]Share, count) // s_{i+1}
	vs := make([]Share, count)
	ps := make([]Share, count)
	for t := range suffix {
		suffix[t] = one
	}
	ys := make([]Share, count)
	for i := int(k) - 1; i >= 0; i-- {
		for t := 0; t < count; t++ {
			ys[t] = e.Sub(one, bits[t][i])
		}
		prods := e.mulVecBits(suffix, ys)
		for t := 0; t < count; t++ {
			sCur := e.Sub(one, prods[t])
			m := e.Sub(sCur, sPrev[t]) // 1 exactly at the MSB position
			vs[t] = e.Add(vs[t], e.lsh(m, k-1-uint(i)))
			ps[t] = e.Add(ps[t], e.mulElem(m, Elem{uint64(i)}))
			sPrev[t] = sCur
		}
		suffix = prods
	}
	return vs, ps
}

// fpDivOracle is FPDivVec as first written.
func (e *Engine) fpDivOracle(as, bs []Share, k uint) []Share {
	if k <= e.cfg.F+1 {
		k = e.cfg.F + 2
	}
	f := e.cfg.F
	count := len(as)
	bits := e.BitDecVec(bs, k)
	vs, _ := e.msbNormalizeOracle(bits, k)
	Bs := e.MulVecBounded(bs, vs, k, k)
	xs := e.TruncVec(Bs, k+1, k-f)
	w0c := e.encode(2.9142)
	ws := make([]Share, count)
	for t := range ws {
		ws[t] = e.addElem(e.Neg(e.Add(xs[t], xs[t])), w0c)
	}
	two := Elem{1}.Lsh(f + 1)
	for iter := 0; iter < 4; iter++ {
		corr := e.FPMulVecW(xs, ws, f+1, f+6, 2*f+3)
		for t := range corr {
			corr[t] = e.addElem(e.Neg(corr[t]), two)
		}
		ws = e.FPMulVecW(ws, corr, f+6, f+2, 2*f+9)
	}
	avs := e.MulVecSigned(as, vs, k, k)
	prods := e.MulVecSigned(avs, ws, 2*k, f+6)
	return e.TruncVec(prods, 2*k+f+2, k)
}

// lnOracle is LnVec as first written, dividing with fpDivOracle.
func (e *Engine) lnOracle(xs []Share) []Share {
	f := e.cfg.F
	count := len(xs)
	k := f + 1
	bits := e.BitDecVec(xs, k)
	vs, ps := e.msbNormalizeOracle(bits, k)
	Bs := e.MulVecBounded(xs, vs, f+1, f+1)
	negOne, two := Elem{1}.Lsh(f).Neg(), Elem{2}.Lsh(f)
	wShares := make([]Share, count)
	denoms := make([]Share, count)
	for t := range wShares {
		wShares[t] = e.addElem(Bs[t], negOne)
		denoms[t] = e.addElem(wShares[t], two)
	}
	ts := e.fpDivOracle(wShares, denoms, f+3)
	t2 := e.FPMulVecW(ts, ts, f+1, f+1, 2*f+3)
	acc := e.constVec(count, e.encode(1.0/9.0))
	for _, cf := range []float64{1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0, 1.0} {
		acc = e.FPMulVecW(acc, t2, f+2, f+1, 2*f+3)
		c := e.encode(cf)
		for t := range acc {
			acc[t] = e.addElem(acc[t], c)
		}
	}
	atanh := e.FPMulVecW(acc, ts, f+2, f+1, 2*f+3)
	ln2, negF := e.encode(math.Ln2), elemFromInt64(-int64(f))
	out := make([]Share, count)
	for t := range out {
		pTerm := e.mulElem(e.addElem(ps[t], negF), ln2)
		out[t] = e.Add(e.Add(atanh[t], atanh[t]), pTerm)
	}
	return out
}

// divisionOperands returns, for divisors below 2^k, the edge divisors 0, 1,
// 2^(k-1)-1, 2^(k-1), 2^k-1 and a sweep of four more, each paired with the
// dividends 0, 1, b and 2^k-1.
func divisionOperands(k uint) (as, bs []int64) {
	top := int64(1)<<k - 1
	divisors := []int64{0, 1, 1<<(k-1) - 1, 1 << (k - 1), top}
	x := uint64(k)*0x9e3779b97f4a7c15 + 1
	for i := 0; i < 4; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		divisors = append(divisors, int64(x&uint64(top)))
	}
	for _, b := range divisors {
		for _, a := range []int64{0, 1, b, top} {
			as, bs = append(as, a), append(bs, b)
		}
	}
	return as, bs
}

// TestDivisionMatchesOracle holds FPDivVec, RecipVec and LnVec to the
// division as first written, value for value, zero divisors and LnVec's
// zero input included, and the one normalising chain's v and p to the
// MSB-first chain's, in both threat models; the authenticated run must pass
// its MAC check afterwards.
func TestDivisionMatchesOracle(t *testing.T) {
	for _, auth := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Authenticated = auth
		runParties(t, 2, cfg, func(e *Engine) error {
			consts := func(vs []int64) []Share {
				out := make([]Share, len(vs))
				for i, v := range vs {
					out[i] = e.ConstInt64(v)
				}
				return out
			}
			same := func(name string, got, want []Share) error {
				g, w := e.openElems(got), e.openElems(want)
				for i := range g {
					if g[i] != w[i] {
						return fmt.Errorf("authenticated=%v %s[%d] = %v, oracle %v", auth, name, i, g[i], w[i])
					}
				}
				return nil
			}
			for _, k := range []uint{1, 2, 5, 11, 13, 16, 17, 18, 19, 26, 40, 52} {
				av, bv := divisionOperands(k)
				as, bs := consts(av), consts(bv)
				if err := same(fmt.Sprintf("FPDivVec(k=%d)", k), e.FPDivVec(as, bs, k), e.fpDivOracle(as, bs, k)); err != nil {
					return err
				}
				ones := e.constVec(len(bs), Elem{1})
				if err := same(fmt.Sprintf("RecipVec(k=%d)", k), e.RecipVec(bs, k), e.fpDivOracle(ones, bs, k)); err != nil {
					return err
				}
				_, vs, ps := e.bitDecChain(bs, k, true, true)
				wantV, wantP := e.msbNormalizeOracle(e.BitDecVec(bs, k), k)
				if err := same(fmt.Sprintf("v(k=%d)", k), vs, wantV); err != nil {
					return err
				}
				if err := same(fmt.Sprintf("p(k=%d)", k), ps, wantP); err != nil {
					return err
				}
			}
			f := e.F()
			unit := []int64{0, 1, 2, 3, 1<<f - 1, 1 << f}
			for x := int64(7); x < 1<<f; x = x*5 + 3 {
				unit = append(unit, x)
			}
			xs := consts(unit)
			if err := same("LnVec", e.LnVec(xs), e.lnOracle(xs)); err != nil {
				return err
			}
			return e.CheckMACs()
		})
	}
}
