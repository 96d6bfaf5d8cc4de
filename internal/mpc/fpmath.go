package mpc

import (
	"math"
	"math/big"
)

// Fixed-point arithmetic on shared values.  A share is "f-scaled" when it
// represents x·2^F for a real x.  Division uses bit-decomposition
// normalization followed by Newton–Raphson reciprocal iterations
// (Catrina–Saxena, FC'10), matching the secure division SPDZ provides and
// the paper invokes for Eqn (8).

// fixed rounds x to the engine's fixed-point scale.
func (e *Engine) fixed(x float64) int64 {
	return int64(math.Round(x * math.Ldexp(1, int(e.cfg.F))))
}

// EncodeConst encodes a float constant at the engine's fixed-point scale.
func (e *Engine) EncodeConst(x float64) *big.Int { return big.NewInt(e.fixed(x)) }

// encode is EncodeConst into the field.
func (e *Engine) encode(x float64) Elem { return elemFromInt64(e.fixed(x)) }

// constVec returns count sharings of the public field element c.
func (e *Engine) constVec(count int, c Elem) []Share {
	out := make([]Share, count)
	s := e.constElem(c)
	for i := range out {
		out[i] = s
	}
	return out
}

// DecodeSigned decodes an opened field element to a float at scale 2^F.
func (e *Engine) DecodeSigned(x *big.Int) float64 {
	f, _ := new(big.Float).SetInt(Signed(x)).Float64()
	return f / math.Ldexp(1, int(e.cfg.F))
}

// FPMulVec multiplies f-scaled values pairwise and rescales: the raw
// products must be bounded by 2^(k-1) in magnitude.
func (e *Engine) FPMulVec(xs, ys []Share, k uint) []Share {
	raw := e.MulVec(xs, ys)
	return e.TruncVec(raw, k, e.cfg.F)
}

// FPMulVecW is FPMulVec with declared operand magnitude bounds |x| < 2^wx,
// |y| < 2^wy, letting the Beaver differences travel packed (MulVecSigned).
// Use it wherever the call site knows its operand ranges; the declared
// bounds only need to hold, not be tight.
func (e *Engine) FPMulVecW(xs, ys []Share, wx, wy, k uint) []Share {
	raw := e.MulVecSigned(xs, ys, wx, wy)
	return e.TruncVec(raw, k, e.cfg.F)
}

// FPMul multiplies two f-scaled values.
func (e *Engine) FPMul(x, y Share, k uint) Share {
	return e.FPMulVec([]Share{x}, []Share{y}, k)[0]
}

// FPDivVec computes, elementwise, the f-scaled quotient ⟨2^F·a/b⟩ for
// non-negative a and b, both below 2^k (as raw integers; if both carry the
// same scale the quotient is f-scaled directly).  A zero divisor yields zero.
// Requires 2k+F+2+κ within the field.
func (e *Engine) FPDivVec(as, bs []Share, k uint) []Share {
	if len(as) != len(bs) {
		panic("mpc: FPDivVec length mismatch")
	}
	return e.divVec(as, bs, k)
}

// FPDiv divides one pair.
func (e *Engine) FPDiv(a, b Share, k uint) Share {
	return e.FPDivVec([]Share{a}, []Share{b}, k)[0]
}

// RecipVec computes f-scaled reciprocals ⟨2^F/b⟩ for non-negative integers
// b < 2^k; a zero b yields zero.
func (e *Engine) RecipVec(bs []Share, k uint) []Share {
	return e.divVec(nil, bs, k)
}

// divVec is FPDivVec, and RecipVec when as is nil: a ≡ 1 needs no a·v
// product.  The divisor is normalised at its declared width k: the integers
// are those of a normalisation at any wider K, whose v is this v·2^(K-k), so
// x and the quotient ⌊a·v·w / 2^k⌋ do not depend on k.
func (e *Engine) divVec(as, bs []Share, k uint) []Share {
	f := e.cfg.F
	num := k // a·v, or v alone, is below 2^num
	if as != nil {
		num = 2 * k
	}
	e.checkWidth(num + f + 2)
	e.Stats.Divisions += int64(len(bs))
	count := len(bs)

	// Normalize: B = b·v ∈ [2^(k-1), 2^k).  b and v are non-negative and
	// below 2^k, so the product's Beaver differences open bounded and packed.
	_, vs, _ := e.bitDecChain(bs, k, true, false)
	Bs := e.MulVecBounded(bs, vs, k, k)
	// x = B·2^(f-k), an f-scaled value in [0.5, 1): a local shift when k ≤ f.
	var xs []Share
	if k <= f {
		xs = make([]Share, count)
		for t := range xs {
			xs[t] = e.lsh(Bs[t], f-k)
		}
	} else {
		xs = e.TruncVec(Bs, k+1, k-f)
	}

	// w ≈ 2^(2f)/x via Newton iterations from w0 = 2.9142 - 2x.  On the
	// normal path x ∈ [0.5, 1] and w < 4.  On the zero-divisor path v = 0
	// forces x = 0, so each iteration sees corr = 2 exactly and w doubles:
	// w ≤ 2.9142·2^4 < 2^6 after four iterations.  The declared bounds and
	// the w-update's truncation contract cover BOTH regimes — a packed slot
	// that overflows its declared width would corrupt its neighbours, so the
	// garbage path must stay bounded by construction, not by luck.
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

	// result = Trunc(a·v·w, k): w ≈ 2^(2f)/x = 2^(f+k)/(b·v), so
	// a·v·w ≈ 2^(f+k)·a/b.
	// a·v < 2^(2k) can exceed the packing capacity; MulVecSigned falls back
	// to the uniform path on its own when the slots no longer fit.  A zero
	// divisor has v = 0, so a·v·w = 0 regardless of the inflated w.
	nums := vs
	if as != nil {
		nums = e.MulVecSigned(as, vs, k, k)
	}
	prods := e.MulVecSigned(nums, ws, num, f+6)
	return e.TruncVec(prods, num+f+2, k)
}

// expMaxAbs bounds the clamped exponent input.
const expMaxAbs = 20.0

// ExpVec computes elementwise e^x for f-scaled x with |x| < 2^(kIn-1)
// (inputs are clamped to ±20 first, so the result fits easily).
func (e *Engine) ExpVec(xs []Share, kIn uint) []Share {
	f := e.cfg.F
	count := len(xs)
	// Clamp to [-20, 20].
	loS := e.constVec(count, e.encode(-expMaxAbs))
	hiS := e.constVec(count, e.encode(expMaxAbs))
	// Clamp differences are bounded by |x| + 20·2^f.
	wd := kIn
	if f+6 > wd {
		wd = f + 6
	}
	belows := e.LTVec(xs, loS, kIn)
	clamped := e.selectPairwiseW(belows, loS, xs, wd)
	aboves := e.LTVec(hiS, clamped, kIn)
	clamped = e.selectPairwiseW(aboves, hiS, clamped, wd)

	// y = x·log2(e); t = y + 32 ∈ (2, 62); split integer/fraction.
	log2e := e.encode(math.Log2(math.E))
	ys := make([]Share, count)
	for t := range ys {
		ys[t] = e.mulElem(clamped[t], log2e)
	}
	ts := e.TruncVec(ys, 2*f+7, f)
	off := Elem{32}.Lsh(f)
	for t := range ts {
		ts[t] = e.addElem(ts[t], off)
	}
	ips := e.TruncVec(ts, f+7, f)
	rems := make([]Share, count)
	for t := range rems {
		rems[t] = e.Sub(ts[t], e.lsh(ips[t], f))
	}

	// 2^ip from the 6 bits of ip.  Before step j the running product is at
	// most 2^(2^j - 1) and the step factor at most 2^(2^j), so both sides
	// stay bounded and the Beaver differences pack.
	bits := e.BitDecVec(ips, 6)
	pows := e.constVec(count, Elem{1})
	terms := make([]Share, count)
	for j := uint(0); j < 6; j++ {
		mult := Elem{1}.Lsh(1 << j).Sub(Elem{1})
		for t := range terms {
			terms[t] = e.addElem(e.mulElem(bits[t][j], mult), Elem{1})
		}
		pows = e.MulVecBounded(pows, terms, 1<<j, (1<<j)+1)
	}

	// 2^rem for rem ∈ [0,1) via the degree-7 Taylor series of e^(rem·ln2).
	polys := e.polyHorner(rems, exp2Coeffs(), 2*f+3)

	// result = pow·poly / 2^32.  pow ≤ 2^63; |poly| < 4 at f scale.
	prods := e.MulVecSigned(pows, polys, 64, f+2)
	return e.TruncVec(prods, 64+f+4, 32)
}

// Exp computes e^x for a single f-scaled share.
func (e *Engine) Exp(x Share, kIn uint) Share {
	return e.ExpVec([]Share{x}, kIn)[0]
}

func exp2Coeffs() []float64 {
	// 2^r = Σ (r·ln2)^j / j!, j = 0..7, as polynomial coefficients in r.
	coeffs := make([]float64, 8)
	ln2 := math.Ln2
	fact := 1.0
	pow := 1.0
	for j := 0; j < 8; j++ {
		if j > 0 {
			fact *= float64(j)
			pow *= ln2
		}
		coeffs[j] = pow / fact
	}
	return coeffs
}

// polyHorner evaluates Σ c_j·x^j with Horner's rule on f-scaled inputs.
func (e *Engine) polyHorner(xs []Share, coeffs []float64, k uint) []Share {
	f := e.cfg.F
	acc := e.constVec(len(xs), e.encode(coeffs[len(coeffs)-1]))
	for j := len(coeffs) - 2; j >= 0; j-- {
		// The accumulator is bounded by Σ|c_j| < 4 and x by 1 at f scale.
		acc = e.FPMulVecW(acc, xs, f+2, f+1, k)
		c := e.encode(coeffs[j])
		for t := range acc {
			acc[t] = e.addElem(acc[t], c)
		}
	}
	return acc
}

// selectPairwise returns s_t ? a_t : b_t elementwise in one round.
func (e *Engine) selectPairwise(ss, as, bs []Share) []Share {
	diffs := make([]Share, len(as))
	for i := range as {
		diffs[i] = e.Sub(as[i], bs[i])
	}
	out := e.MulVec(ss, diffs)
	for i := range out {
		out[i] = e.Add(bs[i], out[i])
	}
	return out
}

// selectPairwiseW is selectPairwise for call sites that can bound the
// selection difference: |a_t - b_t| < 2^w.  The bit×difference products
// then run through the packed bounded-Beaver path.
func (e *Engine) selectPairwiseW(ss, as, bs []Share, w uint) []Share {
	diffs := make([]Share, len(as))
	for i := range as {
		diffs[i] = e.Sub(as[i], bs[i])
	}
	out := e.MulVecSigned(ss, diffs, 1, w)
	for i := range out {
		out[i] = e.Add(bs[i], out[i])
	}
	return out
}

// LnVec computes elementwise ln(x) for f-scaled x in (0, 1] (the domain the
// differential-privacy mechanisms need: ln(1 - 2|U|) with U ∈ (-1/2, 1/2)).
func (e *Engine) LnVec(xs []Share) []Share {
	f := e.cfg.F
	count := len(xs)
	k := f + 1

	// Normalize x to B = x·2^(f-p) ∈ [2^f, 2^(f+1)), i.e. value u ∈ [1, 2).
	// x and v are positive and below 2^(f+1), so the product packs.
	_, vs, ps := e.bitDecChain(xs, k, true, true)
	Bs := e.MulVecBounded(xs, vs, f+1, f+1)

	// w = u - 1 ∈ [0, 1);  t = w / (2 + w) ∈ [0, 1/3);
	// ln u = 2·atanh(t) = 2(t + t³/3 + t⁵/5 + t⁷/7 + t⁹/9).
	negOne, two := Elem{1}.Lsh(f).Neg(), Elem{2}.Lsh(f)
	wShares := make([]Share, count)
	denoms := make([]Share, count)
	for t := range wShares {
		wShares[t] = e.addElem(Bs[t], negOne)
		denoms[t] = e.addElem(wShares[t], two)
	}
	ts := e.FPDivVec(wShares, denoms, f+3)
	// |t| < 1/3 on the domain, but t = -1 exactly on the x = 0 garbage path
	// (annihilated later by p·ln p), so declare the bound that covers both.
	t2 := e.FPMulVecW(ts, ts, f+1, f+1, 2*f+3)
	// Horner in t²: ((1/9·t² + 1/7)·t² + 1/5)·t² + 1/3)·t² + 1, then ·t·2.
	acc := e.constVec(count, e.encode(1.0/9.0))
	for _, cf := range []float64{1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0, 1.0} {
		acc = e.FPMulVecW(acc, t2, f+2, f+1, 2*f+3) // |acc| < 2, t² ≤ 1
		c := e.encode(cf)
		for t := range acc {
			acc[t] = e.addElem(acc[t], c)
		}
	}
	atanh := e.FPMulVecW(acc, ts, f+2, f+1, 2*f+3)

	// ln x = 2·atanh + (p - f)·ln 2.
	ln2, negF := e.encode(math.Ln2), elemFromInt64(-int64(f))
	out := make([]Share, count)
	for t := range out {
		pTerm := e.mulElem(e.addElem(ps[t], negF), ln2)
		out[t] = e.Add(e.Add(atanh[t], atanh[t]), pTerm)
	}
	return out
}

// Ln computes ln(x) for one f-scaled share in (0, 1].
func (e *Engine) Ln(x Share) Share {
	return e.LnVec([]Share{x})[0]
}

// SoftmaxVec computes softmax over xs (f-scaled logits, |x| < 2^(kIn-1)).
// Used by Pivot-GBDT classification (§7.2: "secure softmax ... constructed
// using secure exponential, secure addition, and secure division").
func (e *Engine) SoftmaxVec(xs []Share, kIn uint) []Share {
	es := e.ExpVec(xs, kIn)
	sum := e.Sum(es)
	sums := make([]Share, len(es))
	for i := range sums {
		sums[i] = sum
	}
	// exp ≤ e^20·2^f < 2^46; sum ≤ c·that.
	return e.FPDivVec(es, sums, 52)
}

// RandUniformFP returns count f-scaled shared values uniform in [0, 1),
// assembled from dealer-provided random bits (the SPDZ primitive Algorithm
// 5 of the paper relies on).
func (e *Engine) RandUniformFP(count int) []Share {
	return e.randMask(count, e.cfg.F)
}

// SelectPairs returns s_i ? a_i : b_i elementwise in one multiplication
// round.  Each s_i must share 0 or 1.
func (e *Engine) SelectPairs(ss, as, bs []Share) []Share {
	return e.selectPairwise(ss, as, bs)
}
