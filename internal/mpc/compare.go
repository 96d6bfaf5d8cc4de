package mpc

import (
	"fmt"
	"math/big"
)

// Comparison and truncation protocols in the style of Catrina–de Hoogh
// ("Improved primitives for secure multiparty integer computation", SCN'10),
// which is what SPDZ/MP-SPDZ — and hence the paper — uses for the secure
// comparison primitive of §2.2.  All inputs are signed values bounded by
// 2^(k-1) in magnitude, embedded in Z_Q.

// checkWidth panics if a masked opening of width k would not be
// statistically hidden inside the field.
func (e *Engine) checkWidth(k uint) {
	if k+e.cfg.Kappa+8 >= 250 {
		panic(fmt.Sprintf("mpc: width %d too large for field (κ=%d)", k, e.cfg.Kappa))
	}
}

// uniformWidths returns count copies of width.
func uniformWidths(count int, width uint) []uint {
	widths := make([]uint, count)
	for t := range widths {
		widths[t] = width
	}
	return widths
}

// randBitwise returns, for each of count instances, `width` shared random
// bits plus the assembled shared value Σ 2^i·b_i.
func (e *Engine) randBitwise(count int, width uint) ([][]Share, []Share) {
	return e.randBitwiseGrouped(uniformWidths(count, width))
}

// randBitwiseGrouped is randBitwise with a per-instance bit width: instance t
// gets widths[t] shared random bits plus the assembled shared value.
func (e *Engine) randBitwiseGrouped(widths []uint) ([][]Share, []Share) {
	total := 0
	for _, w := range widths {
		total += int(w)
	}
	flat := e.takeBits(total)
	bits := make([][]Share, len(widths))
	vals := make([]Share, len(widths))
	off := 0
	for t, w := range widths {
		bits[t] = flat[off : off+int(w)]
		off += int(w)
		// Σ 2^i·b_i by Horner from the top bit: one doubling and one
		// addition per bit share.
		var acc Share
		for i := int(w) - 1; i >= 0; i-- {
			acc = e.Add(e.Add(acc, acc), bits[t][i])
		}
		vals[t] = acc
	}
	return bits, vals
}

// randMask returns count shared random values of the given bit width
// (assembled from dealer bits).
func (e *Engine) randMask(count int, width uint) []Share {
	_, vals := e.randBitwise(count, width)
	return vals
}

// bitLTPub computes, per instance, a sharing of 1{c_t < r_t} where c_t is a
// public integer and r_t is given by `width` shared bits (LSB first).
// Linear round count in width; each level is one batched multiplication
// round across all instances.
func (e *Engine) bitLTPub(cs []Elem, rbits [][]Share, width uint) []Share {
	count := len(cs)
	// p[t] = prefix product (from MSB) of XNOR(c_i, r_i); u accumulates
	// r_i·(1-c_i)·p_{i+1}.
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
				acc[t] = e.Add(acc[t], prods[2*t+1]) // p_{i+1}·r_i
			}
			prefix[t] = prods[2*t]
		}
	}
	return acc
}

// Mod2mVec computes ⟨a mod 2^m⟩ for signed a with |a| < 2^(k-1), m < k.
func (e *Engine) Mod2mVec(as []Share, k, m uint) []Share {
	if m >= k {
		panic("mpc: Mod2m requires m < k")
	}
	e.checkWidth(k)
	count := len(as)
	rbits, rlow := e.randBitwise(count, m)
	rhigh := e.randMask(count, k-m+e.cfg.Kappa)
	offset := Elem{1}.Lsh(k - 1)
	masked := make([]Share, count)
	for t := range as {
		v := e.addElem(as[t], offset)
		v = e.Add(v, rlow[t])
		masked[t] = e.Add(v, e.lsh(rhigh[t], m))
	}
	// masked < 2^k + 2^m + 2^(k+κ) < 2^(k+κ+1): open packed.
	cmods := e.openBoundedElems(masked, k+e.cfg.Kappa+1)
	for t := range cmods {
		cmods[t] = cmods[t].slot(0, m) // c mod 2^m
	}
	us := e.bitLTPub(cmods, rbits, m)
	out := make([]Share, count)
	for t := range out {
		v := e.addElem(e.Neg(rlow[t]), cmods[t])
		out[t] = e.Add(v, e.lsh(us[t], m))
	}
	return out
}

// TruncVec computes ⟨floor(a / 2^m)⟩ (floor semantics for negative a).
func (e *Engine) TruncVec(as []Share, k, m uint) []Share {
	mods := e.Mod2mVec(as, k, m)
	inv := invPow2(m)
	out := make([]Share, len(as))
	for t := range as {
		out[t] = e.mulElem(e.Sub(as[t], mods[t]), inv)
	}
	return out
}

// Trunc truncates one value.
func (e *Engine) Trunc(a Share, k, m uint) Share {
	return e.TruncVec([]Share{a}, k, m)[0]
}

// LTZVec computes ⟨1{a < 0}⟩ for signed a with |a| < 2^(k-1).
func (e *Engine) LTZVec(as []Share, k uint) []Share {
	e.Stats.Comparisons += int64(len(as))
	out := e.TruncVec(as, k, k-1)
	for i := range out {
		out[i] = e.Neg(out[i])
	}
	return out
}

// LTVec computes ⟨1{x < y}⟩ elementwise.  Values must satisfy |x|,|y| <
// 2^(k-1); the internal difference uses width k+1.
func (e *Engine) LTVec(xs, ys []Share, k uint) []Share {
	ds := make([]Share, len(xs))
	for i := range xs {
		ds[i] = e.Sub(xs[i], ys[i])
	}
	return e.LTZVec(ds, k+1)
}

// LT compares two shared values.
func (e *Engine) LT(x, y Share, k uint) Share {
	return e.LTVec([]Share{x}, []Share{y}, k)[0]
}

// LEVec computes ⟨1{x <= y}⟩ = 1 - 1{y < x} elementwise.  Like LTVec, every
// masked opening and bit-comparison round is shared across the whole batch,
// so the round cost of comparing all (node × sample) pairs of a prediction
// level equals that of a single comparison — the counterpart of
// ArgmaxGrouped for the batched prediction pipeline.
func (e *Engine) LEVec(xs, ys []Share, k uint) []Share {
	out := e.LTVec(ys, xs, k)
	one := e.ConstInt64(1)
	for i := range out {
		out[i] = e.Sub(one, out[i])
	}
	return out
}

// LE computes ⟨1{x <= y}⟩ = 1 - 1{y < x}.
func (e *Engine) LE(x, y Share, k uint) Share {
	return e.LEVec([]Share{x}, []Share{y}, k)[0]
}

// EQZVec computes ⟨1{a == 0}⟩ for signed a with |a| < 2^(k-1).
func (e *Engine) EQZVec(as []Share, k uint) []Share {
	return e.EQZVecGrouped(as, uniformWidths(len(as), k))
}

// EQZVecGrouped computes ⟨1{a_t == 0}⟩ with a per-instance signed width
// ks[t] (|a_t| < 2^(ks[t]-1)), sharing every masked opening and
// AND-reduction round across all instances.  The level-wise batched model
// update uses it to run the whole frontier's equality ladders — whose widths
// depend on each node's owner-local split count — as one round chain.
func (e *Engine) EQZVecGrouped(as []Share, ks []uint) []Share {
	if len(as) != len(ks) {
		panic("mpc: EQZVecGrouped length mismatch")
	}
	count := len(as)
	if count == 0 {
		return nil
	}
	maxK := uint(0)
	for _, k := range ks {
		e.checkWidth(k)
		maxK = max(maxK, k)
	}
	rbits, rlow := e.randBitwiseGrouped(ks)
	rhigh := e.randMask(count, e.cfg.Kappa)
	masked := make([]Share, count)
	for t := range as {
		v := e.addElem(as[t], Elem{1}.Lsh(ks[t]-1))
		v = e.Add(v, rlow[t])
		masked[t] = e.Add(v, e.lsh(rhigh[t], ks[t]))
	}
	// masked < 2^k + 2^k + 2^(k+κ) < 2^(k+κ+1) per instance: open packed at
	// the widest instance's bound.
	cs := e.openBoundedElems(masked, maxK+e.cfg.Kappa+1)
	// a == 0  iff  (c - 2^(k-1)) mod 2^k equals r mod 2^k bitwise; adding
	// 2^(k-1) instead leaves the same low k bits and never goes negative.
	one := e.ConstInt64(1)
	xnors := make([][]Share, count)
	for t := range cs {
		k := ks[t]
		c2 := cs[t].Add(Elem{1}.Lsh(k - 1))
		row := make([]Share, k)
		for i := range row {
			if c2.Bit(i) == 1 {
				row[i] = rbits[t][i]
			} else {
				row[i] = e.Sub(one, rbits[t][i])
			}
		}
		xnors[t] = row
	}
	// AND-reduce each row with a log-depth product tree, batched across rows.
	var xs, ys []Share
	for {
		xs, ys = xs[:0], ys[:0]
		for _, row := range xnors {
			for i := 0; i+1 < len(row); i += 2 {
				xs = append(xs, row[i])
				ys = append(ys, row[i+1])
			}
		}
		if len(xs) == 0 {
			break
		}
		prods := e.mulVecBits(xs, ys)
		// Halve each row in place: products first, an odd tail carried over.
		for t, row := range xnors {
			pairs := len(row) / 2
			copy(row, prods[:pairs])
			prods = prods[pairs:]
			if len(row)%2 == 1 {
				row[pairs] = row[len(row)-1]
			}
			xnors[t] = row[:(len(row)+1)/2]
		}
	}
	out := make([]Share, count)
	for t := range out {
		out[t] = xnors[t][0]
	}
	return out
}

// EQZ tests one value for zero.
func (e *Engine) EQZ(a Share, k uint) Share {
	return e.EQZVec([]Share{a}, k)[0]
}

// EQPub computes ⟨1{a == c}⟩ for public c.
func (e *Engine) EQPub(a Share, c *big.Int, k uint) Share {
	return e.EQZ(e.addElem(a, ElemFromBig(c).Neg()), k)
}

// BitDecVec decomposes non-negative a < 2^k into k shared bits (LSB first).
func (e *Engine) BitDecVec(as []Share, k uint) [][]Share {
	e.checkWidth(k)
	count := len(as)
	rbits, rlow := e.randBitwise(count, k)
	rhigh := e.randMask(count, e.cfg.Kappa)
	masked := make([]Share, count)
	for t := range as {
		masked[t] = e.Add(e.Add(as[t], rlow[t]), e.lsh(rhigh[t], k))
	}
	// masked < 2^k + 2^k + 2^(k+κ) < 2^(k+κ+1): open packed.
	cs := e.openBoundedElems(masked, k+e.cfg.Kappa+1)
	// bits(a) = bits((c - r) mod 2^k): binary subtraction with shared borrow.
	one := e.ConstInt64(1)
	flat := make([]Share, count*int(k))
	out := make([][]Share, count)
	for t := range out {
		out[t] = flat[t*int(k) : (t+1)*int(k) : (t+1)*int(k)]
	}
	borrow := make([]Share, count)
	xs := make([]Share, count)
	for i := 0; i < int(k); i++ {
		// One batched multiplication per level: r_i·borrow.
		for t := 0; t < count; t++ {
			xs[t] = rbits[t][i]
		}
		rb := e.mulVecBits(xs, borrow)
		for t := 0; t < count; t++ {
			ri := rbits[t][i]
			sum := e.Add(ri, borrow[t])
			// xor = r_i ⊕ borrow (shared), then ⊕ public c_i;
			// borrow' = (1-c_i)·(r_i OR borrow) + c_i·(r_i AND borrow).
			xor := e.Sub(sum, e.Add(rb[t], rb[t]))
			if cs[t].Bit(i) == 1 {
				out[t][i] = e.Sub(one, xor)
				borrow[t] = rb[t]
			} else {
				out[t][i] = xor
				borrow[t] = e.Sub(sum, rb[t])
			}
		}
	}
	return out
}

// msbNormalizeVec returns, for positive a < 2^k given by shared bits, the
// sharing of v = 2^(k-1-p) where p is the index of a's most significant set
// bit.  a·v then lies in [2^(k-1), 2^k).  It also returns ⟨p⟩.
func (e *Engine) msbNormalizeVec(bits [][]Share, k uint) ([]Share, []Share) {
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
