package mpc

import (
	"fmt"
	"math/big"
	"math/bits"
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
	flat := take(e, e.bits, total)
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

// randMask returns count shared random values uniform in [0, 2^width), each
// dealt as one additive sharing (dealMasks): nothing consumes a statistical
// mask bit by bit, so no bit sharings are spent on it.
func (e *Engine) randMask(count int, width uint) []Share {
	return take(e, e.maskQueue(width), count)
}

// bitLTPub computes, per instance, a sharing of 1{c_t < r_t} where c_t is a
// public integer and r_t is given by `width` shared bits (LSB first).  It is
// the carry out of a tree over (propagate, generate) pairs: a segment of bit
// positions propagates (p) when c and r agree on all of it and generates (g)
// when r exceeds c inside it; one bit has p = XNOR(c, r) and g = r·(1−c),
// both affine in ⟨r⟩ because c is public, and a high segment H joins the low
// segment L below it as (p, g) = (p_H·p_L, g_H + p_H·g_L).  The answer is the
// whole row's g, after ⌈log₂ width⌉ batched multiplication rounds.  Rows are
// flat count × nodes arrays, halved in place; node 0 of a row is only ever a
// low operand, so its p is never needed.
func (e *Engine) bitLTPub(cs []Elem, rbits [][]Share, width uint) []Share {
	count, w := len(cs), int(width)
	if w == 0 {
		return make([]Share, count)
	}
	one := e.ConstInt64(1)
	// First level: both p and g of an adjacent bit pair are affine in the one
	// product r_H·r_L.
	pairs, n := w/2, (w+1)/2
	xs := make([]Share, count*pairs)
	ys := make([]Share, count*pairs)
	for t, row := range rbits {
		for j := 0; j < pairs; j++ {
			xs[t*pairs+j], ys[t*pairs+j] = row[2*j+1], row[2*j]
		}
	}
	qs := e.mulVecBits(xs, ys)
	ps := make([]Share, count*n)
	gs := make([]Share, count*n)
	for t, row := range rbits {
		for j := 0; j < pairs; j++ {
			rl, rh, q := row[2*j], row[2*j+1], qs[t*pairs+j]
			cl, ch := cs[t].Bit(2*j), cs[t].Bit(2*j+1)
			var p, g Share
			switch {
			case ch == 1 && cl == 1:
				p = q // g = 0
			case ch == 1:
				p, g = e.Sub(rh, q), q
			case cl == 1:
				p, g = e.Sub(rl, q), rh
			default:
				g = e.Sub(e.Add(rh, rl), q) // r_H OR r_L
				p = e.Sub(one, g)
			}
			ps[t*n+j], gs[t*n+j] = p, g
		}
		if w%2 == 1 {
			// The unpaired top bit enters as a leaf: p = XNOR(c, r), g = r·(1−c).
			if r := row[w-1]; cs[t].Bit(w-1) == 1 {
				ps[t*n+pairs] = r
			} else {
				ps[t*n+pairs], gs[t*n+pairs] = e.Sub(one, r), r
			}
		}
	}
	// Later levels: p_H·g_L for every pair of nodes, p_H·p_L for all but the
	// lowest; an odd top node moves up unchanged.
	for n > 1 {
		pairs = n / 2
		per := 2*pairs - 1
		xs, ys = xs[:count*per], ys[:count*per]
		for t := 0; t < count; t++ {
			row, o := t*n, t*per
			for j := 0; j < pairs; j++ {
				xs[o+j], ys[o+j] = ps[row+2*j+1], gs[row+2*j]
			}
			for j := 1; j < pairs; j++ {
				xs[o+pairs+j-1], ys[o+pairs+j-1] = ps[row+2*j+1], ps[row+2*j]
			}
		}
		prods := e.mulVecBits(xs, ys)
		next := (n + 1) / 2
		for t := 0; t < count; t++ {
			row, dst, o := t*n, t*next, t*per
			for j := 0; j < pairs; j++ {
				gs[dst+j] = e.Add(gs[row+2*j+1], prods[o+j])
				if j > 0 {
					ps[dst+j] = prods[o+pairs+j-1]
				}
			}
			if n%2 == 1 {
				ps[dst+pairs], gs[dst+pairs] = ps[row+n-1], gs[row+n-1]
			}
		}
		n = next
	}
	return gs[:count:count]
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
	out, _, _ := e.bitDecChain(as, k, false, false)
	return out
}

// bitDecChain decomposes non-negative a < 2^k into k shared bits (LSB first)
// with a borrow chain of k rounds after one masked opening.  With norm set it
// also normalises a in the same chain: once bit z_i is decided,
// v ← z_i·2^(k-1-i) + (1-z_i)·v, and with withP p ← z_i·i + (1-z_i)·p, so
// after the top bit v = 2^(k-1-p) for p the index of a's most significant set
// bit — a·v ∈ [2^(k-1), 2^k) — and v = p = 0 for a = 0.  The products
// (1-z_i)·v and (1-z_i)·p ride in the opening of bit i+1's borrow product,
// each group at its own slot width, so normalising costs one round past the
// decomposition: 1 + k + 1 in all.
func (e *Engine) bitDecChain(as []Share, k uint, norm, withP bool) (out [][]Share, vs, ps []Share) {
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
	out = make([][]Share, count)
	for t := range out {
		out[t] = flat[t*int(k) : (t+1)*int(k) : (t+1)*int(k)]
	}
	borrow := make([]Share, count)
	xs := make([]Share, count)
	var notZ []Share // 1 - z_(i-1)
	if norm {
		vs, notZ = make([]Share, count), make([]Share, count)
		if withP {
			ps = make([]Share, count)
		}
	}
	pw := uint(bits.Len(k)) // p < k < 2^pw
	groups := make([]mulGroup, 0, 3)
	for i := 0; i <= int(k); i++ {
		// One batched multiplication per level: r_i·borrow, and the
		// normalisation step of bit i-1.
		groups = groups[:0]
		if i < int(k) {
			for t := 0; t < count; t++ {
				xs[t] = rbits[t][i]
			}
			groups = append(groups, mulGroup{xs, borrow, 1, 1})
		}
		if norm && i > 0 {
			for t := range notZ {
				notZ[t] = e.Sub(one, out[t][i-1])
			}
			// v ≤ 2^(k-1) and p < k: both groups are bounded, neither signed.
			groups = append(groups, mulGroup{notZ, vs, 1, k})
			if withP {
				groups = append(groups, mulGroup{notZ, ps, 1, pw})
			}
		}
		if len(groups) == 0 {
			break
		}
		prods := e.mulVecGrouped(groups)
		if i < int(k) {
			rb := prods[0]
			prods = prods[1:]
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
		if norm && i > 0 {
			j := uint(i - 1)
			for t := 0; t < count; t++ {
				z := out[t][j]
				vs[t] = e.Add(e.lsh(z, k-1-j), prods[0][t])
				if withP {
					ps[t] = e.Add(e.mulElem(z, Elem{uint64(j)}), prods[1][t])
				}
			}
		}
	}
	return out, vs, ps
}
