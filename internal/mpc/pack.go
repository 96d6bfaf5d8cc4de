package mpc

import "math/big"

// Packed bounded openings.  Traffic attribution on the update bench shows
// nearly all compute-party bytes are OpenVec share broadcasts, and most of
// the opened values are small: the masked openings of the comparison and
// truncation ladders are bounded by 2^(k+κ+1), and the Beaver differences of
// bit-domain multiplications fit in κ+2 bits once the triple masks are drawn
// bounded instead of uniform (the same statistical-hiding argument, see
// DESIGN.md "Ciphertext packing").  Packing several such values into one
// field element before opening — the same slot discipline as the Paillier
// packing layer (internal/paillier/pack.go) — divides the open traffic by
// the slot count without changing the round structure or any opened result.

// packFieldBits is the packed-plaintext capacity of the field: a packed sum
// must stay strictly below Q = 2^255 - 19, so 254 bits are usable.
const packFieldBits = 254

// packCapacity returns how many width-bit slots fit in one field element.
func packCapacity(width uint) int {
	if width == 0 {
		return 0
	}
	return int(packFieldBits / width)
}

// OpenVecBounded opens values the caller promises are non-negative and
// < 2^width as integers (masked openings, offset Beaver differences).  It
// packs several values per field element with a local linear combination of
// the shares, opens the packed elements in one round, and splits the slots
// back apart — same opened values, same round count, fewer field elements on
// the wire.  The combination is linear, so in authenticated mode it carries
// the MAC shares along: the packed element's MAC share is Σ 2^(jw)·M_j, a
// valid MAC of the packed value, and CheckMACs checks the packed opening
// that every slot is read from.  It opens one value per element when a slot
// cannot fit at least twice in the field.
func (e *Engine) OpenVecBounded(xs []Share, width uint) []*big.Int {
	return elemsToBig(e.openBoundedElems(xs, width))
}

// openBoundedElems is OpenVecBounded for callers inside the package.
func (e *Engine) openBoundedElems(xs []Share, width uint) []Elem {
	slots := packCapacity(width)
	if slots < 2 || len(xs) < 2 {
		return e.openElems(xs)
	}
	groups := (len(xs) + slots - 1) / slots
	packed := make([]Share, groups)
	for g := range packed {
		lo := g * slots
		hi := min(lo+slots, len(xs))
		// Horner from the top slot.
		acc := xs[hi-1]
		for j := hi - 2; j >= lo; j-- {
			acc = e.Add(e.lsh(acc, width), xs[j])
		}
		packed[g] = acc
	}
	totals := e.openElems(packed)
	// The open counted the field elements; account for the logical values.
	e.Stats.OpenValues += int64(len(xs) - len(packed))
	out := make([]Elem, len(xs))
	for j := range out {
		out[j] = totals[j/slots].slot(width*uint(j%slots), width)
	}
	return out
}

// twidth keys the bounded-triple queues by the two mask widths: a is uniform
// in [0, 2^wa), b in [0, 2^wb), c = a·b.
type twidth struct{ wa, wb uint }

// MulVecBounded multiplies pairwise like MulVec, for operands the caller
// promises are non-negative with x < 2^wx and y < 2^wy (bit-domain products
// pass wx = wy = 1).  The Beaver masks are drawn bounded — wx+κ and wy+κ
// bits, hiding the operands to statistical distance 2^-κ exactly like the
// masked openings — so the opened differences are small and pack several per
// field element.  The products are identical to MulVec's.
func (e *Engine) MulVecBounded(xs, ys []Share, wx, wy uint) []Share {
	if len(xs) != len(ys) {
		panic("mpc: MulVecBounded length mismatch")
	}
	if len(xs) == 0 {
		return nil
	}
	wa, wb := wx+e.cfg.Kappa, wy+e.cfg.Kappa
	slotW := wa
	if wb > slotW {
		slotW = wb
	}
	slotW++
	// c = a·b must stay below Q, and a slot must fit at least twice.
	if wa+wb >= 254 || packCapacity(slotW) < 2 {
		return e.MulVec(xs, ys)
	}
	e.Stats.Mults += int64(len(xs))
	ts := take(e, e.boundedQueue(wa, wb), len(xs))
	offA, offB := Elem{1}.Lsh(wa), Elem{1}.Lsh(wb)
	opens := make([]Share, 2*len(xs))
	for i := range xs {
		// d = x - a ∈ (-2^wa, 2^wx]; d + 2^wa is non-negative and < 2^slotW.
		opens[2*i] = e.addElem(e.Sub(xs[i], ts[i].a), offA)
		opens[2*i+1] = e.addElem(e.Sub(ys[i], ts[i].b), offB)
	}
	vals := e.openBoundedElems(opens, slotW)
	out := make([]Share, len(xs))
	parallelFor(len(xs), e.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = e.beaver(&ts[i], vals[2*i].Sub(offA), vals[2*i+1].Sub(offB))
		}
	})
	return out
}

// mulVecBits multiplies pairwise values shared as bits (the AND gates of the
// comparison ladders and borrow chains).
func (e *Engine) mulVecBits(xs, ys []Share) []Share {
	return e.MulVecBounded(xs, ys, 1, 1)
}

// MulVecSigned multiplies pairwise like MulVec, for operands the caller
// promises are bounded in magnitude as signed values: |x| < 2^wx and
// |y| < 2^wy.  Each operand is lifted into the non-negative bounded domain
// (x + 2^wx < 2^(wx+1)) so the bounded-mask Beaver path applies, and the
// three cross-terms of the lift are removed locally:
//
//	x·y = (x+X)(y+Y) − Y·x − X·y − X·Y,  X = 2^wx, Y = 2^wy.
//
// The products are identical to MulVec's; only the opened Beaver differences
// change (they pack several per field element).  Falls back to MulVec under
// the same conditions as MulVecBounded.
func (e *Engine) MulVecSigned(xs, ys []Share, wx, wy uint) []Share {
	if len(xs) != len(ys) {
		panic("mpc: MulVecSigned length mismatch")
	}
	if len(xs) == 0 {
		return nil
	}
	// Mirror MulVecBounded's fallback condition for the lifted widths so the
	// lift is only paid when packing actually happens.
	wa, wb := wx+1+e.cfg.Kappa, wy+1+e.cfg.Kappa
	slotW := wa
	if wb > slotW {
		slotW = wb
	}
	slotW++
	if wa+wb >= 254 || packCapacity(slotW) < 2 {
		return e.MulVec(xs, ys)
	}
	X, Y := Elem{1}.Lsh(wx), Elem{1}.Lsh(wy)
	lx := make([]Share, len(xs))
	ly := make([]Share, len(ys))
	for i := range xs {
		lx[i] = e.addElem(xs[i], X)
		ly[i] = e.addElem(ys[i], Y)
	}
	prods := e.MulVecBounded(lx, ly, wx+1, wy+1)
	negXY := X.Mul(Y).Neg()
	out := make([]Share, len(xs))
	for i := range xs {
		z := e.Sub(prods[i], e.lsh(xs[i], wy))
		z = e.Sub(z, e.lsh(ys[i], wx))
		out[i] = e.addElem(z, negXY)
	}
	return out
}
