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
	return e.openPacked(xs, uniformWidths(len(xs), width))
}

// openPacked opens values the caller promises are non-negative and below
// 2^widths[j], packed (packSlots) into one round.
func (e *Engine) openPacked(xs []Share, widths []uint) []Elem {
	packed := e.packSlots(xs, widths)
	totals := e.openElems(packed)
	// The open counted the field elements; account for the logical values.
	e.Stats.OpenValues += int64(len(xs) - len(packed))
	return unpackSlots(totals, widths)
}

// fullSlot is the width of a value that is not bounded: it fills a field
// element alone.
const fullSlot = packFieldBits + 1

// slotLayout places value j of a packed opening at bit offset shift of
// element elem: each value takes the next widths[j] bits of the current
// element, or starts the next element when it would pass packFieldBits.
// Values of one width w therefore pack ⌊254/w⌋ to an element, one alone when
// a slot cannot fit twice.  It returns the number of elements.
func slotLayout(widths []uint, place func(j, elem int, shift uint)) int {
	elem, used := 0, uint(0)
	for j, w := range widths {
		if used > 0 && used+w > packFieldBits {
			elem, used = elem+1, 0
		}
		place(j, elem, used)
		used += w
	}
	if len(widths) == 0 {
		return 0
	}
	return elem + 1
}

// packSlots packs xs by slotLayout.  It is a local linear combination of the
// shares, so the MAC shares follow.  When no two values share an element it
// returns xs itself.
func (e *Engine) packSlots(xs []Share, widths []uint) []Share {
	n := slotLayout(widths, func(int, int, uint) {})
	if n == len(xs) {
		return xs
	}
	packed := make([]Share, n)
	slotLayout(widths, func(j, elem int, shift uint) {
		packed[elem] = e.Add(packed[elem], e.lsh(xs[j], shift))
	})
	return packed
}

// unpackSlots splits the values packSlots packed back out of the opened
// elements.
func unpackSlots(opened []Elem, widths []uint) []Elem {
	if len(opened) == len(widths) {
		return opened // one value per element
	}
	out := make([]Elem, len(widths))
	slotLayout(widths, func(j, elem int, shift uint) {
		out[j] = opened[elem].slot(shift, widths[j])
	})
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
	return e.mulVecGrouped([]mulGroup{{xs, ys, wx, wy}})[0]
}

// mulGroup is one group of a grouped multiply: pairwise products x·y of
// operands the caller promises are non-negative with x < 2^wx and y < 2^wy
// (fullSlot: no bound).
type mulGroup struct {
	xs, ys []Share
	wx, wy uint
}

// boundedFits reports whether wx×wy products take bounded triples: c = a·b
// must stay below Q, and a slot must fit at least twice in the field.
func (e *Engine) boundedFits(wx, wy uint) bool {
	wa, wb := wx+e.cfg.Kappa, wy+e.cfg.Kappa
	return wa+wb < 254 && packCapacity(max(wa, wb)+1) >= 2
}

// mulVecGrouped multiplies every group and opens all their Beaver
// differences in one round.  A group that boundedFits draws bounded triples
// and packs each difference at its own slot width (x − a at wx+κ+1 bits,
// y − b at wy+κ+1), so bit products that share a round with wide products
// keep their narrow slots; any other group takes uniform triples and opens
// each difference in an element of its own.
func (e *Engine) mulVecGrouped(groups []mulGroup) [][]Share {
	type plan struct {
		ts         []triple
		offA, offB Elem // lift the differences to non-negative values
		at         int  // the group's first difference in the opening
	}
	plans := make([]plan, len(groups))
	n := 0
	for _, grp := range groups {
		n += 2 * len(grp.xs)
	}
	diffs, widths := make([]Share, 0, n), make([]uint, 0, n)
	for g, grp := range groups {
		if len(grp.xs) != len(grp.ys) {
			panic("mpc: multiply length mismatch")
		}
		pl := &plans[g]
		pl.at = len(diffs)
		if len(grp.xs) == 0 {
			continue
		}
		e.Stats.Mults += int64(len(grp.xs))
		wa, wb := grp.wx+e.cfg.Kappa, grp.wy+e.cfg.Kappa
		slotA, slotB := uint(fullSlot), uint(fullSlot)
		if e.boundedFits(grp.wx, grp.wy) {
			pl.ts = take(e, e.boundedQueue(wa, wb), len(grp.xs))
			pl.offA, pl.offB = Elem{1}.Lsh(wa), Elem{1}.Lsh(wb)
			slotA, slotB = wa+1, wb+1
		} else {
			pl.ts = take(e, e.triples, len(grp.xs))
		}
		for i := range grp.xs {
			dx, dy := e.Sub(grp.xs[i], pl.ts[i].a), e.Sub(grp.ys[i], pl.ts[i].b)
			if slotA != fullSlot {
				// d = x - a ∈ (-2^wa, 2^wx]; d + 2^wa is non-negative and
				// < 2^(wa+1).
				dx, dy = e.addElem(dx, pl.offA), e.addElem(dy, pl.offB)
			}
			diffs = append(diffs, dx, dy)
			widths = append(widths, slotA, slotB)
		}
	}
	out := make([][]Share, len(groups))
	if len(diffs) == 0 {
		return out
	}
	vals := e.openPacked(diffs, widths)
	for g, grp := range groups {
		pl := &plans[g]
		if len(grp.xs) == 0 {
			continue
		}
		ds := vals[pl.at:]
		prods := make([]Share, len(grp.xs))
		// Beaver recombination is communication-free and touches only
		// immutable engine state, so it parallelizes across the workers.
		parallelFor(len(prods), e.cfg.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				prods[i] = e.beaver(&pl.ts[i], ds[2*i].Sub(pl.offA), ds[2*i+1].Sub(pl.offB))
			}
		})
		out[g] = prods
	}
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
// change (they pack several per field element).  Falls back to MulVec where
// the lifted widths do not fit bounded triples.
func (e *Engine) MulVecSigned(xs, ys []Share, wx, wy uint) []Share {
	if len(xs) != len(ys) {
		panic("mpc: MulVecSigned length mismatch")
	}
	if len(xs) == 0 {
		return nil
	}
	// The lift is only paid when the lifted products take bounded triples.
	if !e.boundedFits(wx+1, wy+1) {
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
