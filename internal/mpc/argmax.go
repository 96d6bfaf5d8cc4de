package mpc

// Oblivious argmax, the "secure maximum computation" of §4.1: the clients
// scan all candidates, obliviously keeping the running maximum and its
// identifier via secure comparison and selection, so that neither the gains
// nor the winning index are revealed.

// ArgmaxResult carries the shared maximum and the shared identifier fields.
type ArgmaxResult struct {
	Max Share
	IDs []Share // one share per identifier column (e.g. i*, j*, s*)
}

// ArgmaxLinear performs the paper's sequential oblivious-update loop:
// O(len) secure comparisons, one after another.  ids[t] are the public
// identifier columns of candidate t.  k bounds |vals| (signed).
func (e *Engine) ArgmaxLinear(vals []Share, ids [][]int64, k uint) ArgmaxResult {
	if len(vals) == 0 {
		panic("mpc: argmax of empty set")
	}
	cols := len(ids[0])
	cur := ArgmaxResult{Max: vals[0], IDs: make([]Share, cols)}
	for c := 0; c < cols; c++ {
		cur.IDs[c] = e.ConstInt64(ids[0][c])
	}
	for t := 1; t < len(vals); t++ {
		sign := e.LT(cur.Max, vals[t], k)
		// One batched round for all selects: max plus each id column.
		as := make([]Share, 0, cols+1)
		bs := make([]Share, 0, cols+1)
		as = append(as, vals[t])
		bs = append(bs, cur.Max)
		for c := 0; c < cols; c++ {
			as = append(as, e.ConstInt64(ids[t][c]))
			bs = append(bs, cur.IDs[c])
		}
		sel := e.SelectVec(sign, as, bs)
		cur.Max = sel[0]
		cur.IDs = sel[1:]
	}
	return cur
}

// ArgmaxTournament is a latency-optimized variant (log₂(len) comparison
// rounds, each batched).  It is not part of the paper's protocol; the
// ablation benchmark compares the two (see EXPERIMENTS.md).
func (e *Engine) ArgmaxTournament(vals []Share, ids [][]int64, k uint) ArgmaxResult {
	if len(vals) == 0 {
		panic("mpc: argmax of empty set")
	}
	cols := len(ids[0])
	cand := make([]ArgmaxResult, len(vals))
	for t := range vals {
		cand[t] = ArgmaxResult{Max: vals[t], IDs: make([]Share, cols)}
		for c := 0; c < cols; c++ {
			cand[t].IDs[c] = e.ConstInt64(ids[t][c])
		}
	}
	for len(cand) > 1 {
		half := len(cand) / 2
		// Batch all comparisons at this level.
		xs := make([]Share, half)
		ys := make([]Share, half)
		for i := 0; i < half; i++ {
			xs[i] = cand[2*i].Max
			ys[i] = cand[2*i+1].Max
		}
		signs := e.LTVec(xs, ys, k)
		// Batch all selects at this level.
		var sa, sb, ss []Share
		for i := 0; i < half; i++ {
			sa = append(sa, cand[2*i+1].Max)
			sb = append(sb, cand[2*i].Max)
			ss = append(ss, signs[i])
			for c := 0; c < cols; c++ {
				sa = append(sa, cand[2*i+1].IDs[c])
				sb = append(sb, cand[2*i].IDs[c])
				ss = append(ss, signs[i])
			}
		}
		sel := e.selectPairwise(ss, sa, sb)
		next := make([]ArgmaxResult, 0, (len(cand)+1)/2)
		stride := cols + 1
		for i := 0; i < half; i++ {
			r := ArgmaxResult{Max: sel[i*stride], IDs: sel[i*stride+1 : (i+1)*stride]}
			next = append(next, r)
		}
		if len(cand)%2 == 1 {
			next = append(next, cand[len(cand)-1])
		}
		cand = next
	}
	return cand[0]
}

// Argmax dispatches on the engine's configured strategy (linear is the
// paper's; tournament is the ablation).
func (e *Engine) Argmax(vals []Share, ids [][]int64, k uint, tournament bool) ArgmaxResult {
	if tournament {
		return e.ArgmaxTournament(vals, ids, k)
	}
	return e.ArgmaxLinear(vals, ids, k)
}

// ArgmaxGrouped runs one oblivious argmax per group over a concatenated
// value vector: vals holds the groups back to back, groups[g] is group g's
// size, and ids[t] are the public identifier columns of element t of vals.
// Every comparison and selection round is shared across all groups, so the
// round cost of a whole batch equals that of its largest group — the
// level-wise training pipeline uses this to resolve the best split of every
// frontier node at a tree depth in one round chain.  Per group, the result
// is exactly what Argmax on that group's slice would return (same scan
// order, same tie-breaking).
func (e *Engine) ArgmaxGrouped(vals []Share, groups []int, ids [][]int64, k uint, tournament bool) []ArgmaxResult {
	total := 0
	for _, sz := range groups {
		if sz <= 0 {
			panic("mpc: argmax of empty group")
		}
		total += sz
	}
	if total != len(vals) || len(ids) != len(vals) {
		panic("mpc: grouped argmax length mismatch")
	}
	if tournament {
		return e.argmaxGroupedTournament(vals, groups, ids, k)
	}
	return e.argmaxGroupedLinear(vals, groups, ids, k)
}

// argmaxGroupedLinear advances the paper's sequential oblivious-update loop
// in lockstep across groups: step t compares every group's running maximum
// against its t-th candidate in one batched comparison, then applies all
// selections in one batched multiplication round.
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

// argmaxGroupedTournament plays every group's elimination bracket
// simultaneously, batching each round's comparisons and selections across
// groups (log₂ of the largest group size comparison rounds in total).
func (e *Engine) argmaxGroupedTournament(vals []Share, groups []int, ids [][]int64, k uint) []ArgmaxResult {
	G := len(groups)
	cols := len(ids[0])
	cands := make([][]ArgmaxResult, G)
	off := 0
	for g, sz := range groups {
		cands[g] = make([]ArgmaxResult, sz)
		for t := 0; t < sz; t++ {
			cands[g][t] = ArgmaxResult{Max: vals[off+t], IDs: make([]Share, cols)}
			for c := 0; c < cols; c++ {
				cands[g][t].IDs[c] = e.ConstInt64(ids[off+t][c])
			}
		}
		off += sz
	}
	for {
		pending := false
		for g := range cands {
			if len(cands[g]) > 1 {
				pending = true
			}
		}
		if !pending {
			break
		}
		// Batch all groups' comparisons at this bracket level.
		var xs, ys []Share
		halves := make([]int, G)
		for g := range cands {
			halves[g] = len(cands[g]) / 2
			for i := 0; i < halves[g]; i++ {
				xs = append(xs, cands[g][2*i].Max)
				ys = append(ys, cands[g][2*i+1].Max)
			}
		}
		signs := e.LTVec(xs, ys, k)
		var ss, sa, sb []Share
		pos := 0
		for g := range cands {
			for i := 0; i < halves[g]; i++ {
				sign := signs[pos]
				pos++
				ss = append(ss, sign)
				sa = append(sa, cands[g][2*i+1].Max)
				sb = append(sb, cands[g][2*i].Max)
				for c := 0; c < cols; c++ {
					ss = append(ss, sign)
					sa = append(sa, cands[g][2*i+1].IDs[c])
					sb = append(sb, cands[g][2*i].IDs[c])
				}
			}
		}
		sel := e.selectPairwise(ss, sa, sb)
		stride := cols + 1
		base := 0
		for g := range cands {
			next := make([]ArgmaxResult, 0, (len(cands[g])+1)/2)
			for i := 0; i < halves[g]; i++ {
				j := base + i
				next = append(next, ArgmaxResult{Max: sel[j*stride], IDs: sel[j*stride+1 : (j+1)*stride]})
			}
			if len(cands[g])%2 == 1 {
				next = append(next, cands[g][len(cands[g])-1])
			}
			base += halves[g]
			cands[g] = next
		}
	}
	out := make([]ArgmaxResult, G)
	for g := range out {
		out[g] = cands[g][0]
	}
	return out
}
