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

// ArgmaxTournament is the latency-optimized schedule (log₂(len) comparison
// rounds, each batched) with the same winner as the linear scan: the first
// maximum.  The ablation-argmax experiment compares the two.
func (e *Engine) ArgmaxTournament(vals []Share, ids [][]int64, k uint) ArgmaxResult {
	return e.ArgmaxGrouped(vals, []int{len(vals)}, ids, k)[0]
}

// Argmax runs the schedule the caller names: the paper's linear scan, or the
// tournament (what ArgmaxGrouped, and so training and prediction, run).
func (e *Engine) Argmax(vals []Share, ids [][]int64, k uint, tournament bool) ArgmaxResult {
	if tournament {
		return e.ArgmaxTournament(vals, ids, k)
	}
	return e.ArgmaxLinear(vals, ids, k)
}

// ArgmaxGrouped runs one oblivious argmax per group over a concatenated
// value vector: vals holds the groups back to back, groups[g] is group g's
// size, and ids[t] are the public identifier columns of element t of vals.
// Every group's elimination bracket is played simultaneously, each round's
// comparisons and selections batched across groups, so the round cost of a
// whole batch is log₂ of its largest group's size — the level-wise training
// pipeline uses this to resolve the best split of every frontier node at a
// tree depth in one round chain.  Per group, the result is exactly what
// ArgmaxTournament on that group's slice returns, and the winner is the
// paper's sequential scan's: the first maximum.
func (e *Engine) ArgmaxGrouped(vals []Share, groups []int, ids [][]int64, k uint) []ArgmaxResult {
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
