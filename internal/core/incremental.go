package core

import (
	"fmt"
	"math/big"

	"repro/internal/dataset"
	"repro/internal/mpc"
	"repro/internal/paillier"
)

// Incremental training (ROADMAP "Online federation", minus PSI churn): a
// federation that has already trained and released a model absorbs a new
// batch of aligned samples without retraining from scratch.  Under the
// basic protocol the trees are public, so every split decision can be
// *replayed* over the appended rows with pure HE traffic (zero MPC
// rounds): each owner recomputes its nodes' left-mask vectors against the
// frozen candidate-split grid and broadcasts them, exactly the model-update
// step of §4.1 but with the argmax already decided.  What remains secure
// computation is only the leaf re-resolution (DT/RF) or the new boosting
// rounds (GBDT) — O(new levels) round chains instead of a full retrain.
//
// What an absorb does and does not re-decide:
//   - DT/RF: tree structure (owners, features, thresholds) is FIXED; only
//     the leaf labels are re-resolved over the union via the same batched
//     leaf chain the level-wise trainer uses.
//   - GBDT: existing trees are fixed (structure and leaves); the encrypted
//     residual/score channels are rebuilt over the union by replaying each
//     tree's leaf masks, then AddTrees fresh boosting rounds run on top.
//     The base prediction (label mean at original training time) is NOT
//     re-centered — later trees absorb any drift, like any warm start.
//
// Enhanced, malicious and DP modes refuse: enhanced never discloses the
// tree (nothing to replay), the §9.1 malicious proofs cover full training
// transcripts only, and DP noise would compound across repeated absorbs.

// UpdateSpec describes one incremental absorb.
type UpdateSpec struct {
	// Model is the trained predictor to warm-start from (*Model,
	// *ForestModel or *BoostModel, basic protocol).
	Model Predictor
	// Append holds one partition per client with the new aligned rows:
	// the same samples at every client, disjoint features matching the
	// session's layout, labels at the super client only.
	Append []*dataset.Partition
	// AddTrees is the number of fresh boosting rounds a GBDT absorb
	// trains on top of the replayed ensemble (minimum and default 1).
	// DT/RF absorbs refine leaves only and ignore it.
	AddTrees int
}

// Update absorbs spec.Append into spec.Model on the session and returns
// the refreshed predictor.  The session's partitions grow by the appended
// rows (copy-on-append: prior Partition structs are never mutated, so
// other sessions sharing them keep serving the old view).
func Update(s *Session, spec UpdateSpec) (Predictor, error) {
	out := make([]Predictor, s.M)
	err := s.Each(func(p *Party) error {
		mdl, err := p.update(spec)
		out[p.ID] = mdl
		return err
	})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// AppendSamples grows the session's partitions by the new rows without
// touching any model — the data-sync half of Update, used by serve.Service
// to keep the lanes that did not run the update chain aligned with the one
// that did, and to replay the absorb log into a rebuilt lane.  Purely local at every party: no protocol traffic.
func AppendSamples(s *Session, parts []*dataset.Partition) error {
	if len(parts) != s.M {
		return fmt.Errorf("core: %d appended partitions for %d clients", len(parts), s.M)
	}
	return s.Each(func(p *Party) error { return p.appendData(parts[p.ID]) })
}

// update is the SPMD body of Update.
func (p *Party) update(spec UpdateSpec) (Predictor, error) {
	defer p.gatherStats()
	if p.cfg.Protocol != Basic {
		return nil, p.errf("incremental update requires the basic protocol: a warm start replays the released plaintext trees, which enhanced mode never discloses")
	}
	if p.cfg.Malicious {
		return nil, p.errf("incremental update is unavailable in malicious mode: the §9.1 proofs cover full training transcripts, not replayed absorbs")
	}
	if p.cfg.DP != nil {
		return nil, p.errf("incremental update is unavailable with DP noise: per-absorb noise would compound across repeated updates")
	}
	if len(spec.Append) != p.M {
		return nil, p.errf("update: %d appended partitions for %d clients", len(spec.Append), p.M)
	}

	oldN := p.part.N
	if err := p.appendData(spec.Append[p.ID]); err != nil {
		return nil, err
	}

	// Absorbs are not checkpointed: a crash mid-update falls back to the
	// registered model plus a fresh Update call over the same batch.
	ck := p.ck
	p.ck = nil
	defer func() { p.ck = ck }()

	var out Predictor
	err := timed(&p.Stats.Wall, func() error {
		var err error
		switch m := spec.Model.(type) {
		case *Model:
			if err = replayable(m); err == nil {
				out, err = p.updateDT(m)
			}
		case *ForestModel:
			for _, t := range m.Trees {
				if err = replayable(t); err != nil {
					break
				}
			}
			if err == nil {
				out, err = p.updateRF(m, oldN)
			}
		case *BoostModel:
			for _, f := range m.Forests {
				for _, t := range f {
					if err = replayable(t); err != nil {
						break
					}
				}
			}
			if err == nil {
				add := spec.AddTrees
				if add < 1 {
					add = 1
				}
				if m.Classes > 0 {
					out, err = p.updateGBDTCls(m, add)
				} else {
					out, err = p.updateGBDTReg(m, add)
				}
			}
		default:
			err = p.errf("update: unsupported model type %T", spec.Model)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// replayable rejects models whose split decisions are not public.
func replayable(m *Model) error {
	if m == nil {
		return fmt.Errorf("core: update: nil model")
	}
	if m.Protocol != Basic {
		return fmt.Errorf("core: update: model conceals its splits; only released basic-protocol trees can be replayed")
	}
	return nil
}

// appendData grows this party's partition by the new rows.  Copy-on-append:
// serving lanes share Partition pointers, so the old struct stays untouched
// while other lanes keep serving from it.  The candidate-split grid (and so
// every peer's splitCounts) is frozen — only the indicator vectors extend,
// keeping released SplitIndex values valid for replay.
func (p *Party) appendData(np *dataset.Partition) error {
	if np == nil || np.N == 0 || len(np.X) != np.N {
		return p.errf("update: client %d: empty or malformed appended batch", p.ID)
	}
	if np.Client != p.ID {
		return p.errf("update: partition for client %d handed to client %d", np.Client, p.ID)
	}
	if len(np.Features) != len(p.part.Features) {
		return p.errf("update: client %d: appended batch has %d features, partition has %d",
			p.ID, len(np.Features), len(p.part.Features))
	}
	for t, row := range np.X {
		if len(row) != len(p.part.Features) {
			return p.errf("update: client %d: appended row %d has %d features, want %d",
				p.ID, t, len(row), len(p.part.Features))
		}
	}
	if p.ID == p.Super {
		if len(np.Y) != np.N {
			return p.errf("update: super client needs a label for each of the %d appended samples, got %d", np.N, len(np.Y))
		}
		if c := p.part.Classes; c > 0 {
			for t, y := range np.Y {
				if y != float64(int(y)) || int(y) < 0 || int(y) >= c {
					return p.errf("update: appended label %v at row %d outside [0,%d)", y, t, c)
				}
			}
		}
	}

	n := p.part.N + np.N
	part := &dataset.Partition{
		Client:   p.part.Client,
		Features: p.part.Features,
		Classes:  p.part.Classes,
		N:        n,
	}
	part.X = make([][]float64, 0, n)
	part.X = append(part.X, p.part.X...)
	part.X = append(part.X, np.X...)
	if p.part.Y != nil {
		part.Y = make([]float64, 0, n)
		part.Y = append(part.Y, p.part.Y...)
		part.Y = append(part.Y, np.Y...)
	}
	for j := range p.cands {
		// Copy-on-append, like the indicators: lane contexts share the slices.
		bucket := append(make([]int, 0, n), p.bucket[j]...)
		for t := 0; t < np.N; t++ {
			bucket = append(bucket, bucketOf(p.cands[j], np.X[t][j]))
		}
		p.bucket[j] = bucket
		for s, tau := range p.cands[j] {
			v := make([]*big.Int, 0, n)
			v = append(v, p.indic[j][s]...)
			for t := 0; t < np.N; t++ {
				if np.X[t][j] <= tau {
					v = append(v, big.NewInt(1))
				} else {
					v = append(v, big.NewInt(0))
				}
			}
			p.indic[j][s] = v
		}
	}
	p.part = part
	// Count widths grow with log n; every party recomputes identically.
	p.w = p.cfg.widths(n)
	return nil
}

// replayNode is one frontier entry of the structure replay.
type replayNode struct {
	tree  int
	idx   int // node index within its tree
	alpha []*paillier.Ciphertext
}

// replayLeafAlphas recomputes every tree's encrypted per-leaf mask vectors
// over the current (post-append) samples by replaying the public split
// structure level by level: per level, each owner computes all of its
// nodes' left masks in one rerandomized batch and broadcasts them once
// (right masks derive locally and deterministically, as in §4.1).  Costs
// O(max depth) HE broadcast phases total — across all trees — and zero MPC
// rounds.  rootCounts supplies per-tree root multiplicities (nil = all
// ones; RF passes bootstrap counts).
func (p *Party) replayLeafAlphas(trees []*Model, rootCounts [][]int64) ([][][]*paillier.Ciphertext, error) {
	n := p.part.N
	las := make([][][]*paillier.Ciphertext, len(trees))
	for w, tree := range trees {
		las[w] = make([][]*paillier.Ciphertext, tree.Leaves)
	}

	// Root masks for every tree in one encrypt+broadcast batch.
	var flat []*paillier.Ciphertext
	if p.ID == p.Super {
		vals := make([]*big.Int, 0, len(trees)*n)
		for w := range trees {
			for t := 0; t < n; t++ {
				if rootCounts == nil || rootCounts[w] == nil {
					vals = append(vals, big.NewInt(1))
				} else {
					vals = append(vals, big.NewInt(rootCounts[w][t]))
				}
			}
		}
		p.poolReserve(len(vals))
		cts, err := p.encryptVec(vals)
		if err != nil {
			return nil, err
		}
		if err := p.broadcastCtsChunked(cts); err != nil {
			return nil, err
		}
		flat = cts
	} else {
		var err error
		flat, err = p.recvCtsChunked(p.Super, len(trees)*n)
		if err != nil {
			return nil, err
		}
	}

	frontier := make([]replayNode, len(trees))
	for w := range trees {
		frontier[w] = replayNode{tree: w, alpha: flat[w*n : (w+1)*n]}
	}
	for len(frontier) > 0 {
		var next []replayNode
		byOwner := make([][]replayNode, p.M)
		for _, rn := range frontier {
			node := &trees[rn.tree].Nodes[rn.idx]
			if node.Leaf {
				las[rn.tree][node.LeafPos] = rn.alpha
				continue
			}
			byOwner[node.Owner] = append(byOwner[node.Owner], rn)
		}

		var mine []*paillier.Ciphertext
		if nodes := byOwner[p.ID]; len(nodes) > 0 {
			cts := make([]*paillier.Ciphertext, 0, len(nodes)*n)
			betas := make([]*big.Int, 0, len(nodes)*n)
			for _, rn := range nodes {
				node := &trees[rn.tree].Nodes[rn.idx]
				cts = append(cts, rn.alpha...)
				betas = append(betas, p.indic[node.Feature][node.SplitIndex]...)
			}
			p.poolReserve(len(cts))
			var err error
			mine, err = p.scalarMulRerandVec(cts, betas)
			if err != nil {
				return nil, err
			}
			if err := p.broadcastCtsChunked(mine); err != nil {
				return nil, err
			}
		}
		for o := 0; o < p.M; o++ {
			nodes := byOwner[o]
			if len(nodes) == 0 {
				continue
			}
			lefts := mine
			if o != p.ID {
				var err error
				lefts, err = p.recvCtsChunked(o, len(nodes)*n)
				if err != nil {
					return nil, err
				}
			}
			for i, rn := range nodes {
				node := &trees[rn.tree].Nodes[rn.idx]
				left := lefts[i*n : (i+1)*n]
				right := p.pk.SubVec(rn.alpha, left, p.cfg.Workers)
				p.Stats.HEOps += int64(n)
				next = append(next,
					replayNode{tree: rn.tree, idx: node.Left, alpha: left},
					replayNode{tree: rn.tree, idx: node.Right, alpha: right})
			}
		}
		frontier = next
	}
	return las, nil
}

// refreshLeaves re-resolves cloned trees' leaf labels over the current
// samples, structure fixed: every tree's leaves ride one shared batched
// leaf chain (the same makeLeavesLevel the level-wise trainer uses).
func (p *Party) refreshLeaves(trees []*Model, las [][][]*paillier.Ciphertext) ([]*Model, error) {
	clones := make([]*Model, len(trees))
	tasks := make([]*treeTask, len(trees))
	var entries []frontierNode
	for w, tree := range trees {
		clones[w] = &Model{
			Nodes:    append([]Node(nil), tree.Nodes...),
			Classes:  tree.Classes,
			Protocol: tree.Protocol,
			Hide:     tree.Hide,
			// Leaves stays 0: makeLeavesLevel counts positions back up, and
			// feeding entries in LeafPos order makes them land where the
			// original structure put them.
		}
		tasks[w] = &treeTask{model: clones[w]}
		for pos := 0; pos < tree.Leaves; pos++ {
			entries = append(entries, frontierNode{nd: nodeData{alpha: las[w][pos]}, tree: w})
		}
	}
	if len(entries) == 0 {
		return clones, nil
	}
	if clones[0].Classes == 0 {
		// Regression leaves divide by the leaf count, which arrives via
		// the entry's nShare — one batched conversion fills them all.
		cts := make([]*paillier.Ciphertext, len(entries))
		for i := range entries {
			cts[i] = p.foldAdd(entries[i].nd.alpha)
		}
		shares, err := p.encToShares(cts, len(entries), p.w.count+2)
		if err != nil {
			return nil, err
		}
		for i := range entries {
			entries[i].nShare = shares[i]
		}
	}
	nodes, err := p.makeLeavesLevel(tasks, entries)
	if err != nil {
		return nil, err
	}
	off := 0
	for w, clone := range clones {
		for j := range clone.Nodes {
			if clone.Nodes[j].Leaf {
				clone.Nodes[j].Label = nodes[off+clone.Nodes[j].LeafPos].Label
			}
		}
		off += trees[w].Leaves
	}
	return clones, nil
}

// updateDT refines a decision tree's leaves over the union.
func (p *Party) updateDT(m *Model) (*Model, error) {
	las, err := p.replayLeafAlphas([]*Model{m}, nil)
	if err != nil {
		return nil, p.errf("update replay: %v", err)
	}
	clones, err := p.refreshLeaves([]*Model{m}, las)
	if err != nil {
		return nil, err
	}
	return clones[0], nil
}

// updateRF refines every forest tree's leaves over the union.  Old rows
// keep the bootstrap multiplicities their tree was trained with (the
// counts are a public function of the session seed); appended rows enter
// every tree with multiplicity one.
func (p *Party) updateRF(fm *ForestModel, oldN int) (*ForestModel, error) {
	n := p.part.N
	counts := make([][]int64, len(fm.Trees))
	for w := range fm.Trees {
		ext := make([]int64, n)
		copy(ext, bootstrapCounts(oldN, p.cfg.Subsample, uint64(p.cfg.Seed)+uint64(w)))
		for t := oldN; t < n; t++ {
			ext[t] = 1
		}
		counts[w] = ext
	}
	las, err := p.replayLeafAlphas(fm.Trees, counts)
	if err != nil {
		return nil, p.errf("update replay: %v", err)
	}
	clones, err := p.refreshLeaves(fm.Trees, las)
	if err != nil {
		return nil, err
	}
	return &ForestModel{Trees: clones, Classes: fm.Classes}, nil
}

// updateGBDTReg warm-starts a regression GBDT: the encrypted residual
// channel is rebuilt over the union (Enc(y − Base) minus each existing
// tree's ν-scaled estimation via replayed leaf masks, all local HE after
// the replay), then addTrees fresh rounds run through the standard
// boosting loop.
func (p *Party) updateGBDTReg(bm *BoostModel, addTrees int) (*BoostModel, error) {
	n := p.part.N
	old := bm.Forests[0]
	nu := bm.LearningRate
	if nu == 0 {
		nu = p.cfg.LearningRate
	}
	out := &BoostModel{
		LearningRate: nu, Base: bm.Base,
		Forests: [][]*Model{append([]*Model(nil), old...)},
	}

	var encY []*paillier.Ciphertext
	if p.ID == p.Super {
		vals := make([]*big.Int, n)
		for t := 0; t < n; t++ {
			vals[t] = p.cod.Encode(p.part.Y[t] - bm.Base)
		}
		p.poolReserve(n)
		cts, err := p.encryptVec(vals)
		if err != nil {
			return nil, err
		}
		if err := p.broadcastCtsChunked(cts); err != nil {
			return nil, err
		}
		encY = cts
	} else {
		var err error
		encY, err = p.recvCtsChunked(p.Super, n)
		if err != nil {
			return nil, err
		}
	}
	las, err := p.replayLeafAlphas(old, nil)
	if err != nil {
		return nil, p.errf("update replay: %v", err)
	}
	for w, tree := range old {
		encY = p.residualUpdate(encY, tree, las[w], nu)
	}

	restore := p.cfg
	defer func() { p.cfg = restore }()
	p.cfg.NumTrees = len(old) + addTrees
	p.cfg.LearningRate = nu
	if err := p.gbdtRegRounds(out, encY, len(old)); err != nil {
		return nil, err
	}
	return out, nil
}

// updateGBDTCls warm-starts a classification GBDT: one-hot targets are
// re-input over the union, every existing tree's leaf masks are replayed
// in one batch, the encrypted score channels rebuild locally, and the last
// pre-trained round is handed to gbdtClsRounds as its "already trained"
// round — its bookkeeping (score accumulation + softmax residual refresh)
// is exactly the inter-round chain a fresh run pays, so the warm start
// re-enters the standard loop with no duplicated protocol code.
func (p *Party) updateGBDTCls(bm *BoostModel, addTrees int) (*BoostModel, error) {
	c := bm.Classes
	n := p.part.N
	nu := bm.LearningRate
	if nu == 0 {
		nu = p.cfg.LearningRate
	}
	oldRounds := len(bm.Forests[0])
	for k := 0; k < c; k++ {
		if len(bm.Forests[k]) != oldRounds {
			return nil, p.errf("update: ragged GBDT forests (class %d has %d trees, class 0 has %d)",
				k, len(bm.Forests[k]), oldRounds)
		}
	}
	if oldRounds == 0 {
		return nil, p.errf("update: GBDT model has no trained rounds")
	}

	onehot := make([][]mpc.Share, c)
	for k := 0; k < c; k++ {
		vals := make([]*big.Int, n)
		for t := 0; t < n && p.ID == p.Super; t++ {
			var oh float64
			if int(p.part.Y[t]) == k {
				oh = 1
			}
			vals[t] = p.cod.Encode(oh)
		}
		onehot[k] = p.eng.InputVec(p.Super, vals)
	}

	flatTrees := make([]*Model, 0, oldRounds*c)
	for w := 0; w < oldRounds; w++ {
		for k := 0; k < c; k++ {
			flatTrees = append(flatTrees, bm.Forests[k][w])
		}
	}
	las, err := p.replayLeafAlphas(flatTrees, nil)
	if err != nil {
		return nil, p.errf("update replay: %v", err)
	}

	out := &BoostModel{Classes: c, LearningRate: nu, Base: bm.Base, Forests: make([][]*Model, c)}
	scores := make([][]*paillier.Ciphertext, c)
	for w := 0; w < oldRounds-1; w++ {
		for k := 0; k < c; k++ {
			out.Forests[k] = append(out.Forests[k], bm.Forests[k][w])
			scores[k] = p.accumulateScores(scores[k], bm.Forests[k][w], las[w*c+k], nu)
		}
	}
	lastTrees := make([]*Model, c)
	lastLas := make([][][]*paillier.Ciphertext, c)
	for k := 0; k < c; k++ {
		lastTrees[k] = bm.Forests[k][oldRounds-1]
		lastLas[k] = las[(oldRounds-1)*c+k]
	}

	restore := p.cfg
	defer func() { p.cfg = restore }()
	p.cfg.NumTrees = oldRounds + addTrees
	p.cfg.LearningRate = nu
	encY := make([][]*paillier.Ciphertext, c)
	if err := p.gbdtClsRounds(out, onehot, encY, scores, oldRounds-1, lastTrees, lastLas); err != nil {
		return nil, err
	}
	return out, nil
}
