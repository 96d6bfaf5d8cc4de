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
// Kept leaf totals: a DT/RF absorb costs what it appends.  Every DT or RF
// that Train or Update releases on a session leaves each party holding its
// own additive shares of every leaf's totals (⟨n⟩ and the channel totals,
// the nodeData.tot the leaf chain reads); the session keeps them, keyed by
// the released model, with the row count they cover.  An absorb of that
// model over exactly those rows replays the splits over the appended rows
// only, converts their per-leaf totals in the one nodeTotals conversion,
// adds the kept shares and resolves the leaves: kept + appended totals are
// the union's totals, and the labels are a deterministic function of the
// totals, so the model is bit-identical to the union replay.  Anything else
// — a model loaded from disk or released by another session, a session that
// only ran AppendSamples since, a resumed session — replays the union, the
// oracle.  Nothing new is opened or sent: the kept shares are what each
// party already held when the leaf chain ran, and they are never
// checkpointed or saved.
//
// Enhanced, malicious and DP modes refuse: enhanced never discloses the
// tree (nothing to replay), the §9.1 malicious proofs cover full training
// transcripts only, and DP noise would compound across repeated absorbs.
// Every refusal happens before any client starts (checkUpdate), so a
// refused absorb leaves the session healthy and its partitions unchanged.

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

// leafTotals is one released DT/RF model's kept leaf totals: tots[c][w][pos]
// is client c's shares of tree w's leaf pos, over the first rows samples.
type leafTotals struct {
	rows int
	tots [][][][]mpc.Share
}

// Update absorbs spec.Append into spec.Model on the session and returns
// the refreshed predictor.  The session's partitions grow by the appended
// rows (copy-on-append: prior Partition structs are never mutated, so
// other sessions sharing them keep serving the old view).  A refused
// absorb returns its error with the session untouched.
func Update(s *Session, spec UpdateSpec) (Predictor, error) {
	kt, err := s.checkUpdate(spec)
	if err != nil {
		return nil, err
	}
	out := make([]Predictor, s.M)
	tots := make([][][][]mpc.Share, s.M)
	rows := 0
	err = s.Each(func(p *Party) error {
		var kept [][][]mpc.Share
		if kt != nil && kt.rows == p.part.N {
			kept = kt.tots[p.ID]
		}
		mdl, t, err := p.update(spec, kept)
		out[p.ID], tots[p.ID] = mdl, t
		if p.ID == 0 {
			rows = p.part.N
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	s.keepLeafTotals(out[0], rows, tots)
	return out[0], nil
}

// AppendSamples grows the session's partitions by the new rows without
// touching any model — the data-sync half of Update, used by serve.Service
// to keep the lanes that did not run the update chain aligned with the one
// that did, and to replay the absorb log into a rebuilt lane.  Purely local at every party: no protocol traffic.
func AppendSamples(s *Session, parts []*dataset.Partition) error {
	s.phaseMu.Lock()
	err := s.checkAppend(parts)
	s.phaseMu.Unlock()
	if err != nil {
		return err
	}
	err = s.Each(func(p *Party) error {
		p.appendData(parts[p.ID])
		return nil
	})
	if err != nil {
		return err
	}
	s.keepLeafTotals(nil, 0, nil) // drops the entries the append outdated
	return nil
}

// keepLeafTotals drops every kept entry the session's current row count
// outdates and, when mdl is a DT or RF that an Update on this session would
// accept and tots ([client][tree][LeafPos]) covers the current rows, keeps
// tots as mdl's leaf totals.
func (s *Session) keepLeafTotals(mdl Predictor, rows int, tots [][][][]mpc.Share) {
	s.phaseMu.Lock()
	defer s.phaseMu.Unlock()
	n := s.parties[0].part.N
	for m, kt := range s.kept {
		if kt.rows != n {
			delete(s.kept, m)
		}
	}
	if rows != n || s.Cfg.Protocol != Basic || s.Cfg.Malicious || s.Cfg.DP != nil {
		return
	}
	var trees []*Model
	switch m := mdl.(type) {
	case *Model:
		trees = []*Model{m}
	case *ForestModel:
		trees = m.Trees
	default:
		return
	}
	for _, t := range tots {
		if len(t) != len(trees) {
			return
		}
		for w, tree := range trees {
			if len(t[w]) != tree.Leaves {
				return
			}
		}
	}
	if s.kept == nil {
		s.kept = make(map[Predictor]*leafTotals)
	}
	s.kept[mdl] = &leafTotals{rows: rows, tots: tots}
}

// checkUpdate refuses, before any client starts, every absorb a client
// would refuse — a failed phase tears the session down — and returns the
// model's kept leaf totals, nil when the session keeps none.  Purely local.
func (s *Session) checkUpdate(spec UpdateSpec) (*leafTotals, error) {
	switch {
	case s.Cfg.Protocol != Basic:
		return nil, fmt.Errorf("core: incremental update requires the basic protocol: a warm start replays the released plaintext trees, which enhanced mode never discloses")
	case s.Cfg.Malicious:
		return nil, fmt.Errorf("core: incremental update is unavailable in malicious mode: the §9.1 proofs cover full training transcripts, not replayed absorbs")
	case s.Cfg.DP != nil:
		return nil, fmt.Errorf("core: incremental update is unavailable with DP noise: per-absorb noise would compound across repeated updates")
	}
	if err := replayable(spec.Model); err != nil {
		return nil, err
	}
	s.phaseMu.Lock()
	defer s.phaseMu.Unlock()
	if err := s.checkAppend(spec.Append); err != nil {
		return nil, err
	}
	sup := s.parties[s.parties[0].Super]
	if c := spec.Model.NumClasses(); c != sup.part.Classes {
		return nil, fmt.Errorf("core: update: model has %d classes, the session's labels %d", c, sup.part.Classes)
	}
	return s.kept[spec.Model], nil
}

// checkAppend refuses, before any client starts, appended partitions a
// client would refuse.  The caller holds phaseMu.
func (s *Session) checkAppend(parts []*dataset.Partition) error {
	if s.closed {
		return ErrSessionClosed
	}
	if len(parts) != s.M {
		return fmt.Errorf("core: %d appended partitions for %d clients", len(parts), s.M)
	}
	for _, p := range s.parties {
		if err := p.checkAppend(parts[p.ID]); err != nil {
			return err
		}
	}
	return nil
}

// update is the SPMD body of Update: checkUpdate has accepted spec.  kept
// is this party's kept leaf totals of spec.Model over the rows before the
// append (nil: replay the union).  It also returns the refreshed DT/RF's
// leaf totals over the union.
func (p *Party) update(spec UpdateSpec, kept [][][]mpc.Share) (Predictor, [][][]mpc.Share, error) {
	defer p.gatherStats()
	oldN := p.part.N
	p.appendData(spec.Append[p.ID])

	// Absorbs are not checkpointed: a crash mid-update falls back to the
	// registered model plus a fresh Update call over the same batch.
	ck := p.ck
	p.ck = nil
	defer func() { p.ck = ck }()

	var out Predictor
	var tots [][][]mpc.Share
	err := timed(&p.Stats.Wall, func() error {
		var err error
		switch m := spec.Model.(type) {
		case *Model:
			out, tots, err = p.updateDT(m, oldN, kept)
		case *ForestModel:
			out, tots, err = p.updateRF(m, oldN, kept)
		case *BoostModel:
			add := max(spec.AddTrees, 1)
			if m.Classes > 0 {
				out, err = p.updateGBDTCls(m, add)
			} else {
				out, err = p.updateGBDTReg(m, add)
			}
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, tots, nil
}

// replayable refuses a model an absorb cannot replay: anything but released
// basic-protocol trees, and GBDT forests that are missing, ragged or (for
// classification) empty.
func replayable(mdl Predictor) error {
	tree := func(m *Model) error {
		if m == nil {
			return fmt.Errorf("core: update: nil model")
		}
		if m.Protocol != Basic {
			return fmt.Errorf("core: update: model conceals its splits; only released basic-protocol trees can be replayed")
		}
		return nil
	}
	switch m := mdl.(type) {
	case *Model:
		return tree(m)
	case *ForestModel:
		if m == nil {
			return fmt.Errorf("core: update: nil model")
		}
		for _, t := range m.Trees {
			if err := tree(t); err != nil {
				return err
			}
		}
		return nil
	case *BoostModel:
		if m == nil {
			return fmt.Errorf("core: update: nil model")
		}
		if c := max(m.Classes, 1); len(m.Forests) != c {
			return fmt.Errorf("core: update: GBDT model has %d forests for %d classes", len(m.Forests), m.Classes)
		}
		for k, f := range m.Forests {
			if len(f) != len(m.Forests[0]) {
				return fmt.Errorf("core: update: ragged GBDT forests (class %d has %d trees, class 0 has %d)",
					k, len(f), len(m.Forests[0]))
			}
			for _, t := range f {
				if err := tree(t); err != nil {
					return err
				}
			}
		}
		if m.Classes > 0 && len(m.Forests[0]) == 0 {
			return fmt.Errorf("core: update: GBDT model has no trained rounds")
		}
		return nil
	default:
		return fmt.Errorf("core: update: unsupported model type %T", mdl)
	}
}

// checkAppend refuses an appended batch this party cannot absorb.  The
// candidate-split grid is frozen, so the batch must match the partition's
// feature layout, and the super client's labels must be in range.
func (p *Party) checkAppend(np *dataset.Partition) error {
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
		if err := p.checkLabels(np.Y); err != nil {
			return err
		}
	}
	return nil
}

// appendData grows this party's partition by rows checkAppend accepted.
// Copy-on-append: serving lanes share Partition pointers, so the old struct
// stays untouched while other lanes keep serving from it.  The
// candidate-split grid (and so every peer's splitCounts) is frozen — only
// the indicator vectors extend, keeping released SplitIndex values valid
// for replay.
func (p *Party) appendData(np *dataset.Partition) {
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
}

// replayNode is one frontier entry of the structure replay.
type replayNode struct {
	tree  int
	idx   int // node index within its tree
	alpha []*paillier.Ciphertext
}

// replayLeafAlphas recomputes every tree's encrypted per-leaf mask vectors
// over samples from..N−1 by replaying the public split structure level by
// level from the locally derived root masks (rootMask): per level, each
// owner computes all of its nodes' left masks in one rerandomized batch and
// broadcasts them once (right masks derive locally and deterministically,
// as in §4.1).  Costs O(max depth) HE broadcast
// phases total — across all trees — and zero MPC rounds; the ciphertexts
// encrypted and sent scale with the replayed rows: N − from, the appended
// rows alone when the caller keeps the earlier rows' leaf totals.
// rootCounts supplies per-tree root multiplicities over all N samples (nil
// = all ones; RF passes bootstrap counts).
func (p *Party) replayLeafAlphas(trees []*Model, rootCounts [][]int64, from int) ([][][]*paillier.Ciphertext, error) {
	n := p.part.N - from
	las := make([][][]*paillier.Ciphertext, len(trees))
	for w, tree := range trees {
		las[w] = make([][]*paillier.Ciphertext, tree.Leaves)
	}

	frontier := make([]replayNode, len(trees))
	for w := range trees {
		var counts []int64
		if rootCounts != nil && rootCounts[w] != nil {
			counts = rootCounts[w][from:]
		}
		frontier[w] = replayNode{tree: w, alpha: p.rootMask(n, counts)}
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
				betas = append(betas, p.indic[node.Feature][node.SplitIndex][from:]...)
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
// samples, structure fixed: it replays the splits, gives every replayed leaf
// its totals in one conversion, and runs all trees' leaves through one
// shared batched leaf chain (the same nodeTotals and makeLeavesLevel the
// level-wise trainer uses).  kept, when non-nil, holds each leaf's totals
// over the first oldN samples: only the appended rows are replayed, and the
// kept shares are added to theirs, so the leaves still resolve over the
// union.  rootCounts is as for replayLeafAlphas.  It also returns every
// clone's leaf totals over the union, in LeafPos order.
func (p *Party) refreshLeaves(trees []*Model, rootCounts [][]int64, oldN int, kept [][][]mpc.Share) ([]*Model, [][][]mpc.Share, error) {
	from := 0
	if kept != nil {
		from = oldN
	}
	las, err := p.replayLeafAlphas(trees, rootCounts, from)
	if err != nil {
		return nil, nil, p.errf("update replay: %v", err)
	}
	clones := make([]*Model, len(trees))
	tasks := make([]*treeTask, len(trees))
	var entries []frontierNode
	var prior [][]mpc.Share // kept totals, entry by entry
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
			if kept != nil {
				prior = append(prior, kept[w][pos])
			}
		}
	}
	tots := make([][][]mpc.Share, len(trees))
	if len(entries) == 0 {
		return clones, tots, nil
	}
	// The replayed leaves have no parent statistics to inherit totals from.
	if err := p.nodeTotals(entries, from); err != nil {
		return nil, nil, err
	}
	for i, pt := range prior {
		sum := make([]mpc.Share, len(pt))
		for e := range pt {
			sum[e] = p.eng.Add(pt[e], entries[i].nd.tot[e])
		}
		entries[i].nd.tot = sum
	}
	nodes, err := p.makeLeavesLevel(tasks, entries)
	if err != nil {
		return nil, nil, err
	}
	off := 0
	for w, clone := range clones {
		for j := range clone.Nodes {
			if clone.Nodes[j].Leaf {
				clone.Nodes[j].Label = nodes[off+clone.Nodes[j].LeafPos].Label
			}
		}
		off += trees[w].Leaves
		tots[w] = tasks[w].leafTots
	}
	return clones, tots, nil
}

// updateDT refines a decision tree's leaves over the union.
func (p *Party) updateDT(m *Model, oldN int, kept [][][]mpc.Share) (*Model, [][][]mpc.Share, error) {
	clones, tots, err := p.refreshLeaves([]*Model{m}, nil, oldN, kept)
	if err != nil {
		return nil, nil, err
	}
	return clones[0], tots, nil
}

// updateRF refines every forest tree's leaves over the union.  Appended
// rows enter every tree with multiplicity one.  With kept totals the
// earlier rows count with whatever multiplicities the totals were made
// with, and only the appended rows are replayed; without, the whole union
// is replayed and the first oldN rows take the bootstrap multiplicities a
// tree trained on oldN rows draws (a public function of the session seed)
// — the ones the tree was trained with when it has absorbed nothing yet.
func (p *Party) updateRF(fm *ForestModel, oldN int, kept [][][]mpc.Share) (*ForestModel, [][][]mpc.Share, error) {
	var counts [][]int64 // nil: multiplicity one on every replayed row
	if kept == nil {
		n := p.part.N
		counts = make([][]int64, len(fm.Trees))
		for w := range fm.Trees {
			ext := make([]int64, n)
			copy(ext, bootstrapCounts(oldN, p.cfg.Subsample, uint64(p.cfg.Seed)+uint64(w)))
			for t := oldN; t < n; t++ {
				ext[t] = 1
			}
			counts[w] = ext
		}
	}
	clones, tots, err := p.refreshLeaves(fm.Trees, counts, oldN, kept)
	if err != nil {
		return nil, nil, err
	}
	return &ForestModel{Trees: clones, Classes: fm.Classes}, tots, nil
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
	las, err := p.replayLeafAlphas(old, nil, 0)
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
	oldRounds := len(bm.Forests[0]) // checkUpdate refused ragged and empty forests

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
	las, err := p.replayLeafAlphas(flatTrees, nil, 0)
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
