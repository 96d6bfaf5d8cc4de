package core

import (
	"fmt"
	"math/big"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// Level-wise (breadth-first) training pipeline.  The paper's Algorithm 3 is
// a per-node recursion: every node pays a full conversion → gains →
// comparison → argmax chain of synchronous MPC rounds.  Once the local
// Paillier work is accelerated, those rounds dominate latency — so this
// driver collects the whole frontier of active nodes at a depth and runs
// each stage once for all of them: one batched Paillier pass for the masked
// label channels and split statistics, one Algorithm-2 conversion for the
// concatenated statistics vector, one grouped gain evaluation, and one
// grouped oblivious argmax whose comparison rounds are shared across nodes.
// The round cost of a tree becomes O(depth) chains instead of O(nodes).
//
// The pipeline is exactly tree-equivalent to the per-node recursion (same
// splits, same leaves under fixed seeds): every MPC primitive used here is a
// deterministic function of its inputs — masks and Beaver triples cancel
// exactly — so batching changes only the round structure, never the values.
// Nodes are appended to the model in breadth-first order (the recursion
// appends depth-first); the rendered tree is identical.

// frontierNode is one active node awaiting training at the current depth.
type frontierNode struct {
	nd     nodeData
	nShare mpc.Share // ⟨n⟩, filled by trainLevel's batched conversion
	tree   int       // index into the level driver's task list
	parent int       // model index of the parent (within its tree); -1 at a root
	left   bool      // whether this node is the parent's left child
}

// treeTask is one tree being grown by the level driver.  The GBDT
// cross-class extension trains several trees in a single shared frontier;
// ordinary training passes exactly one task.
type treeTask struct {
	model      *Model
	capture    bool // record each leaf's encrypted mask vector
	leafAlphas [][]*paillier.Ciphertext
}

// splitOutcome is one frontier node's model-update result.
type splitOutcome struct {
	node        Node
	left, right nodeData
}

// buildLevels trains the tree breadth-first from the root's nodeData.
func (p *Party) buildLevels(model *Model, root nodeData) error {
	task := &treeTask{model: model, capture: p.captureLeaves}
	if err := p.buildLevelsMulti([]*treeTask{task}, []nodeData{root}); err != nil {
		return err
	}
	if task.capture {
		p.leafAlphas = append(p.leafAlphas, task.leafAlphas...)
	}
	return nil
}

// buildLevelsMulti trains all tasks' trees breadth-first in one shared
// frontier: nodes of every tree at the same depth are batched together, so
// the per-level round chains are paid once for the whole set of trees.
func (p *Party) buildLevelsMulti(tasks []*treeTask, roots []nodeData) error {
	frontier := make([]frontierNode, len(roots))
	for i := range roots {
		frontier[i] = frontierNode{nd: roots[i], tree: i, parent: -1}
	}
	// runLevels (recovery.go) drives the per-depth loop so the same code
	// path serves both fresh training and checkpoint resume.
	return p.runLevels(tasks, frontier, 0)
}

// trainLevel trains every frontier node at one depth and returns the next
// frontier (the children of the nodes that split), in breadth-first order.
func (p *Party) trainLevel(tasks []*treeTask, frontier []frontierNode, depth int) ([]frontierNode, error) {
	G := len(frontier)
	p.Stats.NodesTrained += G

	// Overlap 1 (pipelined only): while the pruning conversion and
	// comparison rounds below are on the wire, the super client already
	// computes the masked label channels for the WHOLE frontier in the
	// background.  Pure local compute — nothing is sent until the
	// splitters are known, so the wire traffic is exactly the barrier
	// path's.
	var spec *gammaSpec
	if p.pipelined() && p.ID == p.Super && depth < p.cfg.Tree.MaxDepth &&
		p.totalSplits() > 0 && frontier[0].nd.gch == nil {
		spec = p.startGammaSpec(frontier)
	}

	// ----- pruning conditions (Algorithm 3, lines 1-3), batched -----
	nodeCts := make([]*paillier.Ciphertext, G)
	for g := range frontier {
		nodeCts[g] = p.foldAdd(frontier[g].nd.alpha)
	}
	err := p.timedWire(&p.Stats.Phases.Conversion, &p.Stats.Phases.ConversionWire, func() error {
		shares, err := p.encToShares(nodeCts, G, p.w.count+2)
		if err != nil {
			return err
		}
		for g := range frontier {
			frontier[g].nShare = shares[g]
		}
		return nil
	})
	if err != nil {
		return nil, p.errf("level %d count conversion: %v", depth, err)
	}

	leaf := make([]bool, G)
	if depth >= p.cfg.Tree.MaxDepth || p.totalSplits() == 0 {
		for g := range leaf {
			leaf[g] = true
		}
	} else {
		err := p.timedWire(&p.Stats.Phases.MPCComputation, &p.Stats.Phases.MPCComputationWire, func() error {
			threshold := p.eng.ConstInt64(int64(p.cfg.Tree.MinSamplesSplit))
			width := p.w.count + 4
			xs := make([]mpc.Share, G)
			ys := make([]mpc.Share, G)
			for g := range frontier {
				xs[g] = frontier[g].nShare
				ys[g] = threshold
			}
			for g, v := range p.eng.OpenVec(p.eng.LTVec(xs, ys, width)) {
				leaf[g] = v.Sign() != 0
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var splitters []int // frontier indices that passed pruning
	for g := range leaf {
		if !leaf[g] {
			splitters = append(splitters, g)
		}
	}

	// ----- local computation + conversion + gains + grouped argmax -----
	bests := make([]mpc.ArgmaxResult, G)
	if len(splitters) > 0 {
		splitNodes := make([]frontierNode, len(splitters))
		for i, g := range splitters {
			splitNodes[i] = frontier[g]
		}
		C := p.channels(splitNodes[0].nd)
		statsPerSplit := 2 + 2*C
		S := p.totalSplits()
		totalPer := C + S*statsPerSplit

		var gchs [][][]*paillier.Ciphertext
		err = p.timedWire(&p.Stats.Phases.LocalComputation, &p.Stats.Phases.LocalComputationWire, func() error {
			if spec != nil {
				// The whole-frontier masked channels were computed while
				// the pruning rounds were in flight; broadcast just the
				// surviving splitters' slices — the same plaintexts (and
				// bytes) the barrier path would send.
				maskedAll, specErr := spec.wait(p)
				spec = nil
				if specErr != nil {
					return specErr
				}
				n := p.part.N
				sel := make([]*paillier.Ciphertext, 0, len(splitters)*C*n)
				for _, g := range splitters {
					off := g * C * n
					sel = append(sel, maskedAll[off:off+C*n]...)
				}
				if err := p.broadcastCtsChunked(sel); err != nil {
					return err
				}
				gchs = make([][][]*paillier.Ciphertext, len(splitNodes))
				for i := range splitNodes {
					chs := make([][]*paillier.Ciphertext, C)
					for k := 0; k < C; k++ {
						off := (i*C + k) * n
						chs[k] = sel[off : off+n]
					}
					gchs[i] = chs
				}
				return nil
			}
			var err error
			gchs, err = p.computeGammasLevel(splitNodes)
			return err
		})
		if err != nil {
			return nil, p.errf("level %d gamma computation: %v", depth, err)
		}
		var statCts [][]*paillier.Ciphertext
		err = p.timedWire(&p.Stats.Phases.LocalComputation, &p.Stats.Phases.LocalComputationWire, func() error {
			var err error
			statCts, err = p.computeSplitStatsLevel(splitNodes, gchs)
			return err
		})
		if err != nil {
			return nil, p.errf("level %d split statistics: %v", depth, err)
		}

		// One Algorithm-2 conversion for the concatenated statistics of the
		// whole frontier: per splitter, the C channel totals followed by the
		// S·statsPerSplit statistics (only the super client's ciphertexts
		// matter; the others contribute masks).
		all := make([]*paillier.Ciphertext, 0, len(splitters)*totalPer)
		for i := range splitNodes {
			for k := 0; k < C; k++ {
				all = append(all, p.foldAdd(gchs[i][k]))
			}
			if p.ID == p.Super {
				all = append(all, statCts[i]...)
			} else {
				all = append(all, make([]*paillier.Ciphertext, S*statsPerSplit)...)
			}
		}
		var shares []mpc.Share
		err = p.timedWire(&p.Stats.Phases.Conversion, &p.Stats.Phases.ConversionWire, func() error {
			var err error
			shares, err = p.encToShares(all, len(splitters)*totalPer, p.w.stat)
			return err
		})
		if err != nil {
			return nil, p.errf("level %d statistics conversion: %v", depth, err)
		}

		err = p.timedWire(&p.Stats.Phases.MPCComputation, &p.Stats.Phases.MPCComputationWire, func() error {
			totalsAll := make([]mpc.Share, 0, len(splitters)*C)
			statsAll := make([]mpc.Share, 0, len(splitters)*S*statsPerSplit)
			nShares := make([]mpc.Share, len(splitters))
			for i, g := range splitters {
				b := i * totalPer
				totalsAll = append(totalsAll, shares[b:b+C]...)
				statsAll = append(statsAll, shares[b+C:b+totalPer]...)
				nShares[i] = frontier[g].nShare
			}
			gains, err := p.computeGains(totalsAll, statsAll, nShares, C, statsPerSplit, tasks[0].model.Classes > 0)
			if err != nil {
				return err
			}
			groups := make([]int, len(splitters))
			ids := make([][]int64, 0, len(gains))
			for i := range groups {
				groups[i] = S
				ids = append(ids, p.splitIDs...)
			}
			won := p.eng.ArgmaxGrouped(gains, groups, ids, p.w.gain+2, p.cfg.ArgmaxTournament)
			for i, g := range splitters {
				bests[g] = won[i]
			}
			if p.cfg.Tree.LeafOnZeroGain {
				zeros := make([]mpc.Share, len(splitters))
				maxs := make([]mpc.Share, len(splitters))
				for i := range splitters {
					zeros[i] = p.eng.ConstInt64(0)
					maxs[i] = won[i].Max
				}
				gts := p.eng.LTVec(zeros, maxs, p.w.gain+2)
				les := make([]mpc.Share, len(splitters))
				for i := range les {
					les[i] = p.eng.Sub(p.eng.ConstInt64(1), gts[i])
				}
				for i, v := range p.eng.OpenVec(les) {
					if v.Sign() != 0 {
						leaf[splitters[i]] = true
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, p.errf("level %d gain computation: %v", depth, err)
		}
	}
	if spec != nil {
		// Every frontier node was pruned to a leaf; retire the speculative
		// pass and fold its (wasted) compute counters in.
		_, _ = spec.wait(p)
		spec = nil
	}

	// ----- leaf resolution, winner opening, model update -----
	var leafGs, splitGs []int
	for g := range leaf {
		if leaf[g] {
			leafGs = append(leafGs, g)
		} else {
			splitGs = append(splitGs, g)
		}
	}
	openCols := 0
	if len(splitGs) > 0 && p.cfg.Protocol == Basic {
		openCols = 3
	} else if len(splitGs) > 0 {
		switch p.cfg.Hide {
		case HideFeature:
			openCols = 1
		case HideClient:
			openCols = 0
		default:
			openCols = 2
		}
	}
	var entries []frontierNode
	if len(leafGs) > 0 {
		entries = make([]frontierNode, len(leafGs))
		for i, g := range leafGs {
			entries[i] = frontier[g]
		}
	}
	winnerIn := func() []mpc.Share {
		openIn := make([]mpc.Share, 0, len(splitGs)*openCols)
		for _, g := range splitGs {
			openIn = append(openIn, bests[g].IDs[:openCols]...)
		}
		return openIn
	}
	var opened []*big.Int
	var outcomes []splitOutcome
	runUpdate := func() error {
		nds := make([]nodeData, len(splitGs))
		bestsK := make([]mpc.ArgmaxResult, len(splitGs))
		idsK := make([][]*big.Int, len(splitGs))
		for i, g := range splitGs {
			nds[i] = frontier[g].nd
			bestsK[i] = bests[g]
			idsK[i] = opened[i*openCols : (i+1)*openCols]
		}
		return p.timedWire(&p.Stats.Phases.ModelUpdate, &p.Stats.Phases.ModelUpdateWire, func() error {
			r0 := p.eng.Stats.Rounds
			defer func() { p.Stats.UpdateRounds += p.eng.Stats.Rounds - r0 }()
			var err error
			if p.cfg.UpdateMode == UpdateSequential {
				outcomes, err = p.updateLevelSequential(nds, bestsK, idsK)
			} else {
				outcomes, err = p.updateLevelBatched(nds, bestsK, idsK)
			}
			return err
		})
	}

	leafNodes := make(map[int]Node, len(leafGs))
	if p.pipelined() && len(leafGs) > 0 && len(splitGs) > 0 {
		// Overlap 2: issue the winner opening, run the whole leaf chain on
		// its own lane, then await the winners and run the update chain on
		// the main lane — the leaf conversions/argmax rounds fly while the
		// update rounds do.  The lane exclusively owns the task models'
		// Leaves counters until joined; materialization below runs after.
		var pendingWin *mpc.PendingOpen
		if openCols > 0 {
			pendingWin = p.eng.OpenVecIssue(winnerIn())
		}
		lp := p.lane(1)
		type leafRes struct {
			nodes []Node
			err   error
		}
		ch := make(chan leafRes, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					ch <- leafRes{err: fmt.Errorf("leaf lane: %v", r)}
				}
			}()
			nodes, err := lp.makeLeavesLevel(tasks, entries)
			ch <- leafRes{nodes: nodes, err: err}
		}()
		if pendingWin != nil {
			opened = pendingWin.Await()
		}
		updErr := runUpdate()
		res := <-ch
		p.join(lp)
		if updErr != nil {
			return nil, p.errf("level %d model update: %v", depth, updErr)
		}
		if res.err != nil {
			return nil, p.errf("level %d leaves: %v", depth, res.err)
		}
		for i, g := range leafGs {
			leafNodes[g] = res.nodes[i]
		}
	} else {
		// Barrier order: leaves first, then the winner opening, then the
		// update chain — the equivalence oracle for the overlapped path.
		if len(leafGs) > 0 {
			nodes, err := p.makeLeavesLevel(tasks, entries)
			if err != nil {
				return nil, p.errf("level %d leaves: %v", depth, err)
			}
			for i, g := range leafGs {
				leafNodes[g] = nodes[i]
			}
		}
		if len(splitGs) > 0 && openCols > 0 {
			opened = p.eng.OpenVec(winnerIn())
		}
		if len(splitGs) > 0 {
			if err := runUpdate(); err != nil {
				return nil, p.errf("level %d model update: %v", depth, err)
			}
		}
	}

	// ----- breadth-first materialization, one model per task -----
	var next []frontierNode
	splitResults := make(map[int]splitOutcome, len(splitGs))
	for i, g := range splitGs {
		splitResults[g] = outcomes[i]
	}
	for g := range frontier {
		model := tasks[frontier[g].tree].model
		idx := len(model.Nodes)
		if n, ok := leafNodes[g]; ok {
			model.Nodes = append(model.Nodes, n)
		} else {
			r := splitResults[g]
			model.Nodes = append(model.Nodes, r.node)
			next = append(next,
				frontierNode{nd: r.left, tree: frontier[g].tree, parent: idx, left: true},
				frontierNode{nd: r.right, tree: frontier[g].tree, parent: idx})
		}
		if fp := frontier[g].parent; fp >= 0 {
			if frontier[g].left {
				model.Nodes[fp].Left = idx
			} else {
				model.Nodes[fp].Right = idx
			}
		}
	}
	return next, nil
}

// updateLevelBatched dispatches the frontier-wide batched model update on
// the session's protocol and hide level.  opened holds each splitter's
// publicly opened identifier columns (layout as decided by the caller).
func (p *Party) updateLevelBatched(nds []nodeData, bests []mpc.ArgmaxResult, opened [][]*big.Int) ([]splitOutcome, error) {
	K := len(nds)
	switch {
	case p.cfg.Protocol == Basic:
		is := make([]int, K)
		js := make([]int, K)
		ss := make([]int, K)
		for i := range nds {
			is[i] = int(opened[i][0].Int64())
			js[i] = int(opened[i][1].Int64())
			ss[i] = int(opened[i][2].Int64())
		}
		return p.splitBasicLevel(nds, is, js, ss)
	case p.cfg.Hide == HideFeature:
		// §5.2 discussion: only i* is revealed; the owner-local flat index
		// is the shared global index minus the owner's public base offset.
		iStars := make([]int, K)
		flats := make([]mpc.Share, K)
		for i := range nds {
			iStars[i] = int(opened[i][0].Int64())
			flats[i] = p.eng.AddConst(bests[i].IDs[3], big.NewInt(-int64(p.clientBase(iStars[i]))))
		}
		return p.splitEnhancedHiddenLevel(nds, iStars, flats)
	case p.cfg.Hide == HideClient:
		iStars := make([]int, K)
		flats := make([]mpc.Share, K)
		for i := range nds {
			iStars[i] = -1
			flats[i] = bests[i].IDs[3]
		}
		return p.splitEnhancedHiddenLevel(nds, iStars, flats)
	default:
		iStars := make([]int, K)
		jStars := make([]int, K)
		sStars := make([]mpc.Share, K)
		for i := range nds {
			iStars[i] = int(opened[i][0].Int64())
			jStars[i] = int(opened[i][1].Int64())
			sStars[i] = bests[i].IDs[2]
		}
		return p.splitEnhancedLevel(nds, iStars, jStars, sStars)
	}
}

// updateLevelSequential runs the per-node update bodies one frontier node at
// a time — the round structure of the original level-wise pipeline, kept as
// a benchmarking baseline (cfg.UpdateMode == UpdateSequential).
func (p *Party) updateLevelSequential(nds []nodeData, bests []mpc.ArgmaxResult, opened [][]*big.Int) ([]splitOutcome, error) {
	out := make([]splitOutcome, len(nds))
	for i := range nds {
		var err error
		ids := opened[i]
		switch {
		case p.cfg.Protocol == Basic:
			out[i].node, out[i].left, out[i].right, err = p.splitBasic(nds[i],
				int(ids[0].Int64()), int(ids[1].Int64()), int(ids[2].Int64()))
		case p.cfg.Hide == HideFeature:
			iStar := int(ids[0].Int64())
			flat := p.eng.AddConst(bests[i].IDs[3], big.NewInt(-int64(p.clientBase(iStar))))
			out[i].node, out[i].left, out[i].right, err = p.splitEnhancedHidden(nds[i], iStar, flat)
		case p.cfg.Hide == HideClient:
			out[i].node, out[i].left, out[i].right, err = p.splitEnhancedHidden(nds[i], -1, bests[i].IDs[3])
		default:
			out[i].node, out[i].left, out[i].right, err = p.splitEnhanced(nds[i],
				int(ids[0].Int64()), int(ids[1].Int64()), bests[i].IDs[2])
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// computeGammasLevel is computeGammas for a whole frontier: the super client
// derives every splitter's masked label channels in one parallel Paillier
// batch and ships them in a single broadcast (the per-node path sends one
// message per node and channel).  In encrypted-label mode the channels are
// already maintained per node and nothing is sent.
func (p *Party) computeGammasLevel(nodes []frontierNode) ([][][]*paillier.Ciphertext, error) {
	out := make([][][]*paillier.Ciphertext, len(nodes))
	if nodes[0].nd.gch != nil {
		for i := range nodes {
			out[i] = nodes[i].nd.gch
		}
		return out, nil
	}
	C := p.channels(nodes[0].nd)
	n := p.part.N
	if p.ID != p.Super {
		masked, err := p.recvCtsChunked(p.Super, len(nodes)*C*n)
		if err != nil {
			return nil, err
		}
		for i := range nodes {
			chs := make([][]*paillier.Ciphertext, C)
			for k := 0; k < C; k++ {
				off := (i*C + k) * n
				chs[k] = masked[off : off+n]
			}
			out[i] = chs
		}
		return out, nil
	}
	masked, err := p.gammaMaskedSuper(nodes)
	if err != nil {
		return nil, err
	}
	if err := p.broadcastCtsChunked(masked); err != nil {
		return nil, err
	}
	for i := range nodes {
		chs := make([][]*paillier.Ciphertext, C)
		for k := 0; k < C; k++ {
			off := (i*C + k) * n
			chs[k] = masked[off : off+n]
		}
		out[i] = chs
	}
	return out, nil
}

// gammaMaskedSuper computes the super client's masked label channels for
// nodes, flat over (node, channel, record) — pure local Paillier compute,
// nothing sent.  The pipelined driver runs it speculatively for the whole
// frontier while the pruning rounds are in flight.
func (p *Party) gammaMaskedSuper(nodes []frontierNode) ([]*paillier.Ciphertext, error) {
	C := p.channels(nodes[0].nd)
	n := p.part.N
	// The label encodings are identical for every node of the level.
	betas := make([][]*big.Int, C)
	for k := 0; k < C; k++ {
		beta := make([]*big.Int, n)
		for t := 0; t < n; t++ {
			if p.part.Classes > 0 {
				if int(p.part.Y[t]) == k {
					beta[t] = big.NewInt(1)
				} else {
					beta[t] = big.NewInt(0)
				}
			} else if k == 0 {
				beta[t] = p.cod.Encode(p.part.Y[t])
			} else {
				y := p.cod.Encode(p.part.Y[t])
				beta[t] = new(big.Int).Mul(y, y)
			}
		}
		betas[k] = beta
	}
	flatCts := make([]*paillier.Ciphertext, 0, len(nodes)*C*n)
	flatBetas := make([]*big.Int, 0, len(nodes)*C*n)
	for i := range nodes {
		for k := 0; k < C; k++ {
			flatCts = append(flatCts, nodes[i].nd.alpha...)
			flatBetas = append(flatBetas, betas[k]...)
		}
	}
	p.poolReserve(len(flatCts))
	return p.scalarMulRerandVec(flatCts, flatBetas)
}

// computeSplitStatsLevel is computeSplitStats for a whole frontier: every
// client computes all its (node, feature, channel) bucket passes in one
// parallel batch and ships the statistics to the super client in a single
// message.
// The returned per-splitter slices (canonical split order, as the
// conversion expects) are non-nil only at the super client.
func (p *Party) computeSplitStatsLevel(nodes []frontierNode, gchs [][][]*paillier.Ciphertext) ([][]*paillier.Ciphertext, error) {
	K := len(nodes)
	statsPerSplit := 2 * (1 + len(gchs[0]))
	channels := make([][][]*paillier.Ciphertext, K)
	for i := range nodes {
		channels[i] = append([][]*paillier.Ciphertext{nodes[i].nd.alpha}, gchs[i]...)
	}
	p.poolReserve(K * p.clientSplits(p.ID) * statsPerSplit)
	stats, err := p.bucketStats(channels)
	if err != nil {
		return nil, err
	}
	mine, err := p.rerandVec(stats)
	if err != nil {
		return nil, err
	}

	if p.ID != p.Super {
		if len(mine) > 0 {
			if err := p.sendCtsChunked(p.Super, mine); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}

	// Super: one chunked message per client, holding that client's
	// statistics for every node of the level.
	perClient := make([][]*paillier.Ciphertext, p.M)
	perClient[p.ID] = mine
	for c := 0; c < p.M; c++ {
		if c == p.ID || p.clientSplits(c) == 0 {
			continue
		}
		theirs, err := p.recvCtsChunked(c, K*p.clientSplits(c)*statsPerSplit)
		if err != nil {
			return nil, err
		}
		perClient[c] = theirs
	}
	out := make([][]*paillier.Ciphertext, K)
	for i := 0; i < K; i++ {
		all := make([]*paillier.Ciphertext, 0, p.totalSplits()*statsPerSplit)
		for c := 0; c < p.M; c++ {
			chunk := p.clientSplits(c) * statsPerSplit
			if chunk == 0 {
				continue
			}
			all = append(all, perClient[c][i*chunk:(i+1)*chunk]...)
		}
		out[i] = all
	}
	return out, nil
}

// makeLeavesLevel resolves all of a level's leaves in shared batches: one
// conversion, one reciprocal/truncation chain (regression) or one grouped
// argmax over the per-class counts (classification), and one batched
// opening (basic) or share-to-ciphertext conversion (enhanced).  Leaf
// positions are assigned in entry order per tree, exactly as the per-node
// recursion assigns them in visit order.
func (p *Party) makeLeavesLevel(tasks []*treeTask, entries []frontierNode) ([]Node, error) {
	L := len(entries)
	nodes := make([]Node, L)
	for i := range entries {
		task := tasks[entries[i].tree]
		if task.capture {
			task.leafAlphas = append(task.leafAlphas, entries[i].nd.alpha)
		}
		nodes[i] = Node{Leaf: true, LeafPos: task.model.Leaves}
		task.model.Leaves++
	}
	classes := tasks[entries[0].tree].model.Classes
	err := p.timedWire(&p.Stats.Phases.MPCComputation, &p.Stats.Phases.MPCComputationWire, func() error {
		if classes > 0 {
			return p.leavesClassification(classes, nodes, entries)
		}
		return p.leavesRegression(nodes, entries)
	})
	if err != nil {
		return nil, p.errf("leaf: %v", err)
	}
	return nodes, nil
}

// leavesClassification picks every leaf's majority class obliviously, with
// the per-leaf argmaxes grouped so their comparison rounds are shared.
func (p *Party) leavesClassification(C int, nodes []Node, entries []frontierNode) error {
	L := len(entries)
	// Super computes the encrypted per-class counts [g_k] = β_k ⊙ [α] for
	// every leaf, one parallel batch over (leaf, class).
	counts := make([]*paillier.Ciphertext, L*C)
	if p.ID == p.Super {
		betas := make([][]*big.Int, L*C)
		alphas := make([][]*paillier.Ciphertext, L*C)
		for i := range entries {
			for k := 0; k < C; k++ {
				beta := make([]*big.Int, p.part.N)
				for t := range beta {
					if int(p.part.Y[t]) == k {
						beta[t] = big.NewInt(1)
					} else {
						beta[t] = big.NewInt(0)
					}
				}
				betas[i*C+k] = beta
				alphas[i*C+k] = entries[i].nd.alpha
			}
		}
		p.poolReserve(L * C)
		var err error
		counts, err = p.dotRerandVec(betas, alphas)
		if err != nil {
			return err
		}
	}
	var shares []mpc.Share
	err := p.timedWire(&p.Stats.Phases.Conversion, &p.Stats.Phases.ConversionWire, func() error {
		var err error
		shares, err = p.encToShares(counts, L*C, p.w.count+2)
		return err
	})
	if err != nil {
		return err
	}
	groups := make([]int, L)
	ids := make([][]int64, L*C)
	for i := range groups {
		groups[i] = C
		for k := 0; k < C; k++ {
			ids[i*C+k] = []int64{int64(k)}
		}
	}
	kCmp := p.w.count + p.cfg.F + 4
	bests := p.eng.ArgmaxGrouped(shares, groups, ids, kCmp, p.cfg.ArgmaxTournament)
	if p.cfg.Protocol == Basic {
		labels := make([]mpc.Share, L)
		for i := range bests {
			labels[i] = bests[i].IDs[0]
		}
		for i, v := range p.eng.OpenVec(labels) {
			nodes[i].Label = float64(mpc.Signed(v).Int64())
		}
		return nil
	}
	// Store the concealed labels at the common fixed-point scale so the
	// shared-model prediction decodes uniformly.
	scale := new(big.Int).Lsh(big.NewInt(1), p.cfg.F)
	scaled := make([]mpc.Share, L)
	for i := range bests {
		scaled[i] = p.eng.MulPub(bests[i].IDs[0], scale)
	}
	cts, err := p.shareToEnc(scaled, p.cfg.F+10, p.Super)
	if err != nil {
		return err
	}
	for i := range nodes {
		nodes[i].EncLabel = cts[i]
	}
	return nil
}

// leavesRegression computes every leaf's (possibly encrypted) mean label in
// one reciprocal/truncation chain.
func (p *Party) leavesRegression(nodes []Node, entries []frontierNode) error {
	L := len(entries)
	// Encrypted label sums: fold the maintained γ1 channels (encrypted-label
	// mode) or let the super compute y ⊙ [α] for every leaf in one batch.
	sumCts := make([]*paillier.Ciphertext, L)
	if entries[0].nd.gch != nil {
		for i := range entries {
			sumCts[i] = p.foldAdd(entries[i].nd.gch[0])
		}
	} else if p.ID == p.Super {
		y := make([]*big.Int, p.part.N)
		for t := range y {
			y[t] = p.cod.Encode(p.part.Y[t])
		}
		ys := make([][]*big.Int, L)
		alphas := make([][]*paillier.Ciphertext, L)
		for i := range entries {
			ys[i] = y
			alphas[i] = entries[i].nd.alpha
		}
		p.poolReserve(L)
		var err error
		sumCts, err = p.dotRerandVec(ys, alphas)
		if err != nil {
			return err
		}
	}
	var sumShares []mpc.Share
	err := p.timedWire(&p.Stats.Phases.Conversion, &p.Stats.Phases.ConversionWire, func() error {
		var err error
		sumShares, err = p.encToShares(sumCts, L, p.w.stat)
		return err
	})
	if err != nil {
		return err
	}
	nShares := make([]mpc.Share, L)
	for i := range entries {
		nShares[i] = entries[i].nShare
	}
	recips := p.eng.RecipVec(nShares, p.w.count+2)
	// 2f-scaled means: |Σy| < 2^stat, 0 < 1/n ≤ 1 at f scale.
	raws := p.eng.MulVecSigned(sumShares, recips, p.w.stat, p.cfg.F+2)
	means := p.eng.TruncVec(raws, p.w.stat+p.cfg.F+4, p.cfg.F)
	if p.cfg.Protocol == Basic {
		for i, v := range p.eng.OpenVec(means) {
			nodes[i].Label = p.eng.DecodeSigned(v)
		}
		return nil
	}
	cts, err := p.shareToEnc(means, p.w.value+2, p.Super)
	if err != nil {
		return err
	}
	for i := range nodes {
		nodes[i].EncLabel = cts[i]
	}
	return nil
}

// poolReserve hints the shared randomness pool that `count` encryptions or
// rerandomizations are imminent, letting it pre-generate obfuscators across
// all configured workers so level-sized batches amortize the pool capacity
// instead of draining it mid-batch.
func (p *Party) poolReserve(count int) {
	if pool := p.pk.Pool(); pool != nil {
		pool.Reserve(count, p.cfg.Workers)
	}
}
