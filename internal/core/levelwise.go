package core

import (
	"fmt"
	"math/big"

	"repro/internal/dp"
	"repro/internal/mpc"
	"repro/internal/paillier"
)

// The node-training kernels and their two schedules.  trainLevel trains a
// frontier of nodes at one depth, running each stage once for all of them:
// one batched Paillier pass for the masked label channels and split
// statistics, one Algorithm-2 conversion for the concatenated statistics
// vector, one grouped gain evaluation, one grouped oblivious argmax whose
// comparison rounds are shared across nodes, and one model-update chain.
//
// The level-wise schedule (runLevels) hands it the whole frontier of a depth,
// so a tree costs O(depth) round chains.  The paper's Algorithm 3 pays a full
// conversion → gains → comparison → argmax chain per node; that is the same
// kernels on a frontier of one, walked depth-first (walkDepthFirst), and it
// is the schedule the malicious (§9.1) and DP (§9.2) extensions run on: their
// proof and noise hooks sit inside the kernels as loops over whatever
// frontier they are handed.
//
// The two schedules grow the same tree (same splits, same leaves under fixed
// seeds): every MPC primitive used here is a deterministic function of its
// inputs — masks and Beaver triples cancel exactly — so batching changes only
// the round structure, never the values.  They differ in Model.Nodes order
// (breadth-first against preorder); the rendered tree is identical.

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

// walkDepthFirst is Algorithm 3's schedule: every node is trained as a
// frontier of one, before its left subtree and then its right — preorder, so
// Model.Nodes, the LeafPos numbering and the captured leaf masks come out in
// the order the paper's recursion visits them.
func (p *Party) walkDepthFirst(tasks []*treeTask, nodes []frontierNode, depth int) error {
	for i := range nodes {
		children, err := p.trainLevel(tasks, nodes[i:i+1], depth)
		if err != nil {
			return err
		}
		if err := p.walkDepthFirst(tasks, children, depth+1); err != nil {
			return err
		}
	}
	return nil
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
			}
			if p.cfg.DP != nil {
				// §9.2: noisy pruning-condition query (sensitivity 1).  The
				// counts move to fixed-point scale to match the noise.
				scale := new(big.Int).Lsh(big.NewInt(1), p.cfg.F)
				noise := dp.LaplaceVec(p.eng, 1/p.cfg.DP.Epsilon, G)
				for g := range xs {
					xs[g] = p.eng.Add(p.eng.MulPub(xs[g], scale), noise[g])
				}
				threshold = p.eng.MulPub(threshold, scale)
				width += p.cfg.F
			}
			for g := range ys {
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
		// C label channels enter the gains; E are sent (sentChannels).
		C, E, S := p.channels(splitNodes[0].nd), p.sentChannels(splitNodes[0].nd), p.totalSplits()

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
				sel := make([]*paillier.Ciphertext, 0, len(splitters)*E*n)
				for _, g := range splitters {
					off := g * E * n
					sel = append(sel, maskedAll[off:off+E*n]...)
				}
				if err := p.broadcastCtsChunked(sel); err != nil {
					return err
				}
				gchs = splitChannels(sel, len(splitNodes), E, n)
				return nil
			}
			var err error
			gchs, err = p.computeGammasLevel(splitNodes)
			return err
		})
		if err != nil {
			return nil, p.errf("level %d gamma computation: %w", depth, err)
		}
		var statCts [][]*paillier.Ciphertext
		err = p.timedWire(&p.Stats.Phases.LocalComputation, &p.Stats.Phases.LocalComputationWire, func() error {
			var err error
			statCts, err = p.computeSplitStatsLevel(splitNodes, gchs)
			return err
		})
		if err != nil {
			return nil, p.errf("level %d split statistics: %w", depth, err)
		}

		nShares := make([]mpc.Share, len(splitNodes))
		for i := range splitNodes {
			nShares[i] = splitNodes[i].nShare
		}
		var totalsAll, statsAll []mpc.Share
		totalsAll, statsAll, err = p.convertSplitStats(nShares, gchs, statCts, C)
		if err != nil {
			return nil, p.errf("level %d statistics conversion: %w", depth, err)
		}

		err = p.timedWire(&p.Stats.Phases.MPCComputation, &p.Stats.Phases.MPCComputationWire, func() error {
			gains, err := p.computeGains(totalsAll, statsAll, nShares, C, 2+2*C, tasks[0].model.Classes > 0)
			if err != nil {
				return err
			}
			if p.cfg.DP != nil {
				// §9.2: the exponential mechanism over each node's gains
				// (sensitivity 2) instead of the argmax, and no zero-gain
				// opening.  Following Friedman & Schuster (the paper's [33]),
				// the quality function is the count-weighted gain n·gain(τ),
				// whose larger score spread gives the mechanism usable
				// utility.
				for i, g := range splitters {
					ns := make([]mpc.Share, S)
					for s := range ns {
						ns[s] = nShares[i]
					}
					weighted := p.eng.MulVec(gains[i*S:(i+1)*S], ns)
					ids := dp.ExponentialSelect(p.eng, weighted, p.splitIDs, p.cfg.DP.Epsilon, 2.0, p.w.gain+p.w.count+2)
					bests[g] = mpc.ArgmaxResult{Max: p.eng.ConstInt64(1), IDs: ids}
				}
				return nil
			}
			groups := make([]int, len(splitters))
			ids := make([][]int64, 0, len(gains))
			for i := range groups {
				groups[i] = S
				ids = append(ids, p.splitIDs...)
			}
			won := p.eng.ArgmaxGrouped(gains, groups, ids, p.w.gain+2)
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
			outcomes, err = p.updateLevelBatched(nds, bestsK, idsK)
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

// computeGammasLevel is the local computation step's first half: the super
// client derives every splitter's masked label channels [γ] from its [α]
// (classification: one 0/1 channel per class but the last, which is α minus
// the others; regression: y and y² channels) in one parallel Paillier batch
// and ships them in a single broadcast.  In encrypted-label mode the channels
// are already maintained per node by the split owners and nothing is sent.
// In malicious mode every channel travels inside its POPCM proofs against the
// label commitments (§9.1.2), one message per node and channel.
func (p *Party) computeGammasLevel(nodes []frontierNode) ([][][]*paillier.Ciphertext, error) {
	out := make([][][]*paillier.Ciphertext, len(nodes))
	if nodes[0].nd.gch != nil {
		for i := range nodes {
			out[i] = nodes[i].nd.gch
		}
		return out, nil
	}
	E := p.sentChannels(nodes[0].nd)
	n := p.part.N
	if p.audit != nil {
		for i := range nodes {
			out[i] = make([][]*paillier.Ciphertext, E)
			for k := range out[i] {
				ch, err := p.audit.gammaWithProofs(nodes[i].nd.alpha, k)
				if err != nil {
					return nil, err
				}
				out[i][k] = ch
			}
		}
		return out, nil
	}
	var masked []*paillier.Ciphertext
	var err error
	if p.ID != p.Super {
		masked, err = p.recvCtsChunked(p.Super, len(nodes)*E*n)
	} else {
		masked, err = p.gammaMaskedSuper(nodes)
		if err == nil {
			err = p.broadcastCtsChunked(masked)
		}
	}
	if err != nil {
		return nil, err
	}
	return splitChannels(masked, len(nodes), E, n), nil
}

// splitChannels views a flat (node, channel, record) ciphertext vector as
// per-node channel slices.
func splitChannels(flat []*paillier.Ciphertext, nodes, E, n int) [][][]*paillier.Ciphertext {
	out := make([][][]*paillier.Ciphertext, nodes)
	for i := range out {
		out[i] = make([][]*paillier.Ciphertext, E)
		for k := range out[i] {
			off := (i*E + k) * n
			out[i][k] = flat[off : off+n]
		}
	}
	return out
}

// gammaMaskedSuper computes the super client's sent masked label channels for
// nodes, flat over (node, channel, record) — pure local Paillier compute,
// nothing sent.  The pipelined driver runs it speculatively for the whole
// frontier while the pruning rounds are in flight.
func (p *Party) gammaMaskedSuper(nodes []frontierNode) ([]*paillier.Ciphertext, error) {
	E := p.sentChannels(nodes[0].nd)
	n := p.part.N
	// The label encodings are identical for every node of the level.
	betas := make([][]*big.Int, E)
	for k := 0; k < E; k++ {
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
	flatCts := make([]*paillier.Ciphertext, 0, len(nodes)*E*n)
	flatBetas := make([]*big.Int, 0, len(nodes)*E*n)
	for i := range nodes {
		for k := 0; k < E; k++ {
			flatCts = append(flatCts, nodes[i].nd.alpha...)
			flatBetas = append(flatBetas, betas[k]...)
		}
	}
	p.poolReserve(len(flatCts))
	return p.scalarMulRerandVec(flatCts, flatBetas)
}

// computeSplitStatsLevel is the second half of the local computation step:
// every client computes, for each of its candidate splits, the encrypted left
// count and left statistic of every sent channel (Eqn 7's left half; the rest
// is derived by expandStats) — all its (node, feature, channel) bucket passes
// in one parallel batch — and ships them to the super client in one message.
// The returned per-splitter slices (canonical split order, as the
// conversion expects) are non-nil only at the super client.
func (p *Party) computeSplitStatsLevel(nodes []frontierNode, gchs [][][]*paillier.Ciphertext) ([][]*paillier.Ciphertext, error) {
	K := len(nodes)
	statsPerSplit := 1 + len(gchs[0])
	channels := make([][][]*paillier.Ciphertext, K)
	for i := range nodes {
		channels[i] = append([][]*paillier.Ciphertext{nodes[i].nd.alpha}, gchs[i]...)
	}
	if p.audit != nil {
		return p.provenSplitStats(channels)
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

// convertSplitStats runs the one Algorithm-2 conversion for the statistics of
// the whole frontier — per splitter, the E sent channel totals followed by the
// S·(1+E) left statistics (only the super client's ciphertexts matter; the
// others contribute masks) — and expands the shares for computeGains.
func (p *Party) convertSplitStats(nShares []mpc.Share, gchs [][][]*paillier.Ciphertext, statCts [][]*paillier.Ciphertext, C int) (totals, stats []mpc.Share, err error) {
	E := len(gchs[0])
	per := E + p.totalSplits()*(1+E)
	all := make([]*paillier.Ciphertext, 0, len(gchs)*per)
	for i, chs := range gchs {
		for _, ch := range chs {
			all = append(all, p.foldAdd(ch))
		}
		if p.ID == p.Super {
			all = append(all, statCts[i]...)
		} else {
			all = append(all, make([]*paillier.Ciphertext, per-E)...)
		}
	}
	var shares []mpc.Share
	err = p.timedWire(&p.Stats.Phases.Conversion, &p.Stats.Phases.ConversionWire, func() error {
		var err error
		shares, err = p.encToShares(all, len(all), p.w.stat)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	totals, stats = p.expandStats(shares, nShares, C, E)
	return totals, stats, nil
}

// provenSplitStats is the malicious-mode (§9.1.2) computeSplitStatsLevel:
// every left statistic is a homomorphic dot product carrying a POHDP against
// its owner's committed split indicator, sent to the super client one message
// per (node, split, channel) and verified there.  Right sides and the last
// class are derived from these on authenticated shares and carry no proof of
// their own.  channels[i] lists node i's encrypted channels, mask vector first.
func (p *Party) provenSplitStats(channels [][][]*paillier.Ciphertext) ([][]*paillier.Ciphertext, error) {
	out := make([][]*paillier.Ciphertext, len(channels))
	for i, chs := range channels {
		var mine []*paillier.Ciphertext
		for flat, vl := range p.flatSplits() {
			for _, ch := range chs {
				dl, err := p.audit.statWithProof(flat, ch, vl)
				if err != nil {
					return nil, err
				}
				mine = append(mine, dl)
			}
		}
		if p.ID != p.Super {
			continue // statWithProof shipped each statistic
		}
		// Super: assemble all clients' statistics in canonical order.
		for c := 0; c < p.M; c++ {
			if c == p.ID {
				out[i] = append(out[i], mine...)
				continue
			}
			for s := 0; s < p.clientSplits(c); s++ {
				for _, ch := range chs {
					dl, err := p.audit.verifyStat(c, s, ch)
					if err != nil {
						return nil, err
					}
					out[i] = append(out[i], dl)
				}
			}
		}
	}
	return out, nil
}

// makeLeavesLevel resolves all of a level's leaves in shared batches: one
// conversion, one reciprocal/truncation chain (regression) or one grouped
// argmax over the per-class counts (classification), and one batched
// opening (basic) or share-to-ciphertext conversion (enhanced).  Leaf
// positions are assigned in entry order per tree — visit order, on either
// schedule.
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
	if p.cfg.DP != nil {
		// §9.2: Laplace noise on each class count (parallel composition).
		// Counts are integers; they move to the noise's fixed-point scale.
		noise := dp.LaplaceVec(p.eng, 1/p.cfg.DP.Epsilon, L*C)
		scale := new(big.Int).Lsh(big.NewInt(1), p.cfg.F)
		for j := range shares {
			shares[j] = p.eng.Add(p.eng.MulPub(shares[j], scale), noise[j])
		}
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
	bests := p.eng.ArgmaxGrouped(shares, groups, ids, kCmp)
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
	if p.cfg.DP != nil {
		// §9.2: Laplace noise on each mean.
		sens := float64(int64(2)<<p.cfg.LabelBits) / float64(maxInt(p.cfg.Tree.MinSamplesSplit, 1))
		for i, noise := range dp.LaplaceVec(p.eng, sens/p.cfg.DP.Epsilon, L) {
			means[i] = p.eng.Add(means[i], noise)
		}
	}
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
