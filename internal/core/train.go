package core

import (
	"math/big"
	"time"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// nodeData carries a node's encrypted state down the tree: the encrypted
// mask vector [α] (§4.1) and, in encrypted-label mode (GBDT trees
// after the first round, §7.2), the masked label channels [γ].
type nodeData struct {
	alpha []*paillier.Ciphertext
	gch   [][]*paillier.Ciphertext // nil in plain-label mode
}

// TrainDT trains one decision tree (Algorithm 3 with the §5 extensions when
// cfg.Protocol == Enhanced).  Every client calls this concurrently; all
// return the same model.
func (p *Party) TrainDT() (*Model, error) {
	if p.ck != nil {
		p.rctx = &outerSnap{kind: kindDT}
	}
	return p.trainTree(nil, nil, nil)
}

// trainTree is the shared entry point: rootCounts (optional) are public
// bootstrap multiplicities for RF; encY/encY2 (optional) switch on
// encrypted-label mode for GBDT boosting rounds.
func (p *Party) trainTree(rootCounts []int64, encY, encY2 []*paillier.Ciphertext) (*Model, error) {
	start := time.Now()
	defer func() {
		p.Stats.Wall += time.Since(start)
		p.gatherStats()
	}()
	if p.audit != nil {
		if err := p.audit.commitTraining(p.labelVectors()); err != nil {
			return nil, p.errf("commitment phase: %w", err)
		}
	}
	var alpha []*paillier.Ciphertext
	err := timed(&p.Stats.Phases.LocalComputation, func() error {
		var err error
		alpha, err = p.initialAlpha(rootCounts)
		return err
	})
	if err != nil {
		return nil, err
	}
	nd := nodeData{alpha: alpha}
	if encY != nil {
		// Encrypted-label mode: γ channels start as the (already masked by
		// all-ones α) encrypted label and squared-label vectors.
		nd.gch = [][]*paillier.Ciphertext{encY, encY2}
	}
	model := &Model{Classes: p.part.Classes, Protocol: p.cfg.Protocol, Hide: p.cfg.Hide}
	if encY != nil {
		model.Classes = 0 // boosting rounds fit regression trees
	}
	// One set of kernels (trainLevel), two schedules: Algorithm 3's
	// depth-first walk, one node per round chain, where the configuration
	// asks for it or the malicious and DP extensions' per-node proof and
	// noise sub-protocols require it; otherwise breadth-first, the whole
	// frontier of a depth per chain (identical trees, far fewer synchronous
	// MPC rounds).
	task := &treeTask{model: model, capture: p.captureLeaves}
	tasks, root := []*treeTask{task}, []frontierNode{{nd: nd, parent: -1}}
	if p.cfg.perNode() {
		err = p.walkDepthFirst(tasks, root, 0)
	} else {
		err = p.runLevels(tasks, root, 0)
	}
	if err != nil {
		return nil, err
	}
	p.leafAlphas = append(p.leafAlphas, task.leafAlphas...)
	if p.cfg.Malicious {
		if err := p.eng.CheckMACs(); err != nil {
			return nil, p.errf("MAC check: %v", err)
		}
	}
	p.Stats.TreesTrained++
	return model, nil
}

// trainTreesShared trains one regression tree per encrypted label channel
// with every tree sharing a single level-wise frontier (the GBDT cross-class
// extension): one root mask vector serves all trees, and each depth's
// conversion, gain, argmax and batched-update chains run once for the whole
// set of class trees.  It returns the models and each tree's captured leaf
// mask vectors, exactly as sequential trainTree calls would.
func (p *Party) trainTreesShared(encYs, encY2s [][]*paillier.Ciphertext) ([]*Model, [][][]*paillier.Ciphertext, error) {
	start := time.Now()
	defer func() {
		p.Stats.Wall += time.Since(start)
		p.gatherStats()
	}()
	var alpha []*paillier.Ciphertext
	err := timed(&p.Stats.Phases.LocalComputation, func() error {
		var err error
		alpha, err = p.initialAlpha(nil)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	tasks := make([]*treeTask, len(encYs))
	roots := make([]frontierNode, len(encYs))
	for k := range encYs {
		tasks[k] = &treeTask{
			model:   &Model{Protocol: p.cfg.Protocol, Hide: p.cfg.Hide},
			capture: true,
		}
		roots[k] = frontierNode{
			nd:   nodeData{alpha: alpha, gch: [][]*paillier.Ciphertext{encYs[k], encY2s[k]}},
			tree: k, parent: -1,
		}
	}
	if err := p.runLevels(tasks, roots, 0); err != nil {
		return nil, nil, err
	}
	models := make([]*Model, len(tasks))
	las := make([][][]*paillier.Ciphertext, len(tasks))
	for k, task := range tasks {
		models[k] = task.model
		las[k] = task.leafAlphas
	}
	p.Stats.TreesTrained += len(tasks)
	return models, las, nil
}

// labelVectors builds the vectors the super client commits to in malicious
// mode: per-class indicators (classification) or encoded y and y² vectors
// (regression).  Nil at the other clients.
func (p *Party) labelVectors() [][]*big.Int {
	if p.ID != p.Super {
		return nil
	}
	n := p.part.N
	if p.part.Classes > 0 {
		out := make([][]*big.Int, p.part.Classes)
		for k := range out {
			vec := make([]*big.Int, n)
			for t := 0; t < n; t++ {
				if int(p.part.Y[t]) == k {
					vec[t] = big.NewInt(1)
				} else {
					vec[t] = big.NewInt(0)
				}
			}
			out[k] = vec
		}
		return out
	}
	y := make([]*big.Int, n)
	y2 := make([]*big.Int, n)
	for t := 0; t < n; t++ {
		y[t] = p.cod.Encode(p.part.Y[t])
		y2[t] = new(big.Int).Mul(y[t], y[t]) // 2f-scaled
	}
	return [][]*big.Int{y, y2}
}

// initialAlpha builds the root's encrypted mask vector: all ones (or the
// public bootstrap counts for an RF tree), encrypted by the super client and
// broadcast (§4.1).
func (p *Party) initialAlpha(counts []int64) ([]*paillier.Ciphertext, error) {
	if p.ID == p.Super {
		vals := make([]*big.Int, p.part.N)
		for t := range vals {
			if counts == nil {
				vals[t] = big.NewInt(1)
			} else {
				vals[t] = big.NewInt(counts[t])
			}
		}
		cts, err := p.encryptVec(vals)
		if err != nil {
			return nil, err
		}
		if err := p.broadcastCtsChunked(cts); err != nil {
			return nil, err
		}
		return cts, nil
	}
	return p.recvCtsChunked(p.Super, p.part.N)
}

// channels returns the number of label channels C: one per class for
// classification, two (y, y²) for regression and encrypted-label mode.
func (p *Party) channels(nd nodeData) int {
	if nd.gch != nil || p.part.Classes == 0 {
		return 2
	}
	return p.part.Classes
}

// sentChannels returns how many label channels E are masked, shipped and
// converted: all but the last class for plaintext-label classification (the
// indicator channels sum to the mask vector), otherwise both of y and y².
func (p *Party) sentChannels(nd nodeData) int {
	if nd.gch == nil && p.part.Classes > 0 {
		return p.part.Classes - 1
	}
	return 2
}

// foldAdd homomorphically sums a ciphertext vector (local, deterministic, so
// every client derives the identical ciphertext).
func (p *Party) foldAdd(cts []*paillier.Ciphertext) *paillier.Ciphertext {
	p.Stats.HEOps += int64(len(cts))
	return p.pk.FoldAdd(cts)
}

// dotRerand is a rerandomized homomorphic dot product.
func (p *Party) dotRerand(v []*big.Int, ch []*paillier.Ciphertext) (*paillier.Ciphertext, error) {
	d, err := p.pk.Dot(v, ch)
	if err != nil {
		return nil, err
	}
	p.Stats.HEOps += int64(len(v))
	out, err := p.pk.Rerandomize(cryptoRand(), d)
	if err != nil {
		return nil, err
	}
	p.Stats.Encryptions++
	return out, nil
}

// bucketStats computes this client's left split statistics, before
// rerandomization, for a batch of nodes: channels[i] lists node i's encrypted
// channels (mask vector first, then the sent label channels).  The thresholds
// of a feature ascend, so its left indicator vectors are nested and every
// sample lies in exactly one bucket (Party.bucket): one pass per (node,
// feature, channel) multiplies each sample into its bucket, and split s's left
// statistic is the product of buckets 0..s — the same integer as v_l ⊙ [ch],
// at n + (b − 1) ciphertext products per feature and channel instead of nb.
// Right sides are derived on shares (expandStats).  The result is flat in
// (node, feature, split, channel) order.
func (p *Party) bucketStats(channels [][][]*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	C := len(channels[0])
	// One job per (node, feature, channel); feats names the feature of each
	// run of C consecutive jobs.
	var feats []int
	var css [][]*paillier.Ciphertext
	var buckets [][]int
	var nbs []int
	for _, chs := range channels {
		for j := range p.cands {
			if len(p.cands[j]) == 0 {
				continue
			}
			feats = append(feats, j)
			for _, ch := range chs {
				css = append(css, ch)
				buckets = append(buckets, p.bucket[j])
				nbs = append(nbs, len(p.cands[j])+1)
			}
		}
	}
	prods, err := p.pk.BucketProductsVec(css, buckets, nbs, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	out := make([]*paillier.Ciphertext, 0, len(channels)*p.clientSplits(p.ID)*C)
	for g, j := range feats {
		b := len(p.cands[j])
		lefts := make([]*paillier.Ciphertext, b*C) // [split][channel]
		for c := 0; c < C; c++ {
			bk := prods[g*C+c]
			lefts[c] = bk[0]
			for s := 1; s < b; s++ {
				lefts[s*C+c] = p.pk.Add(lefts[(s-1)*C+c], bk[s])
			}
			p.Stats.HEOps += int64(len(css[g*C+c]) + b - 1)
		}
		out = append(out, lefts...)
	}
	return out, nil
}

// expandStats rebuilds, from the converted block of each splitter — E sent
// channel totals, then [n_l, ch_1,l … ch_E,l] per split — the C totals per
// node and [n_l, n_r, ch1_l, ch1_r, …] per split that computeGains takes.
// The rest is linear on shares and exact on integers: n_r = n − n_l, ch_r =
// total − ch_l, and for classification's unsent last class total = n − Σ
// totals and left = n_l − Σ lefts.
func (p *Party) expandStats(shares, nShares []mpc.Share, C, E int) (totals, stats []mpc.Share) {
	S, eng := p.totalSplits(), p.eng
	per := E + S*(1+E)
	for i, n := range nShares {
		blk := shares[i*per : (i+1)*per]
		tot := blk[:E:E]
		if E < C {
			tot = append(tot, eng.Sub(n, eng.Sum(tot)))
		}
		totals = append(totals, tot...)
		for s := 0; s < S; s++ {
			ls := blk[E+s*(1+E) : E+(s+1)*(1+E)]
			lefts := ls[1:]
			if E < C {
				lefts = append(lefts[:E:E], eng.Sub(ls[0], eng.Sum(lefts)))
			}
			stats = append(stats, ls[0], eng.Sub(n, ls[0]))
			for k, l := range lefts {
				stats = append(stats, l, eng.Sub(tot[k], l))
			}
		}
	}
	return totals, stats
}

// computeGains turns the converted statistics into one secretly shared gain
// per candidate split (Eqns 5, 6 and 8), entirely inside the MPC engine.
// It is grouped over nodes: nNodes holds one node-count share per node
// (group), totals holds C channel totals per node, and stats holds
// statsPerSplit = 2 + 2C values per split laid out as [n_l, n_r, ch1_l,
// ch1_r, ...] (expandStats derives them from the 1 + E converted), S splits
// per node, node-major, so every reciprocal, multiplication and truncation
// round is shared across the nodes of the frontier.
// The returned gains are node-major, S per node.
func (p *Party) computeGains(totals, stats []mpc.Share, nNodes []mpc.Share, C, statsPerSplit int, classification bool) ([]mpc.Share, error) {
	S := p.totalSplits()
	G := len(nNodes)
	eng := p.eng

	// Reciprocals for every branch count and every node count, in one
	// batch: group g occupies [g·(2S+1), (g+1)·(2S+1)), node count last.
	recipIn := make([]mpc.Share, 0, G*(2*S+1))
	for g := 0; g < G; g++ {
		base := g * S * statsPerSplit
		for s := 0; s < S; s++ {
			recipIn = append(recipIn, stats[base+s*statsPerSplit], stats[base+s*statsPerSplit+1])
		}
		recipIn = append(recipIn, nNodes[g])
	}
	recips := eng.RecipVec(recipIn, p.w.count+2)
	rns := make([]mpc.Share, G) // per-node 1/n
	for g := 0; g < G; g++ {
		rns[g] = recips[g*(2*S+1)+2*S]
	}

	if classification {
		switch p.cfg.Tree.Criterion {
		case Entropy, GainRatio:
			return p.entropyGains(totals, stats, recips, rns, C, statsPerSplit)
		default:
			return p.giniGains(totals, stats, recips, rns, C, statsPerSplit)
		}
	}
	return p.varianceGains(totals, stats, recips, rns, statsPerSplit)
}

// branchRecip returns the reciprocal share of node g's split s, side d from
// the computeGains reciprocal layout.
func branchRecip(recips []mpc.Share, S, g, s, d int) mpc.Share {
	return recips[g*(2*S+1)+2*s+d]
}

// giniGains computes, per node and split τ, w_l·Σ_k p_{l,k}² +
// w_r·Σ_k p_{r,k}² − Σ_k p_k² (Eqn 5), the quantity whose argmax is the
// best split, for all groups in shared batches.
func (p *Party) giniGains(totals, stats, recips []mpc.Share, rns []mpc.Share, C, statsPerSplit int) ([]mpc.Share, error) {
	S := p.totalSplits()
	G := len(rns)
	eng := p.eng
	kSq := 2*p.cfg.F + 4

	// Fractions p_{side,k} = g_{side,k} · (1/n_side) for every node, split,
	// side and class, in one multiplication batch.
	var gs, rs []mpc.Share
	for g := 0; g < G; g++ {
		base := g * S * statsPerSplit
		for s := 0; s < S; s++ {
			sb := base + s*statsPerSplit
			for k := 0; k < C; k++ {
				gs = append(gs, stats[sb+2+2*k], stats[sb+2+2*k+1])
				rs = append(rs, branchRecip(recips, S, g, s, 0), branchRecip(recips, S, g, s, 1))
			}
		}
	}
	ps := eng.MulVecBounded(gs, rs, p.w.stat, p.cfg.F+2) // f-scaled fractions
	sqs := eng.FPMulVecW(ps, ps, p.cfg.F+2, p.cfg.F+2, kSq)

	// Node impurity terms Σ_k p_k², one per node.
	var ng, nr []mpc.Share
	for g := 0; g < G; g++ {
		for k := 0; k < C; k++ {
			ng = append(ng, totals[g*C+k])
			nr = append(nr, rns[g])
		}
	}
	nps := eng.MulVecBounded(ng, nr, p.w.stat, p.cfg.F+2)
	nsqs := eng.FPMulVecW(nps, nps, p.cfg.F+2, p.cfg.F+2, kSq)
	nodeImps := make([]mpc.Share, G)
	for g := 0; g < G; g++ {
		nodeImps[g] = eng.Sum(nsqs[g*C : (g+1)*C])
	}

	// Branch weights w_side = n_side · (1/n), then the weighted sums.
	var wn, wr, sums []mpc.Share
	for g := 0; g < G; g++ {
		base := g * S * statsPerSplit
		for s := 0; s < S; s++ {
			sb := base + s*statsPerSplit
			wn = append(wn, stats[sb], stats[sb+1])
			wr = append(wr, rns[g], rns[g])
			sl := eng.ConstInt64(0)
			sr := eng.ConstInt64(0)
			for k := 0; k < C; k++ {
				idx := ((g*S+s)*C + k) * 2
				sl = eng.Add(sl, sqs[idx])
				sr = eng.Add(sr, sqs[idx+1])
			}
			sums = append(sums, sl, sr)
		}
	}
	ws := eng.MulVecBounded(wn, wr, p.w.count, p.cfg.F+2)
	terms := eng.FPMulVecW(ws, sums, p.cfg.F+2, p.cfg.F+2+uint(C), kSq)
	gains := make([]mpc.Share, G*S)
	for g := 0; g < G; g++ {
		for s := 0; s < S; s++ {
			i := g*S + s
			gains[i] = eng.Sub(eng.Add(terms[2*i], terms[2*i+1]), nodeImps[g])
		}
	}
	return gains, nil
}

// entropyGains computes, per node and split τ, the information gain
// IE(D) − (w_l·IE(D_l) + w_r·IE(D_r)) with IE = −Σ_k p_k ln p_k, entirely
// under MPC (the ID3/C4.5 generalization of §2.3).  It mirrors giniGains but
// replaces p² with p·ln p via the engine's secure logarithm.  Empty-branch
// classes have an exactly-zero fraction share, so their (undefined) log term
// is annihilated by the multiplication, matching the 0·ln 0 := 0 convention.
func (p *Party) entropyGains(totals, stats, recips []mpc.Share, rns []mpc.Share, C, statsPerSplit int) ([]mpc.Share, error) {
	S := p.totalSplits()
	G := len(rns)
	eng := p.eng
	kSq := 2*p.cfg.F + 4

	// Fractions for every node/split/side/class, with each node's own
	// fractions appended to its block so one batch covers all logarithm
	// evaluations.  Node g's block spans [g·(2SC+C), (g+1)·(2SC+C)).
	blk := 2*S*C + C
	var gs, rs []mpc.Share
	for g := 0; g < G; g++ {
		base := g * S * statsPerSplit
		for s := 0; s < S; s++ {
			sb := base + s*statsPerSplit
			for k := 0; k < C; k++ {
				gs = append(gs, stats[sb+2+2*k], stats[sb+2+2*k+1])
				rs = append(rs, branchRecip(recips, S, g, s, 0), branchRecip(recips, S, g, s, 1))
			}
		}
		for k := 0; k < C; k++ {
			gs = append(gs, totals[g*C+k])
			rs = append(rs, rns[g])
		}
	}
	ps := eng.MulVecBounded(gs, rs, p.w.stat, p.cfg.F+2) // f-scaled fractions
	lns := eng.LnVec(ps)                                 // f-scaled ln p (garbage when p = 0)
	// p·ln p ∈ (−1/e·…, 0]; exact 0 when p = 0.  |ln p| ≤ f·ln 2 < 2^5.
	terms := eng.FPMulVecW(ps, lns, p.cfg.F+2, p.cfg.F+6, kSq)

	// Node purity terms Σ_k p_k ln p_k (= −IE(D)), one per node.
	nodeTerms := make([]mpc.Share, G)
	for g := 0; g < G; g++ {
		nodeTerms[g] = eng.Sum(terms[g*blk+2*S*C : g*blk+2*S*C+C])
	}

	// Branch weights and the weighted purity sums.
	var wn, wrc, sums []mpc.Share
	for g := 0; g < G; g++ {
		base := g * S * statsPerSplit
		for s := 0; s < S; s++ {
			sb := base + s*statsPerSplit
			wn = append(wn, stats[sb], stats[sb+1])
			wrc = append(wrc, rns[g], rns[g])
			sl := eng.ConstInt64(0)
			sr := eng.ConstInt64(0)
			for k := 0; k < C; k++ {
				idx := g*blk + (s*C+k)*2
				sl = eng.Add(sl, terms[idx])
				sr = eng.Add(sr, terms[idx+1])
			}
			sums = append(sums, sl, sr)
		}
	}
	ws := eng.MulVecBounded(wn, wrc, p.w.count, p.cfg.F+2)
	weighted := eng.FPMulVecW(ws, sums, p.cfg.F+2, p.cfg.F+6+uint(C), kSq)
	gains := make([]mpc.Share, G*S)
	for i := range gains {
		// gain = IE(D) − Σ w·IE(branch) = Σ w·(p ln p) − node(p ln p).
		gains[i] = eng.Sub(eng.Add(weighted[2*i], weighted[2*i+1]), nodeTerms[i/S])
	}

	if p.cfg.Tree.Criterion == GainRatio {
		// C4.5: normalize each gain by the split information
		// −(w_l·ln w_l + w_r·ln w_r) + ε, all inside MPC.  ε matches the
		// plaintext reference (tree.splitInfoEps) and keeps near-degenerate
		// splits from dividing by ~0.
		lnw := eng.LnVec(ws)
		winfo := eng.FPMulVecW(ws, lnw, p.cfg.F+2, p.cfg.F+6, kSq) // w·ln w ≤ 0
		eps := eng.EncodeConst(1.0 / 256)
		infos := make([]mpc.Share, G*S)
		for i := range infos {
			si := eng.Neg(eng.Add(winfo[2*i], winfo[2*i+1]))
			infos[i] = eng.AddConst(si, eps)
		}
		gains = eng.FPDivVec(gains, infos, p.cfg.F+2)
	}
	return gains, nil
}

// varianceGains computes, per node and split, IV(D) − (w_l·IV(D_l) +
// w_r·IV(D_r)) with IV from Eqn 6, using the label-sum and label-square-sum
// channels.
func (p *Party) varianceGains(totals, stats, recips []mpc.Share, rns []mpc.Share, statsPerSplit int) ([]mpc.Share, error) {
	S := p.totalSplits()
	G := len(rns)
	eng := p.eng
	f := p.cfg.F
	kBig := p.w.stat + f + 4
	kSq := 2*(p.cfg.LabelBits+f) + 4

	// Per branch: mean = u·(1/n_b); E[Y²] = trunc(q)·(1/n_b).  Node g's
	// block spans [g·(2S+1), (g+1)·(2S+1)), its own totals last.
	blk := 2*S + 1
	var us, qs, rsU []mpc.Share
	for g := 0; g < G; g++ {
		base := g * S * statsPerSplit
		for s := 0; s < S; s++ {
			sb := base + s*statsPerSplit
			us = append(us, stats[sb+2], stats[sb+3]) // Σy (f-scaled)
			qs = append(qs, stats[sb+4], stats[sb+5]) // Σy² (2f-scaled)
			rsU = append(rsU, branchRecip(recips, S, g, s, 0), branchRecip(recips, S, g, s, 1))
		}
		// Node totals travel through the same pipeline.
		us = append(us, totals[g*2])
		qs = append(qs, totals[g*2+1])
		rsU = append(rsU, rns[g])
	}

	qTr := eng.TruncVec(qs, p.w.stat+2, f) // back to f scale
	means := eng.FPMulVecW(us, rsU, p.w.stat, f+2, kBig)
	meanSqs := eng.FPMulVecW(means, means, p.w.value, p.w.value, kSq)
	ey2s := eng.FPMulVecW(qTr, rsU, p.w.stat, f+2, kBig)
	ivs := make([]mpc.Share, len(us))
	for i := range ivs {
		ivs[i] = eng.Sub(ey2s[i], meanSqs[i])
	}

	var wn, wrc, branchIVs []mpc.Share
	for g := 0; g < G; g++ {
		base := g * S * statsPerSplit
		for s := 0; s < S; s++ {
			sb := base + s*statsPerSplit
			wn = append(wn, stats[sb], stats[sb+1])
			wrc = append(wrc, rns[g], rns[g])
			branchIVs = append(branchIVs, ivs[g*blk+2*s], ivs[g*blk+2*s+1])
		}
	}
	ws := eng.MulVecBounded(wn, wrc, p.w.count, f+2)
	terms := eng.FPMulVecW(ws, branchIVs, f+2, kSq, kSq+f)
	gains := make([]mpc.Share, G*S)
	for i := range gains {
		nodeIV := ivs[(i/S)*blk+2*S]
		gains[i] = eng.Sub(nodeIV, eng.Add(terms[2*i], terms[2*i+1]))
	}
	return gains, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
