package core

import (
	"math/big"
	"time"

	"repro/internal/dp"
	"repro/internal/mpc"
	"repro/internal/paillier"
)

// nodeData carries the encrypted per-node state down the tree recursion: the
// encrypted mask vector [α] (§4.1) and, in encrypted-label mode (GBDT trees
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
			return nil, p.errf("commitment phase: %v", err)
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
	// The malicious and DP extensions specify their proof and noise
	// sub-protocols per node, so they always run the per-node recursion;
	// everything else defaults to the level-wise pipeline (identical trees,
	// far fewer synchronous MPC rounds).
	if p.cfg.TrainMode == PerNode || p.cfg.Malicious || p.cfg.DP != nil {
		if _, err := p.buildNode(model, nd, 0); err != nil {
			return nil, err
		}
	} else if err := p.buildLevels(model, nd); err != nil {
		return nil, err
	}
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
	roots := make([]nodeData, len(encYs))
	for k := range encYs {
		tasks[k] = &treeTask{
			model:   &Model{Protocol: p.cfg.Protocol, Hide: p.cfg.Hide},
			capture: true,
		}
		roots[k] = nodeData{alpha: alpha, gch: [][]*paillier.Ciphertext{encYs[k], encY2s[k]}}
	}
	if err := p.buildLevelsMulti(tasks, roots); err != nil {
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
		if err := p.broadcastCts(cts); err != nil {
			return nil, err
		}
		return cts, nil
	}
	return p.recvCts(p.Super)
}

// channels returns the number of label channels C: one per class for
// classification, two (y, y²) for regression and encrypted-label mode.
func (p *Party) channels(nd nodeData) int {
	if nd.gch != nil || p.part.Classes == 0 {
		return 2
	}
	return p.part.Classes
}

// foldAdd homomorphically sums a ciphertext vector (local, deterministic, so
// every client derives the identical ciphertext).
func (p *Party) foldAdd(cts []*paillier.Ciphertext) *paillier.Ciphertext {
	p.Stats.HEOps += int64(len(cts))
	return p.pk.FoldAdd(cts)
}

// buildNode recursively splits one node and returns its index in the model.
func (p *Party) buildNode(model *Model, nd nodeData, depth int) (int, error) {
	p.Stats.NodesTrained++

	// ----- pruning conditions (Algorithm 3, lines 1-3) -----
	nodeCt := p.foldAdd(nd.alpha)
	var nShare mpc.Share
	err := timed(&p.Stats.Phases.Conversion, func() error {
		sh, err := p.encToShares([]*paillier.Ciphertext{nodeCt}, 1, p.w.count+2)
		if err != nil {
			return err
		}
		nShare = sh[0]
		return nil
	})
	if err != nil {
		return 0, p.errf("node count conversion: %v", err)
	}
	leaf := depth >= p.cfg.Tree.MaxDepth || p.totalSplits() == 0
	if !leaf {
		err := timed(&p.Stats.Phases.MPCComputation, func() error {
			checked := nShare
			threshold := p.eng.ConstInt64(int64(p.cfg.Tree.MinSamplesSplit))
			width := p.w.count + 4
			if p.cfg.DP != nil {
				// §9.2: noisy pruning-condition query (sensitivity 1).  The
				// count moves to fixed-point scale to match the noise.
				scale := new(big.Int).Lsh(big.NewInt(1), p.cfg.F)
				checked = p.eng.Add(p.eng.MulPub(checked, scale), dp.Laplace(p.eng, 1/p.cfg.DP.Epsilon))
				threshold = p.eng.MulPub(threshold, scale)
				width += p.cfg.F
			}
			lt := p.eng.LT(checked, threshold, width)
			leaf = p.eng.Open(lt).Sign() != 0
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	if leaf {
		return p.makeLeaf(model, nd, nShare)
	}

	// ----- local computation step: [L] and encrypted statistics -----
	var gch [][]*paillier.Ciphertext
	err = timed(&p.Stats.Phases.LocalComputation, func() error {
		var err error
		gch, err = p.computeGammas(nd)
		return err
	})
	if err != nil {
		return 0, p.errf("gamma computation: %v", err)
	}
	C := len(gch)
	gTotals := make([]*paillier.Ciphertext, C)
	for k := range gch {
		gTotals[k] = p.foldAdd(gch[k])
	}
	var statCts []*paillier.Ciphertext
	err = timed(&p.Stats.Phases.LocalComputation, func() error {
		var err error
		statCts, err = p.computeSplitStats(nd.alpha, gch)
		return err
	})
	if err != nil {
		return 0, p.errf("split statistics: %v", err)
	}

	// ----- MPC computation step: convert, gains, oblivious argmax -----
	statsPerSplit := 2 + 2*C
	total := C + p.totalSplits()*statsPerSplit
	var all []*paillier.Ciphertext
	if p.ID == p.Super {
		all = append(append([]*paillier.Ciphertext{}, gTotals...), statCts...)
	} else {
		all = gTotals // only the totals matter locally; super holds the rest
		all = append(append([]*paillier.Ciphertext{}, gTotals...), make([]*paillier.Ciphertext, total-C)...)
	}
	var shares []mpc.Share
	err = timed(&p.Stats.Phases.Conversion, func() error {
		var err error
		shares, err = p.encToShares(all, total, p.w.stat)
		return err
	})
	if err != nil {
		return 0, p.errf("statistics conversion: %v", err)
	}

	var best mpc.ArgmaxResult
	var useDP = p.cfg.DP != nil
	var leafByGain bool
	err = timed(&p.Stats.Phases.MPCComputation, func() error {
		gains, err := p.computeGains(shares[:C], shares[C:], []mpc.Share{nShare}, C, statsPerSplit, model.Classes > 0)
		if err != nil {
			return err
		}
		if useDP {
			// §9.2: exponential mechanism over the gains with sensitivity 2.
			// Following Friedman & Schuster (the paper's [33]), the quality
			// function is the count-weighted gain n·gain(τ), whose larger
			// score spread gives the mechanism usable utility.
			weighted := make([]mpc.Share, len(gains))
			ns := make([]mpc.Share, len(gains))
			for i := range gains {
				ns[i] = nShare
			}
			weighted = p.eng.MulVec(gains, ns)
			ids := dp.ExponentialSelect(p.eng, weighted, p.splitIDs, p.cfg.DP.Epsilon, 2.0, p.w.gain+p.w.count+2)
			best = mpc.ArgmaxResult{Max: p.eng.ConstInt64(1), IDs: ids}
			return nil
		}
		best = p.eng.Argmax(gains, p.splitIDs, p.w.gain+2, p.cfg.ArgmaxTournament)
		if p.cfg.Tree.LeafOnZeroGain {
			le := p.eng.LE(best.Max, p.eng.ConstInt64(0), p.w.gain+2)
			leafByGain = p.eng.Open(le).Sign() != 0
		}
		return nil
	})
	if err != nil {
		return 0, p.errf("gain computation: %v", err)
	}
	if leafByGain {
		return p.makeLeaf(model, nd, nShare)
	}

	// ----- model update step -----
	if p.cfg.Protocol == Basic {
		ids := p.eng.OpenVec(best.IDs[:3])
		iStar := int(ids[0].Int64())
		jStar := int(ids[1].Int64())
		sStar := int(ids[2].Int64())
		return p.updateBasic(model, nd, iStar, jStar, sStar, depth)
	}
	switch p.cfg.Hide {
	case HideFeature:
		// §5.2 discussion: only i* is revealed; the PIR index ranges over
		// all of the owner's splits.  The owner-local flat index is the
		// shared global index minus the owner's public base offset.
		iStar := int(p.eng.OpenVec(best.IDs[:1])[0].Int64())
		flat := p.eng.AddConst(best.IDs[3], big.NewInt(-int64(p.clientBase(iStar))))
		return p.updateEnhancedHidden(model, nd, iStar, flat, depth)
	case HideClient:
		// Nothing is revealed; the PIR index ranges over all db splits.
		return p.updateEnhancedHidden(model, nd, -1, best.IDs[3], depth)
	default:
		ids := p.eng.OpenVec(best.IDs[:2])
		iStar := int(ids[0].Int64())
		jStar := int(ids[1].Int64())
		return p.updateEnhanced(model, nd, iStar, jStar, best.IDs[2], depth)
	}
}

// computeGammas is the local computation step's first half: the super client
// derives the masked label channels [γ] from [α] and broadcasts them
// (classification: one 0/1 channel per class; regression: y and y²
// channels).  In encrypted-label mode the channels are already maintained
// per node by the split owners, so nothing needs to be sent.
func (p *Party) computeGammas(nd nodeData) ([][]*paillier.Ciphertext, error) {
	if nd.gch != nil {
		return nd.gch, nil
	}
	C := p.channels(nd)
	out := make([][]*paillier.Ciphertext, C)
	if p.audit != nil {
		for k := 0; k < C; k++ {
			ch, err := p.audit.gammaWithProofs(nd.alpha, k)
			if err != nil {
				return nil, err
			}
			out[k] = ch
		}
		return out, nil
	}
	if p.ID == p.Super {
		n := p.part.N
		for k := 0; k < C; k++ {
			betas := make([]*big.Int, n)
			for t := 0; t < n; t++ {
				if p.part.Classes > 0 {
					if int(p.part.Y[t]) == k {
						betas[t] = big.NewInt(1)
					} else {
						betas[t] = big.NewInt(0)
					}
				} else if k == 0 {
					betas[t] = p.cod.Encode(p.part.Y[t])
				} else {
					y := p.cod.Encode(p.part.Y[t])
					betas[t] = new(big.Int).Mul(y, y)
				}
			}
			ch, err := p.scalarMulRerandVec(nd.alpha, betas)
			if err != nil {
				return nil, err
			}
			if err := p.broadcastCts(ch); err != nil {
				return nil, err
			}
			out[k] = ch
		}
		return out, nil
	}
	for k := 0; k < C; k++ {
		ch, err := p.recvCts(p.Super)
		if err != nil {
			return nil, err
		}
		out[k] = ch
	}
	return out, nil
}

// scalarMulRerand computes a rerandomized β ⊗ [x] (fresh randomness so the
// result reveals nothing about β).
func (p *Party) scalarMulRerand(ct *paillier.Ciphertext, beta *big.Int) (*paillier.Ciphertext, error) {
	p.Stats.HEOps++
	var out *paillier.Ciphertext
	switch {
	case beta.Sign() == 0:
		return p.encryptInt64(0)
	case beta.Cmp(big.NewInt(1)) == 0:
		out = ct
	default:
		out = p.pk.MulConst(ct, beta)
	}
	res, err := p.pk.Rerandomize(cryptoRand(), out)
	if err != nil {
		return nil, err
	}
	p.Stats.Encryptions++
	return res, nil
}

// computeSplitStats is the second half of the local computation step: every
// client computes, for each of its candidate splits, the encrypted left and
// right statistics over every channel plus the counts (Eqn 7), and ships
// them to the super client for conversion.  The returned slice is non-nil
// only at the super client, in canonical split order.
func (p *Party) computeSplitStats(alpha []*paillier.Ciphertext, gch [][]*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	channels := append([][]*paillier.Ciphertext{alpha}, gch...)
	statsPerSplit := 2 * len(channels)

	// Compute my own statistics.  In semi-honest mode all (split, channel,
	// side) dot products are independent, so they run as one parallel batch
	// across the configured workers; the malicious path keeps its serial
	// proof protocol.
	var mine []*paillier.Ciphertext
	if p.audit != nil {
		totals := make([]*paillier.Ciphertext, len(channels))
		for c, ch := range channels {
			totals[c] = p.foldAdd(ch)
		}
		flat := 0
		for j := range p.indic {
			for s := range p.indic[j] {
				vl := p.indic[j][s]
				for c, ch := range channels {
					// Proven left statistic; right = total − left is
					// publicly derivable, so it carries no proof.
					dl, err := p.audit.statWithProof(flat, ch, vl)
					if err != nil {
						return nil, err
					}
					mine = append(mine, dl, p.pk.Sub(totals[c], dl))
				}
				flat++
			}
		}
	} else {
		stats, err := p.bucketStats([][][]*paillier.Ciphertext{channels})
		if err != nil {
			return nil, err
		}
		if mine, err = p.rerandVec(stats); err != nil {
			return nil, err
		}
	}

	if p.ID != p.Super {
		if len(mine) > 0 && p.audit == nil {
			if err := p.sendCts(p.Super, mine); err != nil {
				return nil, err
			}
		}
		// In malicious mode statWithProof already shipped each statistic.
		return nil, nil
	}

	// Super: assemble all clients' statistics in canonical order.
	var all []*paillier.Ciphertext
	for c := 0; c < p.M; c++ {
		nSplits := 0
		for _, cnt := range p.splitCounts[c] {
			nSplits += cnt
		}
		if nSplits == 0 {
			continue
		}
		if c == p.ID {
			all = append(all, mine...)
			continue
		}
		if p.audit != nil {
			totals := make([]*paillier.Ciphertext, len(channels))
			for k, ch := range channels {
				totals[k] = p.foldAdd(ch)
			}
			for s := 0; s < nSplits; s++ {
				for k, ch := range channels {
					dl, err := p.audit.verifyStat(c, s, ch)
					if err != nil {
						return nil, err
					}
					all = append(all, dl, p.pk.Sub(totals[k], dl))
				}
			}
			continue
		}
		theirs, err := p.recvCts(c)
		if err != nil {
			return nil, err
		}
		if len(theirs) != nSplits*statsPerSplit {
			return nil, p.errf("client %d sent %d stats, want %d", c, len(theirs), nSplits*statsPerSplit)
		}
		all = append(all, theirs...)
	}
	return all, nil
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

// bucketStats computes this client's split statistics, before
// rerandomization, for a batch of nodes: channels[i] lists node i's encrypted
// channels (mask vector first).  The thresholds of a feature ascend, so its
// left indicator vectors are nested and every sample lies in exactly one
// bucket (Party.bucket): one pass per (node, feature, channel) multiplies
// each sample into its bucket, and split s's left statistic is the product of
// buckets 0..s, its right statistic the product of buckets s+1..b — the same
// integers as v_l ⊙ [ch] and (1 − v_l) ⊙ [ch], at n + 2(b − 1) ciphertext
// products per feature and channel instead of 2nb.  The result is flat in
// (node, feature, split, channel, [left, right]) order.
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
	out := make([]*paillier.Ciphertext, 0, len(channels)*p.clientSplits(p.ID)*2*C)
	for g, j := range feats {
		b := len(p.cands[j])
		sides := make([]*paillier.Ciphertext, 2*b*C) // [split][channel][left, right]
		for c := 0; c < C; c++ {
			bk := prods[g*C+c]
			at := func(s, side int) int { return (s*C+c)*2 + side }
			sides[at(0, 0)] = bk[0]
			for s := 1; s < b; s++ {
				sides[at(s, 0)] = p.pk.Add(sides[at(s-1, 0)], bk[s])
			}
			sides[at(b-1, 1)] = bk[b]
			for s := b - 2; s >= 0; s-- {
				sides[at(s, 1)] = p.pk.Add(sides[at(s+1, 1)], bk[s+1])
			}
			p.Stats.HEOps += int64(len(css[g*C+c]) + 2*(b-1))
		}
		out = append(out, sides...)
	}
	return out, nil
}

// computeGains turns the converted statistics into one secretly shared gain
// per candidate split (Eqns 5, 6 and 8), entirely inside the MPC engine.
// It is grouped over nodes: nNodes holds one node-count share per node
// (group), totals holds C channel totals per node, and stats holds
// statsPerSplit values per split laid out as [n_l, n_r, ch1_l, ch1_r, ...],
// S splits per node, node-major.  The per-node recursion calls it with a
// single group; the level-wise pipeline passes the whole frontier so every
// reciprocal, multiplication and truncation round is shared across nodes.
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

// makeLeaf finishes a branch: the leaf value is computed under MPC and
// either opened (basic) or converted to a ciphertext (enhanced).
func (p *Party) makeLeaf(model *Model, nd nodeData, nShare mpc.Share) (int, error) {
	if p.captureLeaves {
		p.leafAlphas = append(p.leafAlphas, nd.alpha)
	}
	node := Node{Leaf: true, LeafPos: model.Leaves}
	err := timed(&p.Stats.Phases.MPCComputation, func() error {
		if model.Classes > 0 {
			return p.leafClassification(model, &node, nd)
		}
		return p.leafRegression(model, &node, nd, nShare)
	})
	if err != nil {
		return 0, p.errf("leaf: %v", err)
	}
	model.Leaves++
	idx := len(model.Nodes)
	model.Nodes = append(model.Nodes, node)
	return idx, nil
}

// leafClassification picks the majority class obliviously.
func (p *Party) leafClassification(model *Model, node *Node, nd nodeData) error {
	C := model.Classes
	// Super computes the encrypted per-class counts [g_k] = β_k ⊙ [α],
	// one parallel batch over the classes.
	counts := make([]*paillier.Ciphertext, C)
	if p.ID == p.Super {
		betas := make([][]*big.Int, C)
		alphas := make([][]*paillier.Ciphertext, C)
		for k := 0; k < C; k++ {
			beta := make([]*big.Int, p.part.N)
			for t := range beta {
				if int(p.part.Y[t]) == k {
					beta[t] = big.NewInt(1)
				} else {
					beta[t] = big.NewInt(0)
				}
			}
			betas[k] = beta
			alphas[k] = nd.alpha
		}
		var err error
		counts, err = p.dotRerandVec(betas, alphas)
		if err != nil {
			return err
		}
	}
	var shares []mpc.Share
	err := timed(&p.Stats.Phases.Conversion, func() error {
		var err error
		shares, err = p.encToShares(counts, C, p.w.count+2)
		return err
	})
	if err != nil {
		return err
	}
	if p.cfg.DP != nil {
		// §9.2: Laplace noise on each class count (parallel composition).
		noise := dp.LaplaceVec(p.eng, 1/p.cfg.DP.Epsilon, C)
		scale := new(big.Int).Lsh(big.NewInt(1), p.cfg.F)
		for k := range shares {
			// Counts are integers; bring the noise to integer scale.
			shares[k] = p.eng.Add(p.eng.MulPub(shares[k], scale), p.eng.MulPub(noise[k], big.NewInt(1)))
		}
	}
	ids := make([][]int64, C)
	for k := range ids {
		ids[k] = []int64{int64(k)}
	}
	kCmp := p.w.count + p.cfg.F + 4
	best := p.eng.Argmax(shares, ids, kCmp, p.cfg.ArgmaxTournament)
	if p.cfg.Protocol == Basic {
		label := p.eng.OpenSigned(best.IDs[0])
		node.Label = float64(label.Int64())
		return nil
	}
	// Store the concealed label at the common fixed-point scale so the
	// shared-model prediction decodes uniformly.
	scaled := p.eng.MulPub(best.IDs[0], new(big.Int).Lsh(big.NewInt(1), p.cfg.F))
	cts, err := p.shareToEnc([]mpc.Share{scaled}, p.cfg.F+10, p.Super)
	if err != nil {
		return err
	}
	node.EncLabel = cts[0]
	return nil
}

// leafRegression computes the (possibly encrypted) mean label.
func (p *Party) leafRegression(model *Model, node *Node, nd nodeData, nShare mpc.Share) error {
	// Encrypted label sum: fold the maintained γ1 channel (encrypted-label
	// mode) or let the super compute y ⊙ [α].
	var sumCt *paillier.Ciphertext
	if nd.gch != nil {
		sumCt = p.foldAdd(nd.gch[0])
	} else if p.ID == p.Super {
		y := make([]*big.Int, p.part.N)
		for t := range y {
			y[t] = p.cod.Encode(p.part.Y[t])
		}
		var err error
		sumCt, err = p.dotRerand(y, nd.alpha)
		if err != nil {
			return err
		}
	}
	var sumShare mpc.Share
	err := timed(&p.Stats.Phases.Conversion, func() error {
		sh, err := p.encToShares([]*paillier.Ciphertext{sumCt}, 1, p.w.stat)
		if err != nil {
			return err
		}
		sumShare = sh[0]
		return nil
	})
	if err != nil {
		return err
	}
	recip := p.eng.RecipVec([]mpc.Share{nShare}, p.w.count+2)[0]
	// 2f-scaled mean; even a single multiplication packs its two Beaver
	// differences into one opened element.
	raw := p.eng.MulVecSigned([]mpc.Share{sumShare}, []mpc.Share{recip}, p.w.stat, p.cfg.F+2)[0]
	mean := p.eng.Trunc(raw, p.w.stat+p.cfg.F+4, p.cfg.F)
	if p.cfg.DP != nil {
		sens := float64(int64(2)<<p.cfg.LabelBits) / float64(maxInt(p.cfg.Tree.MinSamplesSplit, 1))
		mean = p.eng.Add(mean, dp.Laplace(p.eng, sens/p.cfg.DP.Epsilon))
	}
	if p.cfg.Protocol == Basic {
		node.Label = p.eng.DecodeSigned(p.eng.Open(mean))
		return nil
	}
	cts, err := p.shareToEnc([]mpc.Share{mean}, p.w.value+2, p.Super)
	if err != nil {
		return err
	}
	node.EncLabel = cts[0]
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
