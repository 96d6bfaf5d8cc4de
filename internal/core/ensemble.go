package core

import (
	"math/big"
	"math/rand/v2"
	"time"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// Ensemble extensions (§7): random forest and gradient boosting built from
// Pivot decision trees as building blocks.  As in the paper, the ensemble
// trees are released under the basic protocol.

// ForestModel is a trained Pivot random forest.
type ForestModel struct {
	Trees   []*Model
	Classes int
}

// BoostModel is a trained Pivot GBDT: Forests[k] is the regression-tree
// sequence for class k (a single sequence for regression).
type BoostModel struct {
	Classes      int
	LearningRate float64
	Base         float64
	Forests      [][]*Model
}

// TrainRF trains cfg.NumTrees independent trees on public bootstrap
// resamples (§7.1: "each tree can be built ... and released separately").
// The bootstrap multiplicities are drawn from a PRG seeded by the shared
// session seed, so every client derives the same public counts.
func (p *Party) TrainRF() (*ForestModel, error) {
	if p.cfg.Protocol != Basic {
		// §7: "we assume that all the trees can be released in plaintext";
		// the round-robin ensemble prediction needs the public model.
		return nil, p.errf("ensemble training requires the basic protocol (paper §7)")
	}
	fm := &ForestModel{Classes: p.part.Classes}
	if err := p.rfTrees(fm, 0); err != nil {
		return nil, err
	}
	return fm, nil
}

// rfTrees trains forest trees w = start..NumTrees-1 into fm.Trees, tree w
// on slot w mod slots: every party assigns identical trees to identical
// lanes with no coordination.  A party that pipelines forks up to
// maxRFLanes lanes, except under a checkpoint store — lanes share no level
// join to snapshot at.  With one slot the trees train in turn on the party
// itself, which arms the recovery unit context at each tree boundary so a
// level checkpoint inside tree w records the completed trees alongside it.
func (p *Party) rfTrees(fm *ForestModel, start int) error {
	W := p.cfg.NumTrees
	slots := 1
	if p.pipelined() && p.ck == nil {
		slots = min(W-start, maxRFLanes)
	}
	began := time.Now()
	fm.Trees = append(fm.Trees, make([]*Model, W-start)...)
	tots := make([][][]mpc.Share, W)
	waits := make([]func() error, 0, slots)
	for s := 0; s < slots; s++ {
		wait, err := p.fork(uint32(s+1), slots > 1, func(lp *Party) error {
			for w := start + s; w < W; w += slots {
				if lp.ck != nil {
					lp.rctx = &outerSnap{kind: kindRF, unit: w, trees: append([]*Model(nil), fm.Trees[:w]...)}
				}
				counts := bootstrapCounts(lp.part.N, lp.cfg.Subsample, uint64(lp.cfg.Seed)+uint64(w))
				tree, leafTots, err := lp.trainTree(counts, nil, nil)
				if err != nil {
					return err
				}
				fm.Trees[w], tots[w] = tree, leafTots
			}
			return nil
		})
		if err != nil {
			return err
		}
		waits = append(waits, wait)
	}
	var firstErr error
	for _, wait := range waits {
		if err := wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if slots > 1 {
		// Lanes' wall time is not joined: the forest is timed whole.
		p.Stats.Wall += time.Since(began)
		p.gatherStats()
	}
	p.leafTots = tots
	return firstErr
}

func bootstrapCounts(n int, frac float64, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x5bf03635))
	draws := int(float64(n) * frac)
	if draws < 1 {
		draws = 1
	}
	counts := make([]int64, n)
	for i := 0; i < draws; i++ {
		counts[rng.IntN(n)]++
	}
	return counts
}

// TrainGBDT trains a gradient-boosted ensemble (§7.2).  Regression keeps
// the residual labels encrypted between rounds; classification runs
// one-vs-the-rest with a secure softmax between rounds.
func (p *Party) TrainGBDT() (*BoostModel, error) {
	if p.cfg.Protocol != Basic {
		return nil, p.errf("ensemble training requires the basic protocol (paper §7)")
	}
	if p.part.Classes > 0 {
		return p.trainGBDTClassification()
	}
	return p.trainGBDTRegression()
}

func (p *Party) trainGBDTRegression() (*BoostModel, error) {
	bm := &BoostModel{LearningRate: p.cfg.LearningRate, Forests: make([][]*Model, 1)}
	n := p.part.N

	// The super client centers the labels (the public base prediction) and
	// encrypts them; residuals stay encrypted for every round (§7.2).
	var encY []*paillier.Ciphertext
	err := timed(&p.Stats.Phases.LocalComputation, func() error {
		if p.ID == p.Super {
			var mean float64
			for _, y := range p.part.Y {
				mean += y
			}
			mean /= float64(n)
			bm.Base = mean
			vals := make([]*big.Int, n)
			for t := 0; t < n; t++ {
				vals[t] = p.cod.Encode(p.part.Y[t] - mean)
			}
			cts, err := p.encryptVec(vals)
			if err != nil {
				return err
			}
			if err := p.broadcastCtsChunked(cts); err != nil {
				return err
			}
			// Base is public model information: announce it.
			if err := p.broadcastInts([]*big.Int{mpc.ToField(p.cod.Encode(mean))}); err != nil {
				return err
			}
			encY = cts
			return nil
		}
		var err error
		encY, err = p.recvCtsChunked(p.Super, n)
		if err != nil {
			return err
		}
		xs, err := p.recvIntsN(p.Super, 1)
		if err != nil {
			return err
		}
		bm.Base = p.cod.Decode(mpc.Signed(xs[0]))
		return nil
	})
	if err != nil {
		return nil, err
	}

	if err := p.gbdtRegRounds(bm, encY, 0); err != nil {
		return nil, err
	}
	return bm, nil
}

// gbdtRegRounds runs boosting rounds w = start..NumTrees-1 on the encrypted
// residuals, arming the recovery unit context at each round boundary.
func (p *Party) gbdtRegRounds(bm *BoostModel, encY []*paillier.Ciphertext, start int) error {
	for w := start; w < p.cfg.NumTrees; w++ {
		if p.ck != nil {
			p.rctx = &outerSnap{kind: kindGBDTReg, unit: w, base: bm.Base,
				forests: [][]*Model{append([]*Model(nil), bm.Forests[0]...)},
				encY:    [][]*paillier.Ciphertext{encY}}
		}
		encY2, err := p.squareChannel(encY)
		if err != nil {
			return p.errf("round %d label squaring: %v", w, err)
		}
		p.captureLeaves = true
		p.leafAlphas = nil
		tree, _, err := p.trainTree(nil, encY, encY2)
		p.captureLeaves = false
		if err != nil {
			return err
		}
		bm.Forests[0] = append(bm.Forests[0], tree)
		if w+1 < p.cfg.NumTrees {
			encY = p.residualUpdate(encY, tree, p.leafAlphas, p.cfg.LearningRate)
		}
	}
	return nil
}

// squareChannel derives [y²] (2f-scaled) from [y] by one round of MPC
// squaring — the per-round computation §7.2 introduces so that the split
// owners can thereafter maintain [γ₂] with cheap plaintext masking.
func (p *Party) squareChannel(encY []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	out, err := p.squareChannels([][]*paillier.Ciphertext{encY})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// squareChannels derives [y²] for every class channel in one conversion and
// one multiplication chain shared across classes.
func (p *Party) squareChannels(encYs [][]*paillier.Ciphertext) ([][]*paillier.Ciphertext, error) {
	var flat []*paillier.Ciphertext
	for _, ch := range encYs {
		flat = append(flat, ch...)
	}
	shares, err := p.encToShares(flat, len(flat), p.w.stat)
	if err != nil {
		return nil, err
	}
	// 2f-scaled squares; per-sample labels/residuals are value-bounded.
	sq := p.eng.MulVecSigned(shares, shares, p.w.value, p.w.value)
	cts, err := p.shareToEnc(sq, p.w.stat, p.Super)
	if err != nil {
		return nil, err
	}
	out := make([][]*paillier.Ciphertext, len(encYs))
	off := 0
	for k, ch := range encYs {
		out[k] = cts[off : off+len(ch)]
		off += len(ch)
	}
	return out, nil
}

// trainBoostRound trains one boosting round's class trees.  On the
// level-wise schedule all C trees share a single frontier, so each depth's
// conversion, gain, argmax and model-update chains run once for the whole
// round instead of once per class; the per-node schedule keeps the paper's
// per-class loop.
func (p *Party) trainBoostRound(encY [][]*paillier.Ciphertext) ([]*Model, [][][]*paillier.Ciphertext, error) {
	c := len(encY)
	if p.perNode {
		trees := make([]*Model, c)
		las := make([][][]*paillier.Ciphertext, c)
		for k := 0; k < c; k++ {
			encY2, err := p.squareChannel(encY[k])
			if err != nil {
				return nil, nil, err
			}
			p.captureLeaves = true
			p.leafAlphas = nil
			tree, _, err := p.trainTree(nil, encY[k], encY2)
			p.captureLeaves = false
			if err != nil {
				return nil, nil, err
			}
			trees[k] = tree
			las[k] = p.leafAlphas
		}
		return trees, las, nil
	}
	encY2s, err := p.squareChannels(encY)
	if err != nil {
		return nil, nil, err
	}
	return p.trainTreesShared(encY, encY2s)
}

// residualUpdate computes [Y^{w+1}] = [Y^w] ⊖ ν·[Ŷ^w], where the encrypted
// estimation [Ŷ] is assembled from the tree's leaf labels (public, basic
// protocol) and the captured encrypted leaf mask vectors.
func (p *Party) residualUpdate(encY []*paillier.Ciphertext, tree *Model,
	leafAlphas [][]*paillier.Ciphertext, nu float64) []*paillier.Ciphertext {

	n := len(encY)
	out := make([]*paillier.Ciphertext, n)
	scaled := make([]*big.Int, tree.Leaves)
	for _, node := range tree.Nodes {
		if node.Leaf {
			scaled[node.LeafPos] = p.cod.Encode(-nu * node.Label)
		}
	}
	for t := 0; t < n; t++ {
		acc := encY[t]
		for leaf := 0; leaf < tree.Leaves; leaf++ {
			if scaled[leaf].Sign() == 0 {
				continue
			}
			acc = p.pk.Add(acc, p.pk.MulConst(leafAlphas[leaf][t], scaled[leaf]))
		}
		out[t] = acc
	}
	p.Stats.HEOps += int64(n * tree.Leaves)
	return out
}

func (p *Party) trainGBDTClassification() (*BoostModel, error) {
	c := p.part.Classes
	n := p.part.N
	bm := &BoostModel{Classes: c, LearningRate: p.cfg.LearningRate, Forests: make([][]*Model, c)}

	// One-hot targets as shares (input once by the super client) and the
	// initial residuals onehot − 1/c, encrypted by the super client.
	onehot := make([][]mpc.Share, c)
	encY := make([][]*paillier.Ciphertext, c)
	for k := 0; k < c; k++ {
		vals := make([]*big.Int, n)
		encVals := make([]*big.Int, n)
		for t := 0; t < n && p.ID == p.Super; t++ {
			var oh float64
			if int(p.part.Y[t]) == k {
				oh = 1
			}
			{
				vals[t] = p.cod.Encode(oh)
				encVals[t] = p.cod.Encode(oh - 1.0/float64(c))
			}
		}
		onehot[k] = p.eng.InputVec(p.Super, vals)
		if p.ID == p.Super {
			cts, err := p.encryptVec(encVals)
			if err != nil {
				return nil, err
			}
			if err := p.broadcastCtsChunked(cts); err != nil {
				return nil, err
			}
			encY[k] = cts
		} else {
			var err error
			encY[k], err = p.recvCtsChunked(p.Super, n)
			if err != nil {
				return nil, err
			}
		}
	}

	// Encrypted raw scores per class, accumulated across rounds.
	scores := make([][]*paillier.Ciphertext, c)
	if err := p.gbdtClsRounds(bm, onehot, encY, scores, 0, nil, nil); err != nil {
		return nil, err
	}
	return bm, nil
}

// gbdtClsRounds runs classification boosting rounds w = start..NumTrees-1.
// When trees is non-nil, round start's class trees are already trained (a
// checkpoint resume finished them) and only the post-round bookkeeping —
// score accumulation and the softmax residual update — runs for that round.
func (p *Party) gbdtClsRounds(bm *BoostModel, onehot [][]mpc.Share,
	encY, scores [][]*paillier.Ciphertext, start int,
	trees []*Model, las [][][]*paillier.Ciphertext) error {

	c := bm.Classes
	n := p.part.N
	for w := start; w < p.cfg.NumTrees; w++ {
		if trees == nil {
			if p.ck != nil {
				forests := make([][]*Model, c)
				for k := 0; k < c; k++ {
					forests[k] = append([]*Model(nil), bm.Forests[k]...)
				}
				p.rctx = &outerSnap{kind: kindGBDTCls, unit: w, forests: forests,
					encY:   append([][]*paillier.Ciphertext(nil), encY...),
					scores: append([][]*paillier.Ciphertext(nil), scores...),
					onehot: onehot}
			}
			var err error
			trees, las, err = p.trainBoostRound(encY)
			if err != nil {
				return p.errf("round %d: %v", w, err)
			}
		}
		for k := 0; k < c; k++ {
			bm.Forests[k] = append(bm.Forests[k], trees[k])
			scores[k] = p.accumulateScores(scores[k], trees[k], las[k], p.cfg.LearningRate)
		}
		trees, las = nil, nil
		if w+1 == p.cfg.NumTrees {
			break
		}
		// Secure softmax over the current scores; the next residuals are
		// onehot − softmax, converted back to ciphertexts (§7.2).
		flat := make([]*paillier.Ciphertext, 0, c*n)
		for k := 0; k < c; k++ {
			flat = append(flat, scores[k]...)
		}
		scoreShares, err := p.encToShares(flat, len(flat), p.w.stat)
		if err != nil {
			return err
		}
		probs := p.softmaxSamples(scoreShares, c, n)
		for k := 0; k < c; k++ {
			resid := make([]mpc.Share, n)
			for t := 0; t < n; t++ {
				resid[t] = p.eng.Sub(onehot[k][t], probs[k*n+t])
			}
			encY[k], err = p.shareToEnc(resid, p.w.value+4, p.Super)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// accumulateScores adds ν·[Ŷ] for the freshly trained tree to the running
// encrypted scores.
func (p *Party) accumulateScores(scores []*paillier.Ciphertext, tree *Model,
	leafAlphas [][]*paillier.Ciphertext, nu float64) []*paillier.Ciphertext {

	n := p.part.N
	scaled := make([]*big.Int, tree.Leaves)
	for _, node := range tree.Nodes {
		if node.Leaf {
			scaled[node.LeafPos] = p.cod.Encode(nu * node.Label)
		}
	}
	out := make([]*paillier.Ciphertext, n)
	for t := 0; t < n; t++ {
		var acc *paillier.Ciphertext
		if scores != nil {
			acc = scores[t]
		}
		for leaf := 0; leaf < tree.Leaves; leaf++ {
			if scaled[leaf].Sign() == 0 {
				continue
			}
			term := p.pk.MulConst(leafAlphas[leaf][t], scaled[leaf])
			if acc == nil {
				acc = term
			} else {
				acc = p.pk.Add(acc, term)
			}
		}
		if acc == nil {
			// No informative leaves; a zero ciphertext keeps shapes uniform.
			acc = p.pk.MulConst(leafAlphas[0][t], big.NewInt(0))
		}
		out[t] = acc
	}
	p.Stats.HEOps += int64(n * tree.Leaves)
	return out
}

// softmaxSamples computes softmax across classes for every sample, fully
// batched: scoreShares is laid out class-major ([k*n + t]).
func (p *Party) softmaxSamples(scoreShares []mpc.Share, c, n int) []mpc.Share {
	kIn := FracBits + 10
	exps := p.eng.ExpVec(scoreShares, kIn)
	sums := make([]mpc.Share, n)
	for t := 0; t < n; t++ {
		sums[t] = p.eng.ConstInt64(0)
		for k := 0; k < c; k++ {
			sums[t] = p.eng.Add(sums[t], exps[k*n+t])
		}
	}
	denoms := make([]mpc.Share, c*n)
	for k := 0; k < c; k++ {
		for t := 0; t < n; t++ {
			denoms[k*n+t] = sums[t]
		}
	}
	return p.eng.FPDivVec(exps, denoms, 52)
}
