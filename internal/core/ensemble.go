package core

import (
	"math/big"
	"math/rand/v2"

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
	if p.pipelined() && p.cfg.NumTrees > 1 {
		return p.trainRFPipelined()
	}
	fm := &ForestModel{Classes: p.part.Classes}
	if err := p.rfRounds(fm, 0); err != nil {
		return nil, err
	}
	return fm, nil
}

// rfRounds trains forest trees w = start..NumTrees-1, arming the recovery
// unit context at each tree boundary so a level checkpoint inside tree w
// records the completed trees alongside it.
func (p *Party) rfRounds(fm *ForestModel, start int) error {
	for w := start; w < p.cfg.NumTrees; w++ {
		if p.ck != nil {
			p.rctx = &outerSnap{kind: kindRF, unit: w, trees: append([]*Model(nil), fm.Trees...)}
		}
		counts := bootstrapCounts(p.part.N, p.cfg.Subsample, uint64(p.cfg.Seed)+uint64(w))
		tree, err := p.trainTree(counts, nil, nil)
		if err != nil {
			return err
		}
		fm.Trees = append(fm.Trees, tree)
	}
	return nil
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

// PredictRF predicts one sample with the forest: majority vote over the
// encrypted per-tree predictions via secure maximum (classification) or a
// homomorphic mean (regression) — §7.1.
func (p *Party) PredictRF(fm *ForestModel, x []float64) (float64, error) {
	defer p.gatherStats()
	encPreds := make([]*paillier.Ciphertext, len(fm.Trees))
	for w, tree := range fm.Trees {
		ct, err := p.predictBasicEnc(tree, x)
		if err != nil {
			return 0, err
		}
		encPreds[w] = ct
	}
	if fm.Classes == 0 {
		sum := p.foldAdd(encPreds)
		mean := p.pk.MulConst(sum, p.cod.Encode(1.0/float64(len(fm.Trees))))
		vals, err := p.jointDecryptAll([]*paillier.Ciphertext{mean})
		if err != nil {
			return 0, err
		}
		return p.cod.DecodeScaled(vals[0], 2), nil
	}
	// Classification: convert the encrypted labels to shares and vote.
	shares, err := p.encToShares(encPreds, len(encPreds), p.w.value+2)
	if err != nil {
		return 0, err
	}
	votes := make([]mpc.Share, fm.Classes)
	ids := make([][]int64, fm.Classes)
	scale := new(big.Int).Lsh(big.NewInt(1), p.cfg.F)
	for k := 0; k < fm.Classes; k++ {
		ids[k] = []int64{int64(k)}
		votes[k] = p.eng.ConstInt64(0)
		target := new(big.Int).Mul(big.NewInt(int64(k)), scale)
		diffs := make([]mpc.Share, len(shares))
		for w := range shares {
			diffs[w] = p.eng.AddConst(shares[w], new(big.Int).Neg(target))
		}
		eqs := p.eng.EQZVec(diffs, p.w.value+2)
		for _, eq := range eqs {
			votes[k] = p.eng.Add(votes[k], eq)
		}
	}
	best := p.eng.ArgmaxTournament(votes, ids, 16)
	label := p.eng.OpenSigned(best.IDs[0])
	return float64(label.Int64()), nil
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
		tree, err := p.trainTree(nil, encY, encY2)
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
	if p.cfg.perNode() {
		trees := make([]*Model, c)
		las := make([][][]*paillier.Ciphertext, c)
		for k := 0; k < c; k++ {
			encY2, err := p.squareChannel(encY[k])
			if err != nil {
				return nil, nil, err
			}
			p.captureLeaves = true
			p.leafAlphas = nil
			tree, err := p.trainTree(nil, encY[k], encY2)
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
		probs := p.softmaxPerSample(scoreShares, c, n)
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

// softmaxPerSample computes softmax across classes for every sample, fully
// batched: scoreShares is laid out class-major ([k*n + t]).
func (p *Party) softmaxPerSample(scoreShares []mpc.Share, c, n int) []mpc.Share {
	kIn := p.cfg.F + 10
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

// PredictGBDT predicts one sample (§7.2 model prediction).
func (p *Party) PredictGBDT(bm *BoostModel, x []float64) (float64, error) {
	defer p.gatherStats()
	if bm.Classes == 0 {
		var acc *paillier.Ciphertext
		for _, tree := range bm.Forests[0] {
			ct, err := p.predictBasicEnc(tree, x)
			if err != nil {
				return 0, err
			}
			scaled := p.pk.MulConst(ct, p.cod.Encode(bm.LearningRate))
			if acc == nil {
				acc = scaled
			} else {
				acc = p.pk.Add(acc, scaled)
			}
		}
		vals, err := p.jointDecryptAll([]*paillier.Ciphertext{acc})
		if err != nil {
			return 0, err
		}
		return bm.Base + p.cod.DecodeScaled(vals[0], 2), nil
	}
	// Classification: encrypted per-class scores, then a secure argmax.
	encScores := make([]*paillier.Ciphertext, bm.Classes)
	for k := 0; k < bm.Classes; k++ {
		var acc *paillier.Ciphertext
		for _, tree := range bm.Forests[k] {
			ct, err := p.predictBasicEnc(tree, x)
			if err != nil {
				return 0, err
			}
			if acc == nil {
				acc = ct
			} else {
				acc = p.pk.Add(acc, ct)
			}
		}
		encScores[k] = acc
	}
	shares, err := p.encToShares(encScores, bm.Classes, p.w.stat)
	if err != nil {
		return 0, err
	}
	ids := make([][]int64, bm.Classes)
	for k := range ids {
		ids[k] = []int64{int64(k)}
	}
	best := p.eng.ArgmaxTournament(shares, ids, p.w.stat+2)
	label := p.eng.OpenSigned(best.IDs[0])
	return float64(label.Int64()), nil
}
