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
				tree, leafTots, err := lp.trainTree(counts)
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
// one-vs-the-rest with a secure softmax between rounds.  Both run the one
// boosting loop: a regression round is the class-shared round at C = 1.
func (p *Party) TrainGBDT() (*BoostModel, error) {
	if p.cfg.Protocol != Basic {
		return nil, p.errf("ensemble training requires the basic protocol (paper §7)")
	}
	c := p.part.Classes
	b, err := p.boostTargets(&BoostModel{Classes: c, LearningRate: p.cfg.LearningRate, Forests: make([][]*Model, max(c, 1))}, true)
	if err != nil {
		return nil, err
	}
	if err := p.boostRounds(b, 0, p.cfg.NumTrees, nil, nil); err != nil {
		return nil, err
	}
	return b.bm, nil
}

// boosting is a GBDT's state between rounds: the model so far, the
// encrypted residual channels the next round fits (one for regression, one
// per class) and, for classification only, the encrypted raw scores and the
// one-hot target shares the residuals are recomputed from.  A channel's
// ciphertext slice is replaced, never written in place, so a clone copies
// only the per-channel slice headers.
type boosting struct {
	bm     *BoostModel
	resid  [][]*paillier.Ciphertext
	scores [][]*paillier.Ciphertext
	onehot [][]mpc.Share
}

// clone copies b deeply enough that neither copy's rounds show in the
// other: a checkpoint snapshots one and every resume restores one.
func (b *boosting) clone() *boosting {
	bm := *b.bm
	bm.Forests = make([][]*Model, len(b.bm.Forests))
	for k, f := range b.bm.Forests {
		bm.Forests[k] = append([]*Model(nil), f...)
	}
	return &boosting{bm: &bm, onehot: b.onehot,
		resid:  append([][]*paillier.Ciphertext(nil), b.resid...),
		scores: append([][]*paillier.Ciphertext(nil), b.scores...)}
}

// add appends one round's trees, one per class, to the model.
func (b *boosting) add(trees []*Model) {
	for k, tree := range trees {
		b.bm.Forests[k] = append(b.bm.Forests[k], tree)
	}
}

// boostTargets sets up the targets of bm over the current samples: a fresh
// train when fresh, else a warm start that keeps bm.Base and derives its
// residuals from the replayed rounds.  Regression: the super client
// encrypts and broadcasts the centred labels y − Base; a fresh train first
// takes Base as the label mean and announces it (public model
// information).  Classification: the super client inputs the one-hot
// targets as shares and, on a fresh train, broadcasts the encrypted initial
// residuals onehot − 1/C.
func (p *Party) boostTargets(bm *BoostModel, fresh bool) (*boosting, error) {
	b := &boosting{bm: bm}
	y := p.part.Y
	err := timed(&p.Stats.Phases.LocalComputation, func() error {
		c := bm.Classes
		if c == 0 {
			if fresh && p.ID == p.Super {
				for _, v := range y {
					bm.Base += v
				}
				bm.Base /= float64(len(y))
			}
			ch, err := p.superEncrypt(func(t int) float64 { return y[t] - bm.Base })
			b.resid = [][]*paillier.Ciphertext{ch}
			if err != nil || !fresh {
				return err
			}
			if p.ID == p.Super {
				return p.broadcastInts([]*big.Int{mpc.ToField(p.cod.Encode(bm.Base))})
			}
			xs, err := p.recvIntsN(p.Super, 1)
			if err != nil {
				return err
			}
			bm.Base = p.cod.Decode(mpc.Signed(xs[0]))
			return nil
		}
		b.resid = make([][]*paillier.Ciphertext, c)
		b.scores = make([][]*paillier.Ciphertext, c)
		b.onehot = make([][]mpc.Share, c)
		for k := 0; k < c; k++ {
			oneHot := func(t int) float64 {
				if int(y[t]) == k {
					return 1
				}
				return 0
			}
			vals := make([]*big.Int, p.part.N)
			for t := 0; t < len(vals) && p.ID == p.Super; t++ {
				vals[t] = p.cod.Encode(oneHot(t))
			}
			b.onehot[k] = p.eng.InputVec(p.Super, vals)
			if fresh {
				var err error
				b.resid[k], err = p.superEncrypt(func(t int) float64 { return oneHot(t) - 1.0/float64(c) })
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	return b, err
}

// superEncrypt has the super client encrypt f(t) for every sample t and
// broadcast the ciphertexts; every party returns them.
func (p *Party) superEncrypt(f func(t int) float64) ([]*paillier.Ciphertext, error) {
	n := p.part.N
	if p.ID != p.Super {
		return p.recvCtsChunked(p.Super, n)
	}
	vals := make([]*big.Int, n)
	for t := range vals {
		vals[t] = p.cod.Encode(f(t))
	}
	p.poolReserve(n)
	cts, err := p.encryptVec(vals)
	if err != nil {
		return nil, err
	}
	return cts, p.broadcastCtsChunked(cts)
}

// boostRounds runs boosting rounds start..end−1, arming the recovery unit
// context at each round boundary.  Every round but the last is absorbed
// into the state the next one fits.  When trees is non-empty, round start
// is already trained — a warm start's last replayed round, or the round a
// checkpoint resume finished — and only its absorption runs.
func (p *Party) boostRounds(b *boosting, start, end int, trees []*Model, las [][][]*paillier.Ciphertext) error {
	for w := start; w < end; w++ {
		if len(trees) == 0 {
			if p.ck != nil {
				p.rctx = &outerSnap{kind: kindGBDT, unit: w, boost: b.clone()}
			}
			var err error
			if trees, las, err = p.trainBoostRound(b.resid); err != nil {
				return p.errf("round %d: %w", w, err)
			}
		}
		b.add(trees)
		if w+1 < end {
			if err := p.absorbRound(b, trees, las); err != nil {
				return err
			}
		}
		trees, las = nil, nil
	}
	return nil
}

// trainBoostRound trains one boosting round's trees, one per residual
// channel.  On the level-wise schedule all C trees share a single frontier,
// so each depth's conversion, gain, argmax and model-update chains run once
// for the whole round instead of once per class; the per-node schedule
// keeps the paper's per-class loop.
func (p *Party) trainBoostRound(resid [][]*paillier.Ciphertext) ([]*Model, [][][]*paillier.Ciphertext, error) {
	groups := [][][]*paillier.Ciphertext{resid}
	if p.perNode {
		groups = make([][][]*paillier.Ciphertext, len(resid))
		for k := range resid {
			groups[k] = resid[k : k+1]
		}
	}
	var trees []*Model
	var las [][][]*paillier.Ciphertext
	for _, g := range groups {
		sq, err := p.squareChannels(g)
		if err != nil {
			return nil, nil, err
		}
		ts, ls, err := p.trainTreesShared(g, sq)
		if err != nil {
			return nil, nil, err
		}
		trees, las = append(trees, ts...), append(las, ls...)
	}
	return trees, las, nil
}

// absorbRound folds a trained round into the state the next round fits.
// Classification then recomputes the residuals onehot − softmax(scores) on
// shares and converts them back to ciphertexts (§7.2).
func (p *Party) absorbRound(b *boosting, trees []*Model, las [][][]*paillier.Ciphertext) error {
	p.addEstimates(b, trees, las)
	if b.onehot == nil {
		return nil
	}
	c, n := len(trees), p.part.N
	flat := make([]*paillier.Ciphertext, 0, c*n)
	for k := 0; k < c; k++ {
		flat = append(flat, b.scores[k]...)
	}
	scoreShares, err := p.encToShares(flat, len(flat), p.w.stat)
	if err != nil {
		return err
	}
	probs := p.softmaxSamples(scoreShares, c, n)
	for k := 0; k < c; k++ {
		resid := make([]mpc.Share, n)
		for t := 0; t < n; t++ {
			resid[t] = p.eng.Sub(b.onehot[k][t], probs[k*n+t])
		}
		b.resid[k], err = p.shareToEnc(resid, p.w.value+4, p.Super)
		if err != nil {
			return err
		}
	}
	return nil
}

// addEstimates adds one round's estimates [Ŷ] to b, scaled by the learning
// rate ν: −ν onto the residuals (regression), +ν onto the raw scores
// (classification).
func (p *Party) addEstimates(b *boosting, trees []*Model, las [][][]*paillier.Ciphertext) {
	nu := b.bm.LearningRate
	for k, tree := range trees {
		if b.onehot == nil {
			b.resid[k] = p.addEstimate(b.resid[k], tree, las[k], -nu)
		} else {
			b.scores[k] = p.addEstimate(b.scores[k], tree, las[k], nu)
		}
	}
}

// addEstimate returns acc ⊕ coef·[Ŷ] for one tree, where the encrypted
// estimation [Ŷ] is assembled from the tree's leaf labels (public, basic
// protocol) and its leaves' encrypted mask vectors las.  A nil acc starts
// from zero.
func (p *Party) addEstimate(acc []*paillier.Ciphertext, tree *Model,
	las [][]*paillier.Ciphertext, coef float64) []*paillier.Ciphertext {

	n := p.part.N
	scaled := make([]*big.Int, tree.Leaves)
	for _, node := range tree.Nodes {
		if node.Leaf {
			scaled[node.LeafPos] = p.cod.Encode(coef * node.Label)
		}
	}
	out := make([]*paillier.Ciphertext, n)
	for t := 0; t < n; t++ {
		var sum *paillier.Ciphertext
		if acc != nil {
			sum = acc[t]
		}
		for leaf, s := range scaled {
			if s.Sign() == 0 {
				continue
			}
			term := p.pk.MulConst(las[leaf][t], s)
			if sum == nil {
				sum = term
			} else {
				sum = p.pk.Add(sum, term)
			}
		}
		if sum == nil {
			// No informative leaves; a zero ciphertext keeps shapes uniform.
			sum = p.pk.MulConst(las[0][t], big.NewInt(0))
		}
		out[t] = sum
	}
	p.Stats.HEOps += int64(n * tree.Leaves)
	return out
}

// squareChannels derives [y²] (2f-scaled) for every residual channel in one
// conversion and one multiplication chain shared across channels — the
// per-round computation §7.2 introduces so that the split owners can
// thereafter maintain [γ₂] with cheap plaintext masking.
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
