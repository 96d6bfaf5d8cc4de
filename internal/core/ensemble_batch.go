package core

import (
	"math/big"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// Batched ensemble prediction (§7): the Algorithm-4 round robin is shared
// across *trees* as well as samples — all trees of a forest (or all class
// forests of a GBDT) ride one concatenated [η] matrix — and the voting /
// argmax stage batches across samples via ArgmaxGrouped, so a whole
// batch's ensemble prediction costs one round chain.

// PredictRFBatch predicts a sample batch with the forest: one round-robin
// pass for all trees × samples, then a single conversion, one batched
// equality ladder and one grouped secure argmax (classification) or one
// batched homomorphic mean and joint decryption (regression).
func (p *Party) PredictRFBatch(fm *ForestModel, X [][]float64) ([]float64, error) {
	defer p.gatherStats()
	B := len(X)
	if B == 0 {
		return nil, nil
	}
	byTree, err := p.predictBasicEncBatchTrees(fm.Trees, X)
	if err != nil {
		return nil, err
	}
	W := len(fm.Trees)
	if fm.Classes == 0 {
		inv := p.cod.Encode(1.0 / float64(W))
		var cts []*paillier.Ciphertext
		if p.ID == p.Super {
			cts = make([]*paillier.Ciphertext, B)
			col := make([]*paillier.Ciphertext, W)
			for t := 0; t < B; t++ {
				for w := 0; w < W; w++ {
					col[w] = byTree[w][t]
				}
				cts[t] = p.pk.MulConst(p.foldAdd(col), inv)
			}
			p.Stats.HEOps += int64(B)
		}
		vals, err := p.releasePacked(cts, B, p.releaseWidth(inv, W))
		if err != nil {
			return nil, err
		}
		out := make([]float64, B)
		for t := range out {
			out[t] = p.cod.DecodeScaled(vals[t], 2)
		}
		return out, nil
	}

	// Classification: convert every (sample, tree) encrypted label in one
	// pass — the conversion reads them at the super client only — count the
	// class votes with one batched equality ladder, and resolve every
	// sample's argmax in one grouped round chain.
	var flat []*paillier.Ciphertext // sample-major
	if p.ID == p.Super {
		flat = make([]*paillier.Ciphertext, 0, B*W)
		for t := 0; t < B; t++ {
			for w := 0; w < W; w++ {
				flat = append(flat, byTree[w][t])
			}
		}
	}
	shares, err := p.encToShares(flat, B*W, p.w.value+2)
	if err != nil {
		return nil, err
	}
	scale := new(big.Int).Lsh(big.NewInt(1), FracBits)
	diffs := make([]mpc.Share, 0, B*fm.Classes*W)
	for t := 0; t < B; t++ {
		row := shares[t*W : (t+1)*W]
		for k := 0; k < fm.Classes; k++ {
			neg := new(big.Int).Neg(new(big.Int).Mul(big.NewInt(int64(k)), scale))
			for w := 0; w < W; w++ {
				diffs = append(diffs, p.eng.AddConst(row[w], neg))
			}
		}
	}
	eqs := p.eng.EQZVec(diffs, p.w.value+2)
	votes := make([]mpc.Share, 0, B*fm.Classes)
	ids := make([][]int64, 0, B*fm.Classes)
	groups := make([]int, B)
	for t := 0; t < B; t++ {
		groups[t] = fm.Classes
		for k := 0; k < fm.Classes; k++ {
			base := (t*fm.Classes + k) * W
			votes = append(votes, p.eng.Sum(eqs[base:base+W]))
			ids = append(ids, []int64{int64(k)})
		}
	}
	best := p.eng.ArgmaxGrouped(votes, groups, ids, 16)
	return p.openLabels(best)
}

// PredictGBDTBatch predicts a sample batch with the GBDT (§7.2): all
// boosting trees of all class forests share one round-robin pass, and the
// final score argmax (classification) or decryption (regression) runs once
// for the batch.
func (p *Party) PredictGBDTBatch(bm *BoostModel, X [][]float64) ([]float64, error) {
	defer p.gatherStats()
	B := len(X)
	if B == 0 {
		return nil, nil
	}
	if bm.Classes == 0 {
		byTree, err := p.predictBasicEncBatchTrees(bm.Forests[0], X)
		if err != nil {
			return nil, err
		}
		nu := p.cod.Encode(bm.LearningRate)
		var cts []*paillier.Ciphertext
		if p.ID == p.Super {
			cts = make([]*paillier.Ciphertext, B)
			for t := 0; t < B; t++ {
				var acc *paillier.Ciphertext
				for w := range byTree {
					scaled := p.pk.MulConst(byTree[w][t], nu)
					if acc == nil {
						acc = scaled
					} else {
						acc = p.pk.Add(acc, scaled)
					}
				}
				cts[t] = acc
			}
		}
		vals, err := p.releasePacked(cts, B, p.releaseWidth(nu, len(bm.Forests[0])))
		if err != nil {
			return nil, err
		}
		out := make([]float64, B)
		for t := range out {
			out[t] = bm.Base + p.cod.DecodeScaled(vals[t], 2)
		}
		return out, nil
	}

	// Classification: concatenate every class forest's trees into one
	// round-robin pass, fold each forest's encrypted scores per sample,
	// convert once, and resolve every sample's class argmax in one grouped
	// round chain.
	var all []*Model
	for k := 0; k < bm.Classes; k++ {
		all = append(all, bm.Forests[k]...)
	}
	byTree, err := p.predictBasicEncBatchTrees(all, X)
	if err != nil {
		return nil, err
	}
	var encScores []*paillier.Ciphertext // sample-major, at the super client
	if p.ID == p.Super {
		encScores = make([]*paillier.Ciphertext, 0, B*bm.Classes)
		for t := 0; t < B; t++ {
			base := 0
			for k := 0; k < bm.Classes; k++ {
				var acc *paillier.Ciphertext
				for w := range bm.Forests[k] {
					ct := byTree[base+w][t]
					if acc == nil {
						acc = ct
					} else {
						acc = p.pk.Add(acc, ct)
					}
				}
				base += len(bm.Forests[k])
				encScores = append(encScores, acc)
			}
		}
		p.Stats.HEOps += int64(B * (len(all) - bm.Classes))
	}
	shares, err := p.encToShares(encScores, B*bm.Classes, p.w.stat)
	if err != nil {
		return nil, err
	}
	groups := make([]int, B)
	ids := make([][]int64, 0, B*bm.Classes)
	for t := 0; t < B; t++ {
		groups[t] = bm.Classes
		for k := 0; k < bm.Classes; k++ {
			ids = append(ids, []int64{int64(k)})
		}
	}
	best := p.eng.ArgmaxGrouped(shares, groups, ids, p.w.stat+2)
	return p.openLabels(best)
}

// openLabels opens every group's winning identifier in one round.
func (p *Party) openLabels(best []mpc.ArgmaxResult) ([]float64, error) {
	idShares := make([]mpc.Share, len(best))
	for t := range best {
		idShares[t] = best[t].IDs[0]
	}
	opened := p.eng.OpenVec(idShares)
	out := make([]float64, len(best))
	for t := range out {
		out[t] = float64(mpc.Signed(opened[t]).Int64())
	}
	return out, nil
}
