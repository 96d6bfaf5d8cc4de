package core

import (
	"math/big"
	"math/rand/v2"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// Vertical logistic regression — the §7.3 extension, built from the same
// three-step skeleton as tree training: (i) clients locally aggregate
// encrypted partial sums [ξ_it] = [θ_i] ⊙ x_it with TPHE, (ii) the sums are
// converted to secret shares and pushed through a secure logistic function,
// (iii) the secretly shared loss is converted back to a ciphertext so each
// client can update its encrypted weights homomorphically, never seeing the
// loss, the other clients' features, or the labels.

// LRModel is a trained vertical logistic regression model.  Each client
// holds the encrypted weights of its own features; Weights stores the
// jointly decrypted final model (released on agreement, like the basic
// protocol's tree).
type LRModel struct {
	Weights [][]float64 // per client, per local feature
	Bias    float64
}

// LRConfig are the §7.3 training hyper-parameters.
type LRConfig struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
}

// DefaultLRConfig returns demo-scale defaults.
func DefaultLRConfig() LRConfig {
	return LRConfig{Epochs: 3, BatchSize: 8, LearningRate: 0.5}
}

// TrainLR trains a binary (0/1 labels) vertical logistic regression model.
func (p *Party) TrainLR(cfg LRConfig) (*LRModel, error) {
	if cfg.Epochs == 0 {
		cfg = DefaultLRConfig()
	}
	n := p.part.N
	dLocal := len(p.part.Features)
	kVal := p.w.value + 6

	// Encrypted local weight vector [θ_i], initialized to zero, plus an
	// encrypted bias maintained by the super client.
	theta := make([]*paillier.Ciphertext, dLocal)
	for j := range theta {
		ct, err := p.encryptInt64(0)
		if err != nil {
			return nil, err
		}
		theta[j] = ct
	}
	var bias *paillier.Ciphertext
	bias, err := p.encryptInt64(0)
	if err != nil {
		return nil, err
	}

	// The super client provides the labels as secret shares once.
	yShares := make([]mpc.Share, n)
	{
		vals := make([]*big.Int, n)
		if p.ID == p.Super {
			for t := 0; t < n; t++ {
				vals[t] = p.cod.Encode(p.part.Y[t])
			}
		}
		yShares = p.eng.InputVec(p.Super, vals)
	}

	// Mini-batch SGD with a shared deterministic batch order.
	order := rand.New(rand.NewPCG(uint64(p.cfg.Seed)+1, 17)).Perm(n)
	lrEnc := p.cod.Encode(cfg.LearningRate / float64(maxInt(cfg.BatchSize, 1)))

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			batch := order[start:end]

			// (i) Local encrypted partial sums [ξ_it] = x_it ⊙ [θ_i]
			// (fixed-point features as plaintext scalars).
			partials := make([]*paillier.Ciphertext, len(batch))
			for bi, t := range batch {
				xs := make([]*big.Int, dLocal)
				for j := 0; j < dLocal; j++ {
					xs[j] = p.cod.Encode(p.part.X[t][j])
				}
				dot, err := p.pk.Dot(xs, theta)
				if err != nil {
					return nil, err
				}
				if p.ID == p.Super {
					dot = p.pk.Add(dot, p.pk.MulConst(bias, p.cod.One()))
				}
				ct, err := p.pk.Rerandomize(cryptoRand(), dot)
				if err != nil {
					return nil, err
				}
				partials[bi] = ct
			}
			p.Stats.HEOps += int64(len(batch) * dLocal)
			p.Stats.Encryptions += int64(len(batch))

			// Ship everyone's partials to the super client and convert the
			// per-sample sums z_t = Σ_i ξ_it to shares.  The partial sums
			// are 2f-scaled (f-scaled weights times f-scaled features).
			var sums []*paillier.Ciphertext
			if p.ID == p.Super {
				sums = partials
				for c := 0; c < p.M; c++ {
					if c == p.Super {
						continue
					}
					theirs, err := p.recvCtsChunked(c, len(batch))
					if err != nil {
						return nil, err
					}
					for bi := range sums {
						sums[bi] = p.pk.Add(sums[bi], theirs[bi])
					}
				}
			} else {
				if err := p.sendCtsChunked(p.Super, partials); err != nil {
					return nil, err
				}
			}
			zShares, err := p.encToShares(sums, len(batch), p.w.stat+p.cfg.F)
			if err != nil {
				return nil, err
			}
			zShares = p.eng.TruncVec(zShares, p.w.stat+p.cfg.F+2, p.cfg.F) // back to f scale

			// (ii) Secure logistic function and loss ℓ_t = y_t − σ(z_t).
			probs := p.secureSigmoid(zShares, kVal)
			losses := make([]mpc.Share, len(batch))
			for bi, t := range batch {
				losses[bi] = p.eng.Sub(yShares[t], probs[bi])
			}

			// (iii) Convert the losses back to ciphertexts (§5.2 trick) and
			// update the encrypted weights locally: θ_j += η·Σ_t ℓ_t·x_tj.
			encLoss, err := p.shareToEnc(losses, p.cfg.F+8, p.Super)
			if err != nil {
				return nil, err
			}
			// Scale the loss by the learning rate first (η·ℓ at 2f scale),
			// then rescale to f through one conversion round so the
			// accumulated weights keep a fixed 2f scale.
			scaled := make([]*paillier.Ciphertext, len(batch))
			for bi := range encLoss {
				scaled[bi] = p.pk.MulConst(encLoss[bi], lrEnc) // 2f-scaled η·ℓ
			}
			// Rescale η·ℓ back to f through one conversion round.
			lshares, err := p.encToShares(scaled, len(batch), p.w.stat+p.cfg.F)
			if err != nil {
				return nil, err
			}
			lshares = p.eng.TruncVec(lshares, p.w.stat+p.cfg.F+2, p.cfg.F)
			encStep, err := p.shareToEnc(lshares, p.cfg.F+8, p.Super)
			if err != nil {
				return nil, err
			}
			for j := 0; j < dLocal; j++ {
				for bi, t := range batch {
					term := p.pk.MulConst(encStep[bi], p.cod.Encode(p.part.X[t][j]))
					theta[j] = p.pk.Add(theta[j], term) // stays 2f-scaled
				}
			}
			if p.ID == p.Super {
				for bi := range batch {
					bias = p.pk.Add(bias, p.pk.MulConst(encStep[bi], p.cod.One()))
				}
			}
			p.Stats.HEOps += int64(len(batch) * (dLocal + 1))
		}
	}

	// Release: jointly decrypt every client's weights (the agreed output).
	// θ is 2f-scaled (f-scaled updates times f-scaled features).
	model := &LRModel{Weights: make([][]float64, p.M)}
	for c := 0; c < p.M; c++ {
		var cts []*paillier.Ciphertext
		if c == p.ID {
			cts = theta
			if err := p.broadcastCtsChunked(cts); err != nil {
				return nil, err
			}
		} else {
			// One weight per feature client c announced split counts for.
			var err error
			cts, err = p.recvCtsChunked(c, len(p.splitCounts[c]))
			if err != nil {
				return nil, err
			}
		}
		vals, err := p.jointDecryptAll(cts)
		if err != nil {
			return nil, err
		}
		ws := make([]float64, len(vals))
		for j, v := range vals {
			ws[j] = p.cod.DecodeScaled(v, 2)
		}
		model.Weights[c] = ws
	}
	if p.ID != p.Super {
		cts, err := p.recvCtsChunked(p.Super, 1)
		if err != nil {
			return nil, err
		}
		bias = cts[0]
	} else {
		if err := p.broadcastCts([]*paillier.Ciphertext{bias}); err != nil {
			return nil, err
		}
	}
	bvals, err := p.jointDecryptAll([]*paillier.Ciphertext{bias})
	if err != nil {
		return nil, err
	}
	model.Bias = p.cod.DecodeScaled(bvals[0], 2)
	return model, nil
}

// secureSigmoid computes σ(z) = 1/(1+e^{-z}) on f-scaled shares.
func (p *Party) secureSigmoid(zs []mpc.Share, kIn uint) []mpc.Share {
	neg := make([]mpc.Share, len(zs))
	for i := range zs {
		neg[i] = p.eng.Neg(zs[i])
	}
	exps := p.eng.ExpVec(neg, kIn)
	one := new(big.Int).Lsh(big.NewInt(1), p.cfg.F)
	denoms := make([]mpc.Share, len(zs))
	nums := make([]mpc.Share, len(zs))
	for i := range zs {
		denoms[i] = p.eng.AddConst(exps[i], one)
		nums[i] = p.eng.Const(one)
	}
	// e^{-z} ≤ e^20·2^f < 2^46, so width 48 covers the division.
	return p.eng.FPDivVec(nums, denoms, 48)
}

// PredictLRPlain evaluates the released LR model (public weights).
func (m *LRModel) PredictLRPlain(featuresByClient [][]float64) float64 {
	z := m.Bias
	for c, ws := range m.Weights {
		for j, w := range ws {
			z += w * featuresByClient[c][j]
		}
	}
	if z >= 0 {
		return 1
	}
	return 0
}
