package core

import (
	"math"
	"math/big"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// Prediction.  Under the basic protocol the clients update an encrypted
// prediction vector [η] in a round-robin manner (Algorithm 4); under the
// enhanced protocol the model is first converted to secret shares and the
// whole evaluation runs inside MPC (§5.2).

// Predict produces the prediction for one sample.  x is this client's local
// feature values for the sample; all clients call concurrently.
func (p *Party) Predict(model *Model, x []float64) (float64, error) {
	defer p.gatherStats()
	if model.Protocol == Basic {
		ct, err := p.predictBasicEnc(model, x)
		if err != nil {
			return 0, err
		}
		vals, err := p.jointDecryptAll([]*paillier.Ciphertext{ct})
		if err != nil {
			return 0, err
		}
		return p.decodePrediction(model, p.cod.Decode(vals[0])), nil
	}
	sm, err := p.sharedModel(model)
	if err != nil {
		return 0, err
	}
	return p.predictEnhanced(sm, x)
}

// decodePrediction rounds classification outputs to a class index.
func (p *Party) decodePrediction(model *Model, v float64) float64 {
	if model.Classes > 0 {
		return math.Round(v)
	}
	return v
}

// leafPaths enumerates, for every leaf, the (node, goLeft) decisions on its
// root-to-leaf path, in LeafPos order.
type pathStep struct {
	node   int
	goLeft bool
}

func leafPaths(model *Model) [][]pathStep {
	paths := make([][]pathStep, model.Leaves)
	var walk func(i int, acc []pathStep)
	walk = func(i int, acc []pathStep) {
		n := model.Nodes[i]
		if n.Leaf {
			paths[n.LeafPos] = append([]pathStep(nil), acc...)
			return
		}
		walk(n.Left, append(acc, pathStep{i, true}))
		walk(n.Right, append(acc, pathStep{i, false}))
	}
	if len(model.Nodes) > 0 {
		walk(0, nil)
	}
	return paths
}

// predictBasicEnc runs Algorithm 4 up to (and including) the homomorphic
// dot product with the leaf label vector, returning [k̄] without decrypting
// — the ensemble extensions aggregate these encrypted predictions.
func (p *Party) predictBasicEnc(model *Model, x []float64) (*paillier.Ciphertext, error) {
	paths := leafPaths(model)
	leaves := model.Leaves

	// Round-robin from client m-1 down to 0.
	var eta []*paillier.Ciphertext
	if p.ID == p.M-1 {
		ones := make([]*big.Int, leaves)
		for i := range ones {
			ones[i] = big.NewInt(1)
		}
		var err error
		eta, err = p.encryptVec(ones)
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		eta, err = p.recvCtsChunked(p.ID+1, leaves)
		if err != nil {
			return nil, err
		}
	}

	// Eliminate the prediction paths my local features contradict (one
	// parallel rerandomized scalar-mul batch over the leaves).
	marks := make([]*big.Int, leaves)
	for pos, path := range paths {
		consistent := true
		for _, step := range path {
			n := model.Nodes[step.node]
			if n.Owner != p.ID {
				continue
			}
			goesLeft := x[n.Feature] <= n.Threshold
			if goesLeft != step.goLeft {
				consistent = false
				break
			}
		}
		marks[pos] = big.NewInt(boolToInt(consistent))
	}
	eta, err := p.scalarMulRerandVec(eta, marks)
	if err != nil {
		return nil, err
	}

	if p.ID > 0 {
		if err := p.sendCtsChunked(p.ID-1, eta); err != nil {
			return nil, err
		}
		// Receive the final aggregated prediction from the super client.
		cts, err := p.recvCtsChunked(p.Super, 1)
		if err != nil {
			return nil, err
		}
		return cts[0], nil
	}

	// Super client: [k̄] = z ⊙ [η].
	z := make([]*big.Int, leaves)
	for _, n := range model.Nodes {
		if n.Leaf {
			z[n.LeafPos] = p.cod.Encode(n.Label)
		}
	}
	pred, err := p.dotRerand(z, eta)
	if err != nil {
		return nil, err
	}
	if err := p.broadcastCts([]*paillier.Ciphertext{pred}); err != nil {
		return nil, err
	}
	return pred, nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// SharedModel is the secret-shared form of an enhanced-protocol model: one
// threshold share per internal node and one label share per leaf (§5.2).
type SharedModel struct {
	model  *Model
	thr    map[int]mpc.Share // by node index
	labels []mpc.Share       // by LeafPos
}

// sharedModel converts (and caches) the encrypted model parts into shares.
func (p *Party) sharedModel(model *Model) (*SharedModel, error) {
	if sm, ok := p.shared[model]; ok {
		return sm, nil
	}
	var cts []*paillier.Ciphertext
	var internals []int
	for i, n := range model.Nodes {
		if !n.Leaf {
			cts = append(cts, n.EncThreshold)
			internals = append(internals, i)
		}
	}
	leafCts := make([]*paillier.Ciphertext, model.Leaves)
	for _, n := range model.Nodes {
		if n.Leaf {
			leafCts[n.LeafPos] = n.EncLabel
		}
	}
	cts = append(cts, leafCts...)
	shares, err := p.encToShares(cts, len(cts), p.w.value+2)
	if err != nil {
		return nil, err
	}
	sm := &SharedModel{model: model, thr: make(map[int]mpc.Share)}
	for k, i := range internals {
		sm.thr[i] = shares[k]
	}
	sm.labels = shares[len(internals):]
	if p.shared == nil {
		p.shared = make(map[*Model]*SharedModel)
	}
	p.shared[model] = sm
	return sm, nil
}

// obliviousFeatureValue computes, for a hidden-feature node, the encryption
// of the winning feature's value on this sample: each contributing client
// dots its encoded local features with its encrypted feature selector [φ^c]
// and the partials are summed homomorphically (one contributor — the owner —
// under HideFeature; all clients under HideClient).  Every client ends up
// holding the identical ciphertext.
func (p *Party) obliviousFeatureValue(n *Node, x []float64) (*paillier.Ciphertext, error) {
	if n.EncFeatSel == nil {
		return nil, p.errf("hidden node has no feature selector")
	}
	mine := n.Owner < 0 || n.Owner == p.ID
	var part *paillier.Ciphertext
	if mine {
		phi := n.EncFeatSel[p.ID]
		if len(phi) != len(x) {
			return nil, p.errf("feature selector has %d entries for %d local features", len(phi), len(x))
		}
		xe := make([]*big.Int, len(x))
		for j, v := range x {
			xe[j] = p.cod.Encode(v)
		}
		var err error
		part, err = p.dotRerand(xe, phi)
		if err != nil {
			return nil, err
		}
	}
	if n.Owner >= 0 {
		// HideFeature: the owner's value is final.
		if mine {
			if err := p.broadcastCts([]*paillier.Ciphertext{part}); err != nil {
				return nil, err
			}
			return part, nil
		}
		cts, err := p.recvCtsChunked(n.Owner, 1)
		if err != nil {
			return nil, err
		}
		return cts[0], nil
	}
	// HideClient: sum everyone's partials.
	if err := p.broadcastCts([]*paillier.Ciphertext{part}); err != nil {
		return nil, err
	}
	out := part
	for c := 0; c < p.M; c++ {
		if c == p.ID {
			continue
		}
		cts, err := p.recvCtsChunked(c, 1)
		if err != nil {
			return nil, err
		}
		out = p.pk.Add(out, cts[0])
	}
	p.Stats.HEOps += int64(p.M - 1)
	return out, nil
}

// predictEnhanced evaluates the shared model on a sample whose features are
// provided as secret shares by their owners: a secure comparison per
// internal node, oblivious path markers, and a final shared dot product
// with the leaf label vector (§5.2 "secret sharing based model prediction").
func (p *Party) predictEnhanced(sm *SharedModel, x []float64) (float64, error) {
	model := sm.model
	eng := p.eng

	// Owners input their feature value for every internal node.  Nodes
	// whose split feature is concealed (Feature == -1, the §5.2 hide-level
	// extension) instead select the value obliviously via the encrypted
	// feature selector, then convert the ciphertexts to shares in one batch.
	feat := make(map[int]mpc.Share)
	var hiddenIdx []int
	var hiddenCts []*paillier.Ciphertext
	for i, n := range model.Nodes {
		if n.Leaf {
			continue
		}
		if n.Feature < 0 {
			ct, err := p.obliviousFeatureValue(&model.Nodes[i], x)
			if err != nil {
				return 0, err
			}
			hiddenIdx = append(hiddenIdx, i)
			hiddenCts = append(hiddenCts, ct)
			continue
		}
		var val *big.Int
		if n.Owner == p.ID {
			val = p.cod.Encode(x[n.Feature])
		}
		feat[i] = eng.Input(n.Owner, val)
	}
	if len(hiddenCts) > 0 {
		shares, err := p.encToShares(hiddenCts, len(hiddenCts), p.w.value+2)
		if err != nil {
			return 0, err
		}
		for k, i := range hiddenIdx {
			feat[i] = shares[k]
		}
	}

	// Markers: root gets ⟨1⟩; each child multiplies by the comparison bit.
	eta := make([]mpc.Share, model.Leaves)
	var walk func(i int, marker mpc.Share)
	walk = func(i int, marker mpc.Share) {
		n := model.Nodes[i]
		if n.Leaf {
			eta[n.LeafPos] = marker
			return
		}
		cmp := eng.LE(feat[i], sm.thr[i], p.w.value+2) // x <= τ goes left
		leftMarker := eng.Mul(marker, cmp)
		rightMarker := eng.Sub(marker, leftMarker)
		walk(n.Left, leftMarker)
		walk(n.Right, rightMarker)
	}
	walk(0, eng.ConstInt64(1))

	// ⟨k̄⟩ = ⟨z⟩ · ⟨η⟩.
	prods := eng.MulVec(eta, sm.labels)
	pred := eng.Sum(prods)
	out := eng.DecodeSigned(eng.Open(pred))
	if p.cfg.Malicious {
		if err := eng.CheckMACs(); err != nil {
			return 0, err
		}
	}
	return p.decodePrediction(model, out), nil
}
