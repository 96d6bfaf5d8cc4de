package core

import (
	"math/big"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// Batched prediction (the §5.2 protocols restructured around sample
// batches).  The per-sample paths in predict.go pay a full interactive
// round chain per sample; the batch paths below make the *batch* the unit
// of every MPC step, exactly like the level-wise training pipeline did for
// tree nodes: each round — feature input, secure comparison, marker
// multiplication, opening, round-robin hop, threshold decryption — is
// shared across all (node × sample) or (tree × sample) pairs, so the
// synchronous round cost of a batch equals that of a single sample.  Every
// MPC primitive is a deterministic function of its inputs (masks and
// Beaver triples cancel exactly), so batching changes round structure,
// never values: batched predictions are bit-identical to the per-sample
// protocol's (asserted by TestPredictBatch*).

// PredictBatch produces predictions for a slice of samples in one round
// chain.  X[t] is this client's local feature row for sample t; all
// clients call concurrently with the same batch size.
func (p *Party) PredictBatch(model *Model, X [][]float64) ([]float64, error) {
	defer p.gatherStats()
	if len(X) == 0 {
		return nil, nil
	}
	if model.Protocol == Basic {
		byTree, err := p.predictBasicEncBatchTrees([]*Model{model}, X)
		if err != nil {
			return nil, err
		}
		var cts []*paillier.Ciphertext
		if p.ID == p.Super {
			cts = byTree[0]
		}
		vals, err := p.releasePacked(cts, len(X), p.releaseWidth(nil, 1))
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(X))
		for t, v := range vals {
			out[t] = p.decodePrediction(model, p.cod.Decode(v))
		}
		return out, nil
	}
	sm, err := p.sharedModel(model)
	if err != nil {
		return nil, err
	}
	return p.predictEnhancedBatch(sm, X)
}

// predictBasicEncBatchTrees runs the Algorithm-4 round robin once for an
// entire ensemble × batch: the concatenated trees×samples×leaves [η]
// matrix makes one chunked hop per client (client m-1 encrypts its marks,
// the clients between it and the super client apply theirs with one
// scalarMulRerandVec over the whole matrix), the super client's leaf dot
// products run as one batch, and leafPaths is computed once per tree rather
// than once per (tree, sample) call.  Returns the encrypted predictions [k̄]
// indexed [tree][sample] at the super client and nil at every other: Algorithm
// 4 ends where the labels are, and both things done with [k̄] afterwards —
// releasePacked and encToShares — start from the super client's copy.
func (p *Party) predictBasicEncBatchTrees(trees []*Model, X [][]float64) ([][]*paillier.Ciphertext, error) {
	B := len(X)
	offs := make([]int, len(trees)+1)
	for w, tr := range trees {
		offs[w+1] = offs[w] + B*tr.Leaves
	}
	total := offs[len(trees)]

	// The obfuscators of my hop generate while the clients above me compute
	// theirs.  The super client's [η] goes nowhere and takes none.
	if p.ID > 0 {
		p.poolReserve(total)
	}

	// The prediction paths my local features do not contradict, for every
	// (tree, sample) at once.
	marks := make([]*big.Int, total)
	for w, tr := range trees {
		paths := leafPaths(tr)
		for t := 0; t < B; t++ {
			base := offs[w] + t*tr.Leaves
			for pos, path := range paths {
				consistent := true
				for _, step := range path {
					n := tr.Nodes[step.node]
					if n.Owner != p.ID {
						continue
					}
					goesLeft := X[t][n.Feature] <= n.Threshold
					if goesLeft != step.goLeft {
						consistent = false
						break
					}
				}
				marks[base+pos] = big.NewInt(boolToInt(consistent))
			}
		}
	}

	// Round-robin from client m-1 down to 0, one chunked pass each.  Client
	// m-1 starts it with a fresh encryption of its marks: what multiplying
	// encrypted ones by them and rerandomising would also yield.
	var eta []*paillier.Ciphertext
	var err error
	if p.ID == p.M-1 {
		eta, err = p.encryptVec(marks)
	} else {
		eta, err = p.recvCtsChunked(p.ID+1, total)
	}
	if err != nil {
		return nil, err
	}
	if p.ID > 0 {
		if p.ID < p.M-1 {
			if eta, err = p.scalarMulRerandVec(eta, marks); err != nil {
				return nil, err
			}
		}
		return nil, p.sendCtsChunked(p.ID-1, eta)
	}

	// Super client: [k̄] = (z ∘ marks) ⊙ [η] for every (tree, sample) — its
	// own marks go into the plaintext side of the dot product, so the [η] it
	// received is used as it came.
	xss := make([][]*big.Int, 0, len(trees)*B)
	chs := make([][]*paillier.Ciphertext, 0, len(trees)*B)
	zero := new(big.Int)
	for w, tr := range trees {
		z := make([]*big.Int, tr.Leaves)
		for _, n := range tr.Nodes {
			if n.Leaf {
				z[n.LeafPos] = p.cod.Encode(n.Label)
			}
		}
		for t := 0; t < B; t++ {
			base := offs[w] + t*tr.Leaves
			zt := make([]*big.Int, tr.Leaves)
			for pos := range zt {
				zt[pos] = zero
				if marks[base+pos].Sign() != 0 {
					zt[pos] = z[pos]
				}
			}
			xss = append(xss, zt)
			chs = append(chs, eta[base:base+tr.Leaves])
		}
	}
	preds, err := p.pk.DotVec(xss, chs, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	p.Stats.HEOps += int64(total)
	return splitByTree(preds, len(trees), B), nil
}

// splitByTree reshapes a tree-major flat prediction vector into [tree][sample].
func splitByTree(flat []*paillier.Ciphertext, W, B int) [][]*paillier.Ciphertext {
	out := make([][]*paillier.Ciphertext, W)
	for w := 0; w < W; w++ {
		out[w] = flat[w*B : (w+1)*B]
	}
	return out
}

// predictEnhancedBatch evaluates the shared model on a whole batch: owners
// input every (node, sample) feature value in one round per owner,
// hidden-feature nodes convert all their oblivious ciphertexts in one
// chunked Algorithm-2 pass, and the marker walk of predictEnhanced runs
// level-wise so each tree depth costs one grouped comparison (LEVec) and
// one marker multiplication round; the final label dot product and opening
// happen once for the batch.
func (p *Party) predictEnhancedBatch(sm *SharedModel, X [][]float64) ([]float64, error) {
	model := sm.model
	eng := p.eng
	B := len(X)

	// Feature inputs grouped by owner: one InputVec round for all of an
	// owner's nodes × samples (vs Input per node per sample).
	feat := make(map[int][]mpc.Share) // node index -> per-sample shares
	nodesByOwner := make([][]int, p.M)
	var hiddenIdx []int
	for i, n := range model.Nodes {
		if n.Leaf {
			continue
		}
		if n.Feature < 0 {
			hiddenIdx = append(hiddenIdx, i)
			continue
		}
		nodesByOwner[n.Owner] = append(nodesByOwner[n.Owner], i)
	}
	for owner := 0; owner < p.M; owner++ {
		nodes := nodesByOwner[owner]
		if len(nodes) == 0 {
			continue
		}
		vals := make([]*big.Int, len(nodes)*B)
		if p.ID == owner {
			for k, i := range nodes {
				f := model.Nodes[i].Feature
				for t := 0; t < B; t++ {
					vals[k*B+t] = p.cod.Encode(X[t][f])
				}
			}
		}
		shares := eng.InputVec(owner, vals)
		for k, i := range nodes {
			feat[i] = shares[k*B : (k+1)*B]
		}
	}

	// Hidden-feature nodes (§5.2 hide levels): per node, one batched
	// oblivious selection across samples; all (node, sample) ciphertexts
	// convert to shares in a single chunked pass.
	if len(hiddenIdx) > 0 {
		cts := make([]*paillier.Ciphertext, 0, len(hiddenIdx)*B)
		for _, i := range hiddenIdx {
			nodeCts, err := p.obliviousFeatureValueBatch(&model.Nodes[i], X)
			if err != nil {
				return nil, err
			}
			cts = append(cts, nodeCts...)
		}
		shares, err := p.encToShares(cts, len(cts), p.w.value+2)
		if err != nil {
			return nil, err
		}
		for k, i := range hiddenIdx {
			feat[i] = shares[k*B : (k+1)*B]
		}
	}

	// Level-wise marker walk: the frontier holds each live node's marker
	// vector; every depth issues one grouped comparison and one marker
	// multiplication, shared across all (node, sample) pairs.
	type frontierEntry struct {
		node    int
		markers []mpc.Share
	}
	eta := make([][]mpc.Share, model.Leaves) // [leaf position][sample]
	rootMarkers := make([]mpc.Share, B)
	one := eng.ConstInt64(1)
	for t := range rootMarkers {
		rootMarkers[t] = one
	}
	frontier := []frontierEntry{{0, rootMarkers}}
	for len(frontier) > 0 {
		var internal []frontierEntry
		for _, fe := range frontier {
			if n := model.Nodes[fe.node]; n.Leaf {
				eta[n.LeafPos] = fe.markers
			} else {
				internal = append(internal, fe)
			}
		}
		if len(internal) == 0 {
			break
		}
		xs := make([]mpc.Share, 0, len(internal)*B)
		ys := make([]mpc.Share, 0, len(internal)*B)
		ms := make([]mpc.Share, 0, len(internal)*B)
		for _, fe := range internal {
			thr := sm.thr[fe.node]
			for t := 0; t < B; t++ {
				xs = append(xs, feat[fe.node][t])
				ys = append(ys, thr)
			}
			ms = append(ms, fe.markers...)
		}
		cmps := eng.LEVec(xs, ys, p.w.value+2) // x <= τ goes left
		lefts := eng.MulVec(ms, cmps)
		next := make([]frontierEntry, 0, 2*len(internal))
		for k, fe := range internal {
			n := model.Nodes[fe.node]
			leftM := lefts[k*B : (k+1)*B]
			rightM := make([]mpc.Share, B)
			for t := 0; t < B; t++ {
				rightM[t] = eng.Sub(fe.markers[t], leftM[t])
			}
			next = append(next, frontierEntry{n.Left, leftM}, frontierEntry{n.Right, rightM})
		}
		frontier = next
	}

	// ⟨k̄_t⟩ = ⟨z⟩ · ⟨η_t⟩: one multiplication round and one opening round
	// for the whole batch.
	xs := make([]mpc.Share, 0, model.Leaves*B)
	ys := make([]mpc.Share, 0, model.Leaves*B)
	for l := 0; l < model.Leaves; l++ {
		for t := 0; t < B; t++ {
			xs = append(xs, eta[l][t])
			ys = append(ys, sm.labels[l])
		}
	}
	prods := eng.MulVec(xs, ys)
	sums := make([]mpc.Share, B)
	row := make([]mpc.Share, model.Leaves)
	for t := 0; t < B; t++ {
		for l := 0; l < model.Leaves; l++ {
			row[l] = prods[l*B+t]
		}
		sums[t] = eng.Sum(row)
	}
	opened := eng.OpenVec(sums)
	if p.cfg.Malicious {
		if err := eng.CheckMACs(); err != nil {
			return nil, err
		}
	}
	out := make([]float64, B)
	for t := range out {
		out[t] = p.decodePrediction(model, eng.DecodeSigned(opened[t]))
	}
	return out, nil
}

// obliviousFeatureValueBatch is obliviousFeatureValue across a sample
// batch: one rerandomized dot-product batch per contributing client and
// one chunked broadcast, instead of one dot product and one message per
// sample.
func (p *Party) obliviousFeatureValueBatch(n *Node, X [][]float64) ([]*paillier.Ciphertext, error) {
	if n.EncFeatSel == nil {
		return nil, p.errf("hidden node has no feature selector")
	}
	B := len(X)
	mine := n.Owner < 0 || n.Owner == p.ID
	var part []*paillier.Ciphertext
	if mine {
		phi := n.EncFeatSel[p.ID]
		xss := make([][]*big.Int, B)
		chs := make([][]*paillier.Ciphertext, B)
		for t := 0; t < B; t++ {
			if len(phi) != len(X[t]) {
				return nil, p.errf("feature selector has %d entries for %d local features", len(phi), len(X[t]))
			}
			xe := make([]*big.Int, len(X[t]))
			for j, v := range X[t] {
				xe[j] = p.cod.Encode(v)
			}
			xss[t] = xe
			chs[t] = phi
		}
		p.poolReserve(B)
		var err error
		part, err = p.dotRerandVec(xss, chs)
		if err != nil {
			return nil, err
		}
	}
	if n.Owner >= 0 {
		// HideFeature: the owner's values are final.
		if mine {
			if err := p.broadcastCtsChunked(part); err != nil {
				return nil, err
			}
			return part, nil
		}
		return p.recvCtsChunked(n.Owner, B)
	}
	// HideClient: sum everyone's partials.
	if err := p.broadcastCtsChunked(part); err != nil {
		return nil, err
	}
	out := part
	for c := 0; c < p.M; c++ {
		if c == p.ID {
			continue
		}
		cts, err := p.recvCtsChunked(c, B)
		if err != nil {
			return nil, err
		}
		out = p.pk.AddVec(out, cts, p.cfg.Workers)
	}
	p.Stats.HEOps += int64((p.M - 1) * B)
	return out, nil
}
