package core

import (
	"math"
	"math/big"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// Prediction (§4 Algorithm 4, §5.2).  Under the basic protocol the clients
// update an encrypted prediction vector [η] in a round-robin manner; under
// the enhanced protocol the model is first converted to secret shares and the
// whole evaluation runs inside MPC.  There is one body per protocol and it
// takes a sample batch: every round — feature input, secure comparison,
// marker multiplication, opening, round-robin hop, threshold decryption — is
// shared across all (node × sample) or (tree × sample) pairs, so a batch
// costs the synchronous rounds of a single sample.  The paper's per-sample
// protocol is this body at a batch of one (Config.PredictBatch = 1).  Every
// MPC primitive is a deterministic function of its inputs (masks and Beaver
// triples cancel exactly), so the batch size changes round structure, never
// values (TestPredictScheduleGolden).

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

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// predictBasicEncBatchTrees runs the Algorithm-4 round robin once for an
// entire ensemble × batch: the concatenated trees×samples×leaves [η]
// matrix makes one chunked hop per client (client m-1 encrypts its marks,
// the clients between it and the super client apply theirs with one
// scalarMulRerandVec over the whole matrix), the super client's leaf dot
// products run as one batch, and leafPaths is computed once per tree.
// Returns the encrypted predictions [k̄] indexed [tree][sample] at the super
// client and nil at every other: Algorithm 4 ends where the labels are, and
// both things done with [k̄] afterwards — releasePacked and encToShares —
// start from the super client's copy.
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

// predictEnhancedBatch evaluates the shared model on a whole batch (§5.2
// "secret sharing based model prediction"): owners input every (node,
// sample) feature value in one round per owner, hidden-feature nodes convert
// all their oblivious ciphertexts in one chunked Algorithm-2 pass, and the
// oblivious path markers are walked level-wise — the root's marker is ⟨1⟩,
// each child's is its parent's times the comparison bit x ≤ τ — so each tree
// depth costs one grouped comparison (LEVec) and one marker multiplication
// round; the final label dot product and opening happen once for the batch.
func (p *Party) predictEnhancedBatch(sm *SharedModel, X [][]float64) ([]float64, error) {
	model := sm.model
	eng := p.eng
	B := len(X)

	// Feature inputs grouped by owner: one InputVec round for all of an
	// owner's nodes × samples.
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
					vals[k*B+t] = p.encodeFeature(X[t][f])
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

// encodeFeature encodes a prediction input of the enhanced protocol clamped
// to ±2^value: its comparisons run at value+2 bits, so an input outside
// would wrap, and every threshold lies inside the bound (prepareSplits
// refuses training values outside it), so the clamp changes no comparison.
// NaN clamps to the top and goes right, as in the plaintext walk.
func (p *Party) encodeFeature(x float64) *big.Int {
	lim := math.Ldexp(1, int(p.w.value-FracBits))
	if !(x < lim) {
		x = lim
	}
	return p.cod.Encode(max(x, -lim))
}

// obliviousFeatureValueBatch computes, for a hidden-feature node, the
// encryption of the winning feature's value on every sample of the batch:
// each contributing client dots its encoded local features with its encrypted
// feature selector [φ^c] — one rerandomized dot-product batch — and the
// partials, sent in one chunked broadcast, are summed homomorphically (one
// contributor — the owner — under HideFeature; all clients under
// HideClient).  Every client ends up holding the identical ciphertexts.
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
				xe[j] = p.encodeFeature(v)
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
