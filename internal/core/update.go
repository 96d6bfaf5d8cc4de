package core

import (
	"crypto/rand"
	"io"
	"math/big"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

func cryptoRand() io.Reader { return rand.Reader }

// splitBasicLevel is the basic protocol's model update step (§4.1) for a
// frontier of nodes whose best split identifiers are public: every owner
// announces its nodes' plaintext thresholds in one message, computes the
// first kids of their child vectors — the mask vectors [α_l], [α_r], then in
// encrypted-label mode the masked label channels — in one parallel Paillier
// batch and ships them as one chunked broadcast.  In malicious mode the
// children go node by node inside their proofs instead (auditedChildren).
func (p *Party) splitBasicLevel(nds []nodeData, is, js, ss []int, kids int) ([]splitOutcome, error) {
	K := len(nds)
	out := make([]splitOutcome, K)
	byOwner := make([][]int, p.M)
	for i, o := range is {
		byOwner[o] = append(byOwner[o], i)
	}
	for i := range nds {
		out[i].node = Node{Owner: is[i], Feature: js[i], SplitIndex: ss[i]}
		out[i].win = p.clientBase(is[i]) + p.flatIndexFor(is[i], js[i], ss[i])
	}

	// Threshold announcements (public model content), one message per owner.
	if mine := byOwner[p.ID]; len(mine) > 0 {
		encoded := make([]*big.Int, len(mine))
		for idx, i := range mine {
			enc := p.cod.Encode(p.cands[js[i]][ss[i]])
			// Store the fixed-point-rounded value so every client holds a
			// bit-identical model.
			out[i].node.Threshold = p.cod.Decode(enc)
			encoded[idx] = mpc.ToField(enc)
		}
		if err := p.broadcastInts(encoded); err != nil {
			return nil, err
		}
	}
	for o := 0; o < p.M; o++ {
		if o == p.ID || len(byOwner[o]) == 0 {
			continue
		}
		xs, err := p.recvIntsN(o, len(byOwner[o]))
		if err != nil {
			return nil, err
		}
		for idx, i := range byOwner[o] {
			out[i].node.Threshold = p.cod.Decode(mpc.Signed(xs[idx]))
		}
	}

	if kids == 0 {
		return out, nil
	}
	// Child mask vectors (and label channels in encrypted-label mode).
	vecsOf := func(i int) [][]*paillier.Ciphertext {
		return append([][]*paillier.Ciphertext{nds[i].alpha}, nds[i].gch...)[:kids]
	}
	if p.audit != nil {
		// Proven child vectors, node by node: my own nodes first (d = 0),
		// then each other owner's, so the sends never wait on a receive, as
		// in the batched exchange below.
		for d := 0; d < p.M; d++ {
			o := (p.ID + d) % p.M
			for _, i := range byOwner[o] {
				var err error
				if out[i].left, out[i].right, err = p.auditedChildren(o, vecsOf(i), js[i], ss[i]); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	if mine := byOwner[p.ID]; len(mine) > 0 {
		var cts []*paillier.Ciphertext
		var betas []*big.Int
		for _, i := range mine {
			vl := p.indic[js[i]][ss[i]]
			for _, vec := range vecsOf(i) {
				cts = append(cts, vec...)
				betas = append(betas, vl...)
			}
		}
		p.poolReserve(len(cts))
		lefts, err := p.scalarMulRerandVec(cts, betas)
		if err != nil {
			return nil, err
		}
		rights := p.pk.SubVec(cts, lefts, p.cfg.Workers)
		p.Stats.HEOps += int64(len(cts))
		if err := p.broadcastCtsChunked(append(append([]*paillier.Ciphertext{}, lefts...), rights...)); err != nil {
			return nil, err
		}
		pos := 0
		for _, i := range mine {
			out[i].left, out[i].right = sliceChildren(kids, len(nds[i].alpha), lefts, rights, &pos)
		}
	}
	for o := 0; o < p.M; o++ {
		if o == p.ID || len(byOwner[o]) == 0 {
			continue
		}
		want := 0
		for _, i := range byOwner[o] {
			want += len(vecsOf(i)) * len(nds[i].alpha)
		}
		all, err := p.recvCtsChunked(o, 2*want)
		if err != nil {
			return nil, err
		}
		lefts, rights := all[:want], all[want:]
		pos := 0
		for _, i := range byOwner[o] {
			out[i].left, out[i].right = sliceChildren(kids, len(nds[i].alpha), lefts, rights, &pos)
		}
	}
	return out, nil
}

// sliceChildren carves one node's kids child vectors of n ciphertexts each
// out of the flattened left/right vector batches.
func sliceChildren(kids, n int, lefts, rights []*paillier.Ciphertext, pos *int) (nodeData, nodeData) {
	var ls, rs [][]*paillier.Ciphertext
	for v := 0; v < kids; v++ {
		ls, rs = append(ls, lefts[*pos:*pos+n]), append(rs, rights[*pos:*pos+n])
		*pos += n
	}
	return childData(ls), childData(rs)
}

// childData is a child's nodeData made of its vectors, [α] first.
func childData(vecs [][]*paillier.Ciphertext) nodeData {
	nd := nodeData{alpha: vecs[0]}
	if len(vecs) > 1 {
		nd.gch = vecs[1:]
	}
	return nd
}

// auditedChildren is the malicious-mode (§9.1.2) model update of one node
// split on owner's (feature j, split s): each left vector v ⊗ [x] of the
// node's vecs travels inside POPCM proofs against the owner's committed
// indicator vector, each right vector [x] ⊖ left follows as plain
// ciphertexts.  The owner proves and broadcasts; everyone else verifies.
func (p *Party) auditedChildren(owner int, vecs [][]*paillier.Ciphertext, j, s int) (left, right nodeData, err error) {
	flat := p.flatIndexFor(owner, j, s)
	var lefts, rights [][]*paillier.Ciphertext
	for _, vec := range vecs {
		var l, r []*paillier.Ciphertext
		if owner == p.ID {
			if l, err = p.audit.provenScalarMulVec(p.ID, flat, vec, p.indic[j][s]); err != nil {
				return left, right, err
			}
			r = p.pk.SubVec(vec, l, p.cfg.Workers)
			p.Stats.HEOps += int64(len(vec))
			err = p.broadcastCtsChunked(r)
		} else {
			if l, err = p.audit.recvProvenScalarMulVec(owner, flat, vec); err != nil {
				return left, right, err
			}
			r, err = p.recvCtsChunked(owner, len(vec))
		}
		if err != nil {
			return left, right, err
		}
		lefts = append(lefts, l)
		rights = append(rights, r)
	}
	return childData(lefts), childData(rights), nil
}

// flatIndexFor maps another client's (feature, split) pair to its flat split
// index using the public split counts.
func (p *Party) flatIndexFor(client, j, s int) int {
	flat := 0
	for jj := 0; jj < j; jj++ {
		flat += p.splitCounts[client][jj]
	}
	return flat + s
}

// splitEnhancedLevel is the enhanced protocol's model update step (§5.2) for
// a frontier of nodes: every s* stays secret.  The clients convert the ⟨s*⟩
// into encrypted PIR vectors [λ] via one grouped oblivious equality ladder
// and one grouped share→ciphertext conversion, each [λ] combined at its
// owner; every owner privately selects its nodes' split indicators
// [v] = V ⊗ [λ] and encrypted thresholds in one batch; and a single Eqn-10
// chain on integer conversion shares updates all nodes' encrypted mask
// vectors — O(1) round chains per call, whatever the frontier's width.
// Without vecs the children get no mask vectors: no [v] rows, no Eqn 10.
func (p *Party) splitEnhancedLevel(nds []nodeData, iStars, jStars []int, sStars []mpc.Share, vecs bool) ([]splitOutcome, error) {
	K := len(nds)
	n := maskLen(nds, vecs)
	out := make([]splitOutcome, K)

	// ⟨λ⟩ ladders for every node, one shared round chain.
	segLens := make([]int, K)
	combiners := make([]int, K)
	var diffs []mpc.Share
	var ks []uint
	for i := range nds {
		nPrime := p.splitCounts[iStars[i]][jStars[i]]
		segLens[i] = nPrime
		combiners[i] = iStars[i]
		kEq := uint(bitsFor(nPrime)) + 3
		for t := 0; t < nPrime; t++ {
			diffs = append(diffs, p.eng.AddConst(sStars[i], big.NewInt(-int64(t))))
			ks = append(ks, kEq)
		}
	}
	lamShares := p.eng.EQZVecGrouped(diffs, ks)

	// Private split selection: each [λ] goes to its owner (Theorem 2), all
	// segments through one grouped conversion.
	encLam, err := p.shareToEncSeg(lamShares, 4, segLens, combiners)
	if err != nil {
		return nil, err
	}
	segOff := make([]int, K)
	off := 0
	for i := range segLens {
		segOff[i] = off
		off += segLens[i]
		out[i].win = p.clientBase(iStars[i]) + p.flatIndexFor(iStars[i], jStars[i], 0)
		out[i].lam = lamShares[segOff[i]:off]
	}

	// Owners select [v] = V ⊗ [λ] and the encrypted thresholds for all of
	// their nodes in one parallel dot-product batch and one broadcast.
	byOwner := make([][]int, p.M)
	for i, o := range iStars {
		byOwner[o] = append(byOwner[o], i)
	}
	encVs, encTaus, err := p.ownerSelectLevel(byOwner, n, func(i int) ([][]*big.Int, [][]*paillier.Ciphertext, error) {
		seg := encLam[segOff[i] : segOff[i]+segLens[i]]
		j := jStars[i]
		rows := make([][]*big.Int, 0, n+1)
		lams := make([][]*paillier.Ciphertext, 0, n+1)
		for t := 0; t < n; t++ {
			row := make([]*big.Int, segLens[i])
			for s := 0; s < segLens[i]; s++ {
				row[s] = p.indic[j][s][t]
			}
			rows = append(rows, row)
			lams = append(lams, seg)
		}
		taus := make([]*big.Int, segLens[i])
		for s := 0; s < segLens[i]; s++ {
			taus[s] = p.cod.Encode(p.cands[j][s])
		}
		return append(rows, taus), append(lams, seg), nil
	})
	if err != nil {
		return nil, err
	}

	for i := range nds {
		out[i].node = Node{Owner: iStars[i], Feature: jStars[i], EncThreshold: encTaus[i]}
	}
	return out, p.maskChildren(out, nds, encVs, iStars, vecs)
}

// maskLen is the length of the split nodes' mask vectors, or 0 when their
// children get none.
func maskLen(nds []nodeData, vecs bool) int {
	if !vecs {
		return 0
	}
	return len(nds[0].alpha)
}

// maskChildren gives every split node's children their mask vectors — the
// left by Eqn (10), one chain for the frontier, the right as the parent's
// minus the left — unless vecs is off.
func (p *Party) maskChildren(out []splitOutcome, nds []nodeData, encVs [][]*paillier.Ciphertext, combiners []int, vecs bool) error {
	if !vecs {
		return nil
	}
	alphas := make([][]*paillier.Ciphertext, len(nds))
	for i := range nds {
		alphas[i] = nds[i].alpha
	}
	lefts, err := p.encMaskedProductLevel(alphas, encVs, combiners)
	if err != nil {
		return err
	}
	for i := range nds {
		out[i].left = nodeData{alpha: lefts[i]}
		out[i].right = nodeData{alpha: p.pk.SubVec(nds[i].alpha, lefts[i], p.cfg.Workers)}
		p.Stats.HEOps += int64(len(lefts[i]))
	}
	return nil
}

// ownerSelectLevel is the shared owner-side selection batch: for each node
// grouped under an owning client, rowsFor(i) returns that node's n
// indicator rows plus its threshold row (called only at the owner — the
// rows are private).  Each owner runs its nodes' dot products as one
// parallel batch and ships them in a single chunked broadcast; every client
// slices the (n+1)-stride results back into per-node [v] and [τ].  The
// layout is part of the SPMD message schedule, so the enhanced and
// hidden-feature updates must (and now do) share this one implementation.
func (p *Party) ownerSelectLevel(byOwner [][]int, n int,
	rowsFor func(i int) ([][]*big.Int, [][]*paillier.Ciphertext, error)) ([][]*paillier.Ciphertext, []*paillier.Ciphertext, error) {

	K := 0
	for _, nodes := range byOwner {
		K += len(nodes)
	}
	encVs := make([][]*paillier.Ciphertext, K)
	encTaus := make([]*paillier.Ciphertext, K)
	if mine := byOwner[p.ID]; len(mine) > 0 {
		var rows [][]*big.Int
		var lams [][]*paillier.Ciphertext
		for _, i := range mine {
			r, l, err := rowsFor(i)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, r...)
			lams = append(lams, l...)
		}
		p.poolReserve(len(rows))
		cts, err := p.dotRerandVec(rows, lams)
		if err != nil {
			return nil, nil, err
		}
		if err := p.broadcastCtsChunked(cts); err != nil {
			return nil, nil, err
		}
		for idx, i := range mine {
			encVs[i] = cts[idx*(n+1) : idx*(n+1)+n]
			encTaus[i] = cts[idx*(n+1)+n]
		}
	}
	for o := 0; o < p.M; o++ {
		if o == p.ID || len(byOwner[o]) == 0 {
			continue
		}
		cts, err := p.recvCtsChunked(o, len(byOwner[o])*(n+1))
		if err != nil {
			return nil, nil, err
		}
		for idx, i := range byOwner[o] {
			encVs[i] = cts[idx*(n+1) : idx*(n+1)+n]
			encTaus[i] = cts[idx*(n+1)+n]
		}
	}
	return encVs, encTaus, nil
}

// encMaskedProductLevel computes [α_t · v_t] for all t of every node (Eqn
// 10) in one chain: the concatenated [α] vectors of all nodes are converted
// to integer shares in a single conversion, every client exponentiates all
// [v] entries by its shares in one parallel pass, contributions flow to each
// node's owner in one chunked message per (client, owner) pair, and each
// owner homomorphically recombines, strips the conversion offset,
// rerandomizes and broadcasts all of its nodes' products together.
func (p *Party) encMaskedProductLevel(alphas, encVs [][]*paillier.Ciphertext, owners []int) ([][]*paillier.Ciphertext, error) {
	K := len(alphas)
	offs := make([]int, K)
	total := 0
	for i := range alphas {
		offs[i] = total
		total += len(alphas[i])
	}
	flatA := make([]*paillier.Ciphertext, 0, total)
	flatV := make([]*paillier.Ciphertext, 0, total)
	for i := range alphas {
		flatA = append(flatA, alphas[i]...)
		flatV = append(flatV, encVs[i]...)
	}

	ints, off, err := p.convertMasked(flatA, len(flatA), p.w.count+2, false)
	if err != nil {
		return nil, err
	}
	// The conversion shares are full-width masked integers, so these
	// exponentiations are the step's dominant cost — run them across the
	// configured workers.
	contrib := p.pk.ScalarMulVec(flatV, ints, p.cfg.Workers)
	p.Stats.HEOps += int64(total)

	byOwner := make([][]int, p.M)
	for i, o := range owners {
		byOwner[o] = append(byOwner[o], i)
	}
	gather := func(src []*paillier.Ciphertext, nodes []int) []*paillier.Ciphertext {
		var seg []*paillier.Ciphertext
		for _, i := range nodes {
			seg = append(seg, src[offs[i]:offs[i]+len(alphas[i])]...)
		}
		return seg
	}

	// Ship contributions for the nodes owned elsewhere.
	for o := 0; o < p.M; o++ {
		if o == p.ID || len(byOwner[o]) == 0 {
			continue
		}
		if err := p.sendCtsChunked(o, gather(contrib, byOwner[o])); err != nil {
			return nil, err
		}
	}

	out := make([][]*paillier.Ciphertext, K)
	// Recombine, strip the offset, rerandomize and broadcast my own nodes.
	if mine := byOwner[p.ID]; len(mine) > 0 {
		acc := gather(contrib, mine)
		for c := 0; c < p.M; c++ {
			if c == p.ID {
				continue
			}
			theirs, err := p.recvCtsChunked(c, len(acc))
			if err != nil {
				return nil, err
			}
			acc = p.pk.AddVec(acc, theirs, p.cfg.Workers)
		}
		// Σ_i shares = α_t + off, so subtract off·v_t homomorphically.
		negOff := new(big.Int).Neg(off)
		negOffs := make([]*big.Int, len(acc))
		for t := range negOffs {
			negOffs[t] = negOff
		}
		acc = p.pk.AddVec(acc, p.pk.ScalarMulVec(gather(flatV, mine), negOffs, p.cfg.Workers), p.cfg.Workers)
		p.poolReserve(len(acc))
		acc, err = p.pk.RerandomizeVec(cryptoRand(), acc, p.cfg.Workers)
		if err != nil {
			return nil, err
		}
		p.Stats.HEOps += int64(2 * len(acc))
		p.Stats.Encryptions += int64(len(acc))
		if err := p.broadcastCtsChunked(acc); err != nil {
			return nil, err
		}
		pos := 0
		for _, i := range mine {
			out[i] = acc[pos : pos+len(alphas[i])]
			pos += len(alphas[i])
		}
	}
	// Receive the other owners' recombined products.
	for o := 0; o < p.M; o++ {
		if o == p.ID || len(byOwner[o]) == 0 {
			continue
		}
		want := 0
		for _, i := range byOwner[o] {
			want += len(alphas[i])
		}
		cts, err := p.recvCtsChunked(o, want)
		if err != nil {
			return nil, err
		}
		pos := 0
		for _, i := range byOwner[o] {
			out[i] = cts[pos : pos+len(alphas[i])]
			pos += len(alphas[i])
		}
	}
	return out, nil
}

func bitsFor(n int) int {
	b := 1
	for 1<<b <= n {
		b++
	}
	return b
}
