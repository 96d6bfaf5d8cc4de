package core

import (
	"math/big"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// The §5.2 "Discussion" hide levels.  HideFeature conceals the split feature
// j* by running the private split selection over all of the owner's splits;
// HideClient additionally conceals the owner i* by running it over all db
// splits of all clients.  Both reuse the enhanced protocol's machinery: an
// oblivious equality ladder turns the shared flat index into the encrypted
// PIR vector [λ], owners select split indicators and thresholds under
// encryption, and the encrypted mask vector is updated by Eqn (10).
//
// Because the per-feature split counts are public (they are exchanged during
// session bring-up), every client can also derive the encrypted *feature
// selector* [φ] from [λ] by homomorphic summation: φ_j = Σ_{s ∈ feature j}
// λ_s is the one-hot (under encryption) of the winning feature.  [φ] is
// stored in the model node and lets prediction obliviously select the
// feature value to compare, without ever revealing j* (or i*).

// flatSplit enumerates this client's splits in owner-local flat order.
type flatSplit struct {
	j, s int
}

func (p *Party) localFlatSplits() []flatSplit {
	var out []flatSplit
	for j := range p.indic {
		for s := range p.indic[j] {
			out = append(out, flatSplit{j, s})
		}
	}
	return out
}

// splitEnhancedHiddenLevel is the model update step for HideFeature
// (iStars[i] >= 0) and HideClient (iStars[i] < 0) on a frontier of nodes.
// flats[i] is node i's shared PIR index: owner-local for HideFeature, global
// for HideClient.  One grouped equality ladder over every node's PIR diffs,
// one grouped conversion with each [λ] combined at its node's combiner (the
// owner, or the super client when the owner is concealed — [λ] must reach
// every contributing client, and the conversion broadcasts it), one batched
// hidden selection and one Eqn-10 chain for all nodes' mask updates (none
// without vecs).
func (p *Party) splitEnhancedHiddenLevel(nds []nodeData, iStars []int, flats []mpc.Share, vecs bool) ([]splitOutcome, error) {
	K := len(nds)
	n := maskLen(nds, vecs)
	out := make([]splitOutcome, K)

	segLens := make([]int, K)
	combiners := make([]int, K)
	var diffs []mpc.Share
	var ks []uint
	for i := range nds {
		nPrime := p.totalSplits()
		combiners[i] = p.Super
		if iStars[i] >= 0 {
			nPrime = p.clientSplits(iStars[i])
			combiners[i] = iStars[i]
		}
		segLens[i] = nPrime
		kEq := uint(bitsFor(nPrime)) + 3
		for t := 0; t < nPrime; t++ {
			diffs = append(diffs, p.eng.AddConst(flats[i], big.NewInt(-int64(t))))
			ks = append(ks, kEq)
		}
	}
	lamShares := p.eng.EQZVecGrouped(diffs, ks)
	encLam, err := p.shareToEncSeg(lamShares, 4, segLens, combiners)
	if err != nil {
		return nil, err
	}
	segs := make([][]*paillier.Ciphertext, K)
	off := 0
	for i := range segLens {
		segs[i] = encLam[off : off+segLens[i]]
		if iStars[i] >= 0 {
			out[i].win = p.clientBase(iStars[i])
		}
		out[i].lam = lamShares[off : off+segLens[i]]
		off += segLens[i]
	}

	encVs, encTaus, err := p.selectHiddenLevel(iStars, segs, n)
	if err != nil {
		return nil, err
	}
	for i := range nds {
		out[i].node = Node{Owner: iStars[i], Feature: -1, EncThreshold: encTaus[i],
			EncFeatSel: p.featureSelectors(iStars[i], segs[i])}
	}
	return out, p.maskChildren(out, nds, encVs, combiners, vecs)
}

// selectHiddenLevel computes every frontier node's [v] = V ⊗ [λ] and [τ]
// under the hidden regimes in shared batches.  HideFeature groups nodes by
// their (public) owner — only the owner holds V rows — each owner batching
// all of its nodes' dot products into a single broadcast; under HideClient
// every client contributes the segment of the dot product covered by its own
// splits, for all nodes in one broadcast, and the partials are summed
// homomorphically, so the final [v] and [τ] are identical at every client.
func (p *Party) selectHiddenLevel(iStars []int, segs [][]*paillier.Ciphertext, n int) ([][]*paillier.Ciphertext, []*paillier.Ciphertext, error) {
	K := len(iStars)
	encVs := make([][]*paillier.Ciphertext, K)
	encTaus := make([]*paillier.Ciphertext, K)
	splits := p.localFlatSplits()

	// rowsFor builds one node's selection rows (the n indicator rows plus
	// the threshold row) over my own splits against its lambda segment.
	rowsFor := func(seg []*paillier.Ciphertext) ([][]*big.Int, [][]*paillier.Ciphertext, error) {
		if len(splits) != len(seg) {
			return nil, nil, p.errf("hidden selection: %d local splits vs %d lambda entries", len(splits), len(seg))
		}
		rows := make([][]*big.Int, 0, n+1)
		lams := make([][]*paillier.Ciphertext, 0, n+1)
		for t := 0; t < n; t++ {
			row := make([]*big.Int, len(splits))
			for fs, sp := range splits {
				row[fs] = p.indic[sp.j][sp.s][t]
			}
			rows = append(rows, row)
			lams = append(lams, seg)
		}
		taus := make([]*big.Int, len(splits))
		for fs, sp := range splits {
			taus[fs] = p.cod.Encode(p.cands[sp.j][sp.s])
		}
		rows = append(rows, taus)
		lams = append(lams, seg)
		return rows, lams, nil
	}

	if iStars[0] >= 0 {
		// HideFeature: each owner's partials are the final values.
		byOwner := make([][]int, p.M)
		for i, o := range iStars {
			byOwner[o] = append(byOwner[o], i)
		}
		return p.ownerSelectLevel(byOwner, n, func(i int) ([][]*big.Int, [][]*paillier.Ciphertext, error) {
			return rowsFor(segs[i])
		})
	}

	// HideClient: every client contributes its own global slice for every
	// node; partials are broadcast once and summed.
	base := p.clientBase(p.ID)
	var rows [][]*big.Int
	var lams [][]*paillier.Ciphertext
	for i := range iStars {
		r, l, err := rowsFor(segs[i][base : base+p.clientSplits(p.ID)])
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, r...)
		lams = append(lams, l...)
	}
	p.poolReserve(len(rows))
	sum, err := p.dotRerandVec(rows, lams)
	if err != nil {
		return nil, nil, err
	}
	if err := p.broadcastCtsChunked(sum); err != nil {
		return nil, nil, err
	}
	for c := 0; c < p.M; c++ {
		if c == p.ID {
			continue
		}
		cts, err := p.recvCtsChunked(c, K*(n+1))
		if err != nil {
			return nil, nil, err
		}
		sum = p.pk.AddVec(sum, cts, p.cfg.Workers)
	}
	p.Stats.HEOps += int64(K * (n + 1) * (p.M - 1))
	for i := 0; i < K; i++ {
		encVs[i] = sum[i*(n+1) : i*(n+1)+n]
		encTaus[i] = sum[i*(n+1)+n]
	}
	return encVs, encTaus, nil
}

// featureSelectors derives, for every contributing client, the encrypted
// one-hot feature selector [φ^c] from [λ]: φ^c_j sums the λ entries of
// feature j's candidate splits.  The summation structure is public (split
// counts), so this is a local deterministic computation at every client and
// the resulting ciphertexts are bit-identical everywhere.
func (p *Party) featureSelectors(iStar int, encLam []*paillier.Ciphertext) [][]*paillier.Ciphertext {
	sels := make([][]*paillier.Ciphertext, p.M)
	for c := 0; c < p.M; c++ {
		if iStar >= 0 && c != iStar {
			continue
		}
		base := 0
		if iStar < 0 {
			base = p.clientBase(c)
		}
		phi := make([]*paillier.Ciphertext, len(p.splitCounts[c]))
		pos := base
		for j, cnt := range p.splitCounts[c] {
			if cnt == 0 {
				// A feature with no candidate splits can never win; its
				// selector entry is a deterministic zero.
				phi[j] = p.pk.ZeroDeterministic()
				continue
			}
			phi[j] = p.foldAdd(encLam[pos : pos+cnt])
			pos += cnt
		}
		sels[c] = phi
	}
	return sels
}
