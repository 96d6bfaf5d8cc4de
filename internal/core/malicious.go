package core

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/paillier"
	"repro/internal/transport"
	"repro/internal/zkp"
)

// auditor wires the §9.1 malicious extension into the protocol: before
// training, each client commits (encrypts and broadcasts) the data its local
// computations will use — the super client its label indicator vectors, and
// every client its split indicator vectors.  During training, each HE-side
// message carries a Σ-protocol proof tying it to those commitments:
//
//	conversion masks  -> POPK   (modified Algorithm 2, §9.1.1)
//	[γ_k] broadcast   -> POPCM  (local computation step, §9.1.2)
//	split statistics  -> POHDP  (local computation step, §9.1.2)
//
// The MPC side runs with authenticated (MACed) shares; see mpc.CheckMACs.
type auditor struct {
	p *Party

	// Commitments by flat split index (this client's own, with nonces).
	ownIndicComms  [][]*paillier.Ciphertext
	ownIndicNonces [][]*big.Int
	ownIndicPlain  [][]*big.Int

	// Every client's commitments, by client then flat split index.
	indicComms [][][]*paillier.Ciphertext

	// Super client label commitments, one vector per class (classification)
	// or one vector of encoded labels (regression).
	labelComms  [][]*paillier.Ciphertext
	labelNonces [][]*big.Int // super only
	labelPlain  [][]*big.Int // super only
}

func newAuditor(p *Party) *auditor { return &auditor{p: p} }

// flatSplits returns this client's split indicator vectors in flat order.
func (p *Party) flatSplits() [][]*big.Int {
	var out [][]*big.Int
	for j := range p.indic {
		out = append(out, p.indic[j]...)
	}
	return out
}

// commitTraining runs the pre-training commitment phase.  labelVectors is
// non-nil only at the super client: the per-class 0/1 indicator vectors
// (classification) or the encoded label (and squared label) vectors
// (regression / GBDT round start).
func (a *auditor) commitTraining(labelVectors [][]*big.Int) error {
	p := a.p
	// 1. Commit own split indicators.
	splits := p.flatSplits()
	a.ownIndicPlain = splits
	a.ownIndicComms = make([][]*paillier.Ciphertext, len(splits))
	a.ownIndicNonces = make([][]*big.Int, len(splits))
	for s, vec := range splits {
		cts, nonces, err := a.encryptCommit(vec)
		if err != nil {
			return err
		}
		a.ownIndicComms[s] = cts
		a.ownIndicNonces[s] = nonces
	}
	// 2. Broadcast commitments with POPKs; collect everyone's.
	a.indicComms = make([][][]*paillier.Ciphertext, p.M)
	a.indicComms[p.ID] = a.ownIndicComms
	for s, cts := range a.ownIndicComms {
		if err := a.broadcastWithPOPK(cts, a.ownIndicPlain[s], a.ownIndicNonces[s]); err != nil {
			return err
		}
	}
	for c := 0; c < p.M; c++ {
		if c == p.ID {
			continue
		}
		nSplits := 0
		for _, cnt := range p.splitCounts[c] {
			nSplits += cnt
		}
		a.indicComms[c] = make([][]*paillier.Ciphertext, nSplits)
		for s := 0; s < nSplits; s++ {
			cts, err := a.recvWithPOPK(c, p.part.N)
			if err != nil {
				return fmt.Errorf("client %d split commitment %d: %w", c, s, err)
			}
			a.indicComms[c][s] = cts
		}
	}
	// 3. Label commitments from the super client.
	if p.ID == p.Super {
		a.labelPlain = labelVectors
		a.labelComms = make([][]*paillier.Ciphertext, len(labelVectors))
		a.labelNonces = make([][]*big.Int, len(labelVectors))
		for k, vec := range labelVectors {
			cts, nonces, err := a.encryptCommit(vec)
			if err != nil {
				return err
			}
			a.labelComms[k] = cts
			a.labelNonces[k] = nonces
			if err := a.broadcastWithPOPK(cts, vec, nonces); err != nil {
				return err
			}
		}
		return nil
	}
	// Non-super: the number of label vectors is protocol-determined; the
	// super sends a count header first inside broadcastWithPOPK framing, so
	// here we receive based on class count communicated via config.
	nVec := p.part.Classes
	if nVec == 0 {
		nVec = 2 // regression: y and y² vectors
	}
	a.labelComms = make([][]*paillier.Ciphertext, nVec)
	for k := 0; k < nVec; k++ {
		cts, err := a.recvWithPOPK(p.Super, p.part.N)
		if err != nil {
			return fmt.Errorf("label commitment %d: %w", k, err)
		}
		a.labelComms[k] = cts
	}
	return nil
}

func (a *auditor) encryptCommit(vec []*big.Int) ([]*paillier.Ciphertext, []*big.Int, error) {
	p := a.p
	cts := make([]*paillier.Ciphertext, len(vec))
	nonces := make([]*big.Int, len(vec))
	for t, v := range vec {
		ct, r, err := p.pk.EncryptWithNonce(rand.Reader, v)
		if err != nil {
			return nil, nil, err
		}
		cts[t] = ct
		nonces[t] = r
	}
	p.Stats.Encryptions += int64(len(vec))
	return cts, nonces, nil
}

// broadcastWithPOPK ships a committed vector plus per-element POPKs.
func (a *auditor) broadcastWithPOPK(cts []*paillier.Ciphertext, plain, nonces []*big.Int) error {
	p := a.p
	payload := paillier.MarshalCiphertexts(cts)
	for t := range cts {
		pr, err := zkp.ProvePOPK(p.pk, cts[t], p.pk.EncodeSigned(plain[t]), nonces[t])
		if err != nil {
			return err
		}
		payload = append(payload, pr.U, pr.Z, pr.W)
	}
	return p.broadcastInts(payload)
}

// recvWithPOPK receives a committed vector of n elements: n ciphertexts and
// the three values of each one's POPK.
func (a *auditor) recvWithPOPK(from, n int) ([]*paillier.Ciphertext, error) {
	p := a.p
	xs, err := p.recvIntsN(from, 4*n)
	if err != nil {
		return nil, err
	}
	cts, err := p.checkedCts(from, 1, xs[:n])
	if err != nil {
		return nil, err
	}
	for t := 0; t < n; t++ {
		pr := &zkp.POPK{U: xs[n+3*t], Z: xs[n+3*t+1], W: xs[n+3*t+2]}
		if err := zkp.VerifyPOPK(p.pk, cts[t], pr); err != nil {
			return nil, fmt.Errorf("client %d element %d: %w", from, t, err)
		}
	}
	return cts, nil
}

// proveMasks prepares POPKs for the Algorithm-2 masks (modified MPC
// conversion, §9.1.1).  It re-encrypts the masks with retained nonces
// (replacing cts in place) and returns the proof payload; the caller ships
// it to the super client after the ciphertexts so per-pair FIFO order holds.
func (a *auditor) proveMasks(cts []*paillier.Ciphertext, plain []*big.Int) ([]*big.Int, error) {
	p := a.p
	payload := make([]*big.Int, 0, 3*len(cts))
	for t := range cts {
		ct, r, err := p.pk.EncryptWithNonce(rand.Reader, plain[t])
		if err != nil {
			return nil, err
		}
		cts[t] = ct
		pr, err := zkp.ProvePOPK(p.pk, ct, p.pk.EncodeSigned(plain[t]), r)
		if err != nil {
			return nil, err
		}
		payload = append(payload, pr.U, pr.Z, pr.W)
	}
	return payload, nil
}

// verifyMasks checks peers' POPKs for their conversion masks.
func (a *auditor) verifyMasks(from int, cts []*paillier.Ciphertext) error {
	p := a.p
	xs, err := p.recvIntsN(from, 3*len(cts))
	if err != nil {
		return fmt.Errorf("mask proofs: %w", err)
	}
	for t := range cts {
		pr := &zkp.POPK{U: xs[3*t], Z: xs[3*t+1], W: xs[3*t+2]}
		if err := zkp.VerifyPOPK(p.pk, cts[t], pr); err != nil {
			return fmt.Errorf("client %d mask %d: %w", from, t, err)
		}
	}
	return nil
}

// gammaWithProofs computes the super client's [γ_k] = β_k ⊗ [α] with POPCM
// proofs tying each element to the label commitments, and broadcasts both.
// Non-super clients receive and verify.  Returns the γ vectors.
func (a *auditor) gammaWithProofs(encAlpha []*paillier.Ciphertext, k int) ([]*paillier.Ciphertext, error) {
	p := a.p
	n := len(encAlpha)
	if p.ID == p.Super {
		out := make([]*paillier.Ciphertext, n)
		payload := make([]*big.Int, 0, 6*n)
		for t := 0; t < n; t++ {
			x := p.pk.EncodeSigned(a.labelPlain[k][t])
			ct, rho, err := zkp.MulCommitted(p.pk, encAlpha[t], x)
			if err != nil {
				return nil, err
			}
			pr, err := zkp.ProvePOPCM(p.pk, a.labelComms[k][t], encAlpha[t], ct, x, a.labelNonces[k][t], rho)
			if err != nil {
				return nil, err
			}
			out[t] = ct
			payload = append(payload, ct.C, pr.U1, pr.U2, pr.Z, pr.W1, pr.W2)
		}
		p.Stats.HEOps += int64(n)
		if err := p.broadcastInts(payload); err != nil {
			return nil, err
		}
		return out, nil
	}
	xs, err := p.recvIntsN(p.Super, 6*n)
	if err != nil {
		return nil, fmt.Errorf("gamma broadcast: %w", err)
	}
	out := make([]*paillier.Ciphertext, n)
	for t := 0; t < n; t++ {
		ct := &paillier.Ciphertext{C: xs[6*t]}
		pr := &zkp.POPCM{U1: xs[6*t+1], U2: xs[6*t+2], Z: xs[6*t+3], W1: xs[6*t+4], W2: xs[6*t+5]}
		if err := zkp.VerifyPOPCM(p.pk, a.labelComms[k][t], encAlpha[t], ct, pr); err != nil {
			return nil, fmt.Errorf("gamma class %d sample %d: %w", k, t, err)
		}
		out[t] = ct
	}
	return out, nil
}

// statWithProof computes one split statistic v ⊙ [γ] with a POHDP and sends
// it to the super client; the super verifies against the sender's
// commitments.  flatIdx identifies the split commitment.
func (a *auditor) statWithProof(flatIdx int, gamma []*paillier.Ciphertext, v []*big.Int) (*paillier.Ciphertext, error) {
	p := a.p
	pr, res, err := zkp.ProvePOHDP(p.pk, a.ownIndicComms[flatIdx], gamma, v, a.ownIndicNonces[flatIdx])
	if err != nil {
		return nil, err
	}
	if p.ID != p.Super {
		payload := []*big.Int{res.C}
		for j := range pr.Terms {
			q := pr.Proofs[j]
			payload = append(payload, pr.Terms[j].C, q.U1, q.U2, q.Z, q.W1, q.W2)
		}
		if err := transport.SendInts(p.ep, p.Super, payload); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyStat receives and verifies one proven statistic from a peer.
func (a *auditor) verifyStat(from, flatIdx int, gamma []*paillier.Ciphertext) (*paillier.Ciphertext, error) {
	p := a.p
	n := len(gamma)
	xs, err := p.recvIntsN(from, 1+6*n)
	if err != nil {
		return nil, fmt.Errorf("stat proof: %w", err)
	}
	res := &paillier.Ciphertext{C: xs[0]}
	pr := &zkp.POHDP{Terms: make([]*paillier.Ciphertext, n), Proofs: make([]*zkp.POPCM, n)}
	for j := 0; j < n; j++ {
		pr.Terms[j] = &paillier.Ciphertext{C: xs[1+6*j]}
		pr.Proofs[j] = &zkp.POPCM{U1: xs[2+6*j], U2: xs[3+6*j], Z: xs[4+6*j], W1: xs[5+6*j], W2: xs[6+6*j]}
	}
	if err := zkp.VerifyPOHDP(p.pk, a.indicComms[from][flatIdx], gamma, res, pr); err != nil {
		return nil, fmt.Errorf("client %d split %d: %w", from, flatIdx, err)
	}
	return res, nil
}

// provenScalarMulVec computes out[t] = base[t]^{v_t}·rho^N with POPCM proofs
// against this client's committed indicator vector at flatIdx, and
// broadcasts ciphertexts plus proofs (model update step, §9.1.2).
func (a *auditor) provenScalarMulVec(sender, flatIdx int, base []*paillier.Ciphertext, v []*big.Int) ([]*paillier.Ciphertext, error) {
	p := a.p
	n := len(base)
	out := make([]*paillier.Ciphertext, n)
	payload := make([]*big.Int, 0, 6*n)
	for t := 0; t < n; t++ {
		x := p.pk.EncodeSigned(v[t])
		ct, rho, err := zkp.MulCommitted(p.pk, base[t], x)
		if err != nil {
			return nil, err
		}
		pr, err := zkp.ProvePOPCM(p.pk, a.ownIndicComms[flatIdx][t], base[t], ct, x, a.ownIndicNonces[flatIdx][t], rho)
		if err != nil {
			return nil, err
		}
		out[t] = ct
		payload = append(payload, ct.C, pr.U1, pr.U2, pr.Z, pr.W1, pr.W2)
	}
	p.Stats.HEOps += int64(n)
	if err := p.broadcastInts(payload); err != nil {
		return nil, err
	}
	return out, nil
}

// recvProvenScalarMulVec receives and verifies a proven masked vector.
func (a *auditor) recvProvenScalarMulVec(from, flatIdx int, base []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	p := a.p
	n := len(base)
	xs, err := p.recvIntsN(from, 6*n)
	if err != nil {
		return nil, fmt.Errorf("proven masked vector: %w", err)
	}
	out := make([]*paillier.Ciphertext, n)
	for t := 0; t < n; t++ {
		ct := &paillier.Ciphertext{C: xs[6*t]}
		pr := &zkp.POPCM{U1: xs[6*t+1], U2: xs[6*t+2], Z: xs[6*t+3], W1: xs[6*t+4], W2: xs[6*t+5]}
		if err := zkp.VerifyPOPCM(p.pk, a.indicComms[from][flatIdx][t], base[t], ct, pr); err != nil {
			return nil, fmt.Errorf("masked vector element %d from client %d: %w", t, from, err)
		}
		out[t] = ct
	}
	return out, nil
}
