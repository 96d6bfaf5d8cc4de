package baseline

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// NPD-DT: the non-private distributed decision tree of §8.1.  "The super
// client broadcasts plaintext labels to all clients, each client computes
// split statistics and exchanges them in plaintext with others to decide
// the best split."  It provides functionality without privacy and bounds
// the protocols from below in the efficiency plots.

// npdParty is one NPD-DT party.
type npdParty struct {
	id, m int
	ep    transport.Endpoint
	part  *dataset.Partition
	cfg   Config

	cands  [][]float64
	labels []float64 // plaintext labels, broadcast by the super client
}

// TrainNPDDT trains the non-private distributed tree and returns the model
// plus traffic statistics.
func TrainNPDDT(parts []*dataset.Partition, cfg Config) (*core.Model, Stats, error) {
	m := len(parts)
	eps := transport.NewMemoryNetwork(m, 4096)
	models := make([]*core.Model, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("npd-dt party %d panic: %v", i, r)
				}
				if errs[i] != nil {
					for _, ep := range eps {
						ep.Close() // the other parties would wait on this one forever
					}
				}
			}()
			p := &npdParty{id: i, m: m, ep: eps[i], part: parts[i], cfg: cfg}
			models[i], errs[i] = p.train()
		}(i)
	}
	wg.Wait()
	var st Stats
	for i := 0; i < m; i++ {
		if errs[i] != nil {
			return nil, st, errs[i]
		}
		st.BytesSent += eps[i].Stats().BytesSent.Load()
		st.MessagesSent += eps[i].Stats().MsgsSent.Load()
	}
	for _, ep := range eps {
		ep.Close()
	}
	return models[0], st, nil
}

func (p *npdParty) train() (*core.Model, error) {
	p.cands = make([][]float64, len(p.part.Features))
	for j := range p.cands {
		col := make([]float64, p.part.N)
		for t := range col {
			col[t] = p.part.X[t][j]
		}
		p.cands[j] = dataset.SplitCandidates(col, p.cfg.Tree.MaxSplits)
	}
	// Plaintext label broadcast — the step that forfeits privacy.
	if p.id == 0 {
		vals := make([]*big.Int, p.part.N)
		for t, y := range p.part.Y {
			vals[t] = mpcField(int64(math.Round(y * 65536)))
		}
		for c := 1; c < p.m; c++ {
			if err := transport.SendInts(p.ep, c, vals); err != nil {
				return nil, err
			}
		}
		p.labels = p.part.Y
	} else {
		xs, err := recvInts(p.ep, 0, p.part.N)
		if err != nil {
			return nil, err
		}
		p.labels = make([]float64, len(xs))
		for t, v := range xs {
			p.labels[t] = float64(signedOf(v).Int64()) / 65536
			if k := p.labels[t]; p.part.Classes > 0 && (k != math.Trunc(k) || k < 0 || k >= float64(p.part.Classes)) {
				return nil, fmt.Errorf("npd-dt party %d: label %d from party 0 is not a class in [0,%d)", p.id, t, p.part.Classes)
			}
		}
	}
	mask := make([]bool, p.part.N)
	for t := range mask {
		mask[t] = true
	}
	model := &core.Model{Classes: p.part.Classes, Protocol: core.Basic}
	if _, err := p.buildNode(model, mask, 0); err != nil {
		return nil, err
	}
	return model, nil
}

func (p *npdParty) buildNode(model *core.Model, mask []bool, depth int) (int, error) {
	count := 0
	for _, in := range mask {
		if in {
			count++
		}
	}
	if depth >= p.cfg.Tree.MaxDepth || count < p.cfg.Tree.MinSamplesSplit {
		return p.makeLeaf(model, mask), nil
	}

	// Everyone computes its best local split and sends (gain, j, s) to the
	// super client, which picks the winner and broadcasts it.  A party with
	// no valid split has j = s = -1, so every field rides the wire mapped
	// into the ring.
	bestGain, bestJ, bestS := p.bestLocalSplit(mask)
	if p.id != 0 {
		msg := []*big.Int{mpcField(int64(bestGain * 1e9)), mpcField(int64(bestJ)), mpcField(int64(bestS))}
		if err := transport.SendInts(p.ep, 0, msg); err != nil {
			return 0, err
		}
	}
	var winner [3]int64
	if p.id == 0 {
		bg, bi, bj, bs := bestGain, 0, bestJ, bestS
		for c := 1; c < p.m; c++ {
			xs, err := recvInts(p.ep, c, 3)
			if err != nil {
				return 0, err
			}
			g := float64(signedOf(xs[0]).Int64()) / 1e9
			if g > bg {
				bg, bi, bj, bs = g, c, int(signedOf(xs[1]).Int64()), int(signedOf(xs[2]).Int64())
			}
		}
		if bg <= 0 {
			bi = -1 // no useful split anywhere
		}
		winner = [3]int64{int64(bi), int64(bj), int64(bs)}
		msg := []*big.Int{mpcField(winner[0]), mpcField(winner[1]), mpcField(winner[2])}
		for c := 1; c < p.m; c++ {
			if err := transport.SendInts(p.ep, c, msg); err != nil {
				return 0, err
			}
		}
	} else {
		xs, err := recvInts(p.ep, 0, 3)
		if err != nil {
			return 0, err
		}
		winner = [3]int64{signedOf(xs[0]).Int64(), signedOf(xs[1]).Int64(), signedOf(xs[2]).Int64()}
	}
	iStar := int(winner[0])
	if iStar < 0 {
		return p.makeLeaf(model, mask), nil
	}
	jStar, sStar := int(winner[1]), int(winner[2])
	// The owner indexes its candidates by the winner; everyone else receives
	// from the owner.
	if iStar >= p.m || p.id == iStar && (jStar < 0 || jStar >= len(p.cands) || sStar < 0 || sStar >= len(p.cands[jStar])) {
		return 0, fmt.Errorf("npd-dt party %d: winner (%d, %d, %d) names no split", p.id, iStar, jStar, sStar)
	}

	// The owner broadcasts the plaintext child mask.
	node := core.Node{Owner: iStar, Feature: jStar, SplitIndex: sStar}
	leftMask := make([]bool, len(mask))
	if p.id == iStar {
		tau := p.cands[jStar][sStar]
		node.Threshold = tau
		bits := make([]*big.Int, len(mask)+1)
		bits[0] = mpcField(int64(math.Round(tau * 65536)))
		for t := range mask {
			leftMask[t] = mask[t] && p.part.X[t][jStar] <= tau
			bits[t+1] = big.NewInt(0)
			if leftMask[t] {
				bits[t+1] = big.NewInt(1)
			}
		}
		for c := 0; c < p.m; c++ {
			if c != p.id {
				if err := transport.SendInts(p.ep, c, bits); err != nil {
					return 0, err
				}
			}
		}
	} else {
		xs, err := recvInts(p.ep, iStar, len(mask)+1)
		if err != nil {
			return 0, err
		}
		node.Threshold = float64(signedOf(xs[0]).Int64()) / 65536
		for t := range mask {
			leftMask[t] = xs[t+1].Sign() != 0
		}
	}
	rightMask := make([]bool, len(mask))
	for t := range mask {
		rightMask[t] = mask[t] && !leftMask[t]
	}

	idx := len(model.Nodes)
	model.Nodes = append(model.Nodes, node)
	l, err := p.buildNode(model, leftMask, depth+1)
	if err != nil {
		return 0, err
	}
	r, err := p.buildNode(model, rightMask, depth+1)
	if err != nil {
		return 0, err
	}
	model.Nodes[idx].Left = l
	model.Nodes[idx].Right = r
	return idx, nil
}

func (p *npdParty) bestLocalSplit(mask []bool) (float64, int, int) {
	bestGain := math.Inf(-1)
	bestJ, bestS := -1, -1
	base := p.impurity(mask)
	for j := range p.cands {
		for s, tau := range p.cands[j] {
			left := make([]bool, len(mask))
			right := make([]bool, len(mask))
			nl, nr := 0, 0
			for t, in := range mask {
				if !in {
					continue
				}
				if p.part.X[t][j] <= tau {
					left[t] = true
					nl++
				} else {
					right[t] = true
					nr++
				}
			}
			if nl == 0 || nr == 0 {
				continue
			}
			n := float64(nl + nr)
			g := float64(nl)/n*p.impurity(left) + float64(nr)/n*p.impurity(right) - base
			if g > bestGain {
				bestGain, bestJ, bestS = g, j, s
			}
		}
	}
	return bestGain, bestJ, bestS
}

// impurity is Σp² for classification or the negated variance for regression
// (identical scoring to the private protocols).
func (p *npdParty) impurity(mask []bool) float64 {
	if p.part.Classes > 0 {
		counts := make([]float64, p.part.Classes)
		n := 0.0
		for t, in := range mask {
			if in {
				counts[int(p.labels[t])]++
				n++
			}
		}
		if n == 0 {
			return 0
		}
		var s float64
		for _, c := range counts {
			q := c / n
			s += q * q
		}
		return s
	}
	var sum, sum2, n float64
	for t, in := range mask {
		if in {
			sum += p.labels[t]
			sum2 += p.labels[t] * p.labels[t]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	mean := sum / n
	return -(sum2/n - mean*mean)
}

func (p *npdParty) makeLeaf(model *core.Model, mask []bool) int {
	node := core.Node{Leaf: true, LeafPos: model.Leaves}
	if p.part.Classes > 0 {
		counts := make([]int, p.part.Classes)
		for t, in := range mask {
			if in {
				counts[int(p.labels[t])]++
			}
		}
		best := 0
		for k, c := range counts {
			if c > counts[best] {
				best = k
			}
		}
		node.Label = float64(best)
	} else {
		var sum, n float64
		for t, in := range mask {
			if in {
				sum += p.labels[t]
				n++
			}
		}
		if n > 0 {
			node.Label = sum / n
		}
	}
	model.Leaves++
	idx := len(model.Nodes)
	model.Nodes = append(model.Nodes, node)
	return idx
}

// PredictNPDDT walks the tree with one plaintext message per internal node
// (the naive coordinated prediction of §4.3 that leaks the path).
func PredictNPDDT(model *core.Model, featuresByClient [][]float64) (float64, error) {
	return model.PredictPlain(featuresByClient)
}

// recvInts receives one frame from a peer and requires it to hold exactly
// want integers: every baseline receive indexes what it got, so a short or
// long frame is core's ErrMessageLength, not a panic.
func recvInts(ep transport.Endpoint, from, want int) ([]*big.Int, error) {
	xs, err := transport.RecvInts(ep, from)
	if err != nil {
		return nil, err
	}
	if len(xs) != want {
		return nil, &core.ErrMessageLength{Client: ep.ID(), From: from, Got: len(xs), Want: want}
	}
	return xs, nil
}

func mpcField(v int64) *big.Int {
	x := big.NewInt(v)
	if x.Sign() < 0 {
		x.Add(x, fieldQ)
	}
	return x
}

func signedOf(v *big.Int) *big.Int {
	half := new(big.Int).Rsh(fieldQ, 1)
	out := new(big.Int).Set(v)
	if out.Cmp(half) > 0 {
		out.Sub(out, fieldQ)
	}
	return out
}

var fieldQ = func() *big.Int {
	q := new(big.Int).Lsh(big.NewInt(1), 255)
	return q.Sub(q, big.NewInt(19))
}()
