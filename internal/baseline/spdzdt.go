// Package baseline implements the two comparison systems of the paper's
// evaluation (§8.3.3):
//
//   - SPDZ-DT — decision-tree training entirely inside secret-sharing MPC:
//     every indicator vector and label goes in as O(nd) shared values, and
//     every per-split statistic costs secure multiplications (the paper's
//     "straightforward solution" of §4 whose communication Pivot avoids).
//   - NPD-DT — the non-private distributed trainer: plaintext labels are
//     broadcast and plaintext statistics exchanged, bounding from below what
//     any privacy-preserving protocol must cost.
package baseline

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mpc"
	"repro/internal/transport"
)

// Config holds the SPDZ-DT hyper-parameters (a subset of Pivot's).
type Config struct {
	Tree      core.TreeHyper
	F         uint
	Kappa     uint
	LabelBits uint
	Seed      int64
}

// DefaultConfig mirrors the Pivot defaults.
func DefaultConfig() Config {
	return Config{Tree: core.DefaultTreeHyper(), F: 16, Kappa: 40, LabelBits: 8}
}

// Stats summarizes a baseline run.
type Stats struct {
	MPC          mpc.OpStats
	BytesSent    int64
	MessagesSent int64
}

// sparty is one SPDZ-DT party.
type sparty struct {
	id, m int
	eng   *mpc.Engine
	ep    transport.Endpoint
	part  *dataset.Partition
	cfg   Config

	cands       [][]float64
	splitCounts [][]int
	splitIDs    [][]int64

	// Secret-shared protocol state.
	vShares  [][]mpc.Share // per flat global split: the left indicator vector
	channels [][]mpc.Share // label channels (classes, or y and y²)

	wCount uint
	wStat  uint
	wGain  uint
}

// TrainSPDZDT trains one tree fully under MPC over the vertical partitions
// and returns the (public) model — the functionality Pivot-Basic provides,
// at the cost profile of generic MPC.
func TrainSPDZDT(parts []*dataset.Partition, cfg Config) (*core.Model, Stats, error) {
	m := len(parts)
	eps := transport.NewMemoryNetwork(m+1, 8192)
	go func() {
		_ = mpc.RunDealer(eps[m], mpc.DealerConfig{Seed: cfg.Seed})
	}()
	models := make([]*core.Model, m)
	errs := make([]error, m)
	var st Stats
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("spdz-dt party %d panic: %v", i, r)
				}
			}()
			eng, err := mpc.NewEngine(eps[i], mpc.Config{F: cfg.F, Kappa: cfg.Kappa, Seed: cfg.Seed})
			if err != nil {
				errs[i] = err
				return
			}
			p := &sparty{id: i, m: m, eng: eng, ep: eps[i], part: parts[i], cfg: cfg}
			models[i], errs[i] = p.train()
			if i == 0 {
				st.MPC = eng.Stats
				eng.Shutdown()
			}
		}(i)
	}
	wg.Wait()
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

func (p *sparty) train() (*core.Model, error) {
	n := p.part.N
	p.wCount = uint(math.Ceil(math.Log2(float64(n+2)))) + 4
	p.wStat = p.wCount + 2*(p.cfg.LabelBits+p.cfg.F) + 2
	p.wGain = 2*p.cfg.LabelBits + p.cfg.F + 6

	if err := p.exchangeSplitCounts(); err != nil {
		return nil, err
	}
	if err := p.inputData(); err != nil {
		return nil, err
	}

	// Root: everyone holds shares of the all-ones availability vector.
	alpha := make([]mpc.Share, n)
	for t := range alpha {
		alpha[t] = p.eng.ConstInt64(1)
	}
	model := &core.Model{Classes: p.part.Classes, Protocol: core.Basic}
	if _, err := p.buildNode(model, alpha, 0); err != nil {
		return nil, err
	}
	return model, nil
}

func (p *sparty) exchangeSplitCounts() error {
	p.cands = make([][]float64, len(p.part.Features))
	for j := range p.cands {
		col := make([]float64, p.part.N)
		for t := range col {
			col[t] = p.part.X[t][j]
		}
		p.cands[j] = dataset.SplitCandidates(col, p.cfg.Tree.MaxSplits)
	}
	mine := make([]*big.Int, len(p.cands))
	for j := range p.cands {
		mine[j] = big.NewInt(int64(len(p.cands[j])))
	}
	for c := 0; c < p.m; c++ {
		if c != p.id {
			if err := transport.SendInts(p.ep, c, mine); err != nil {
				return err
			}
		}
	}
	p.splitCounts = make([][]int, p.m)
	for c := 0; c < p.m; c++ {
		counts, err := mine, error(nil)
		if c != p.id {
			counts, err = transport.RecvInts(p.ep, c)
		}
		// The counts size the split enumeration below: core's bounds.
		if err == nil {
			p.splitCounts[c], err = core.SplitCounts(counts, p.cfg.Tree.MaxSplits)
		}
		if err != nil {
			return fmt.Errorf("spdz-dt party %d: split counts from party %d: %w", p.id, c, err)
		}
	}
	for c := 0; c < p.m; c++ {
		for j, cnt := range p.splitCounts[c] {
			for s := 0; s < cnt; s++ {
				p.splitIDs = append(p.splitIDs, []int64{int64(c), int64(j), int64(s)})
			}
		}
	}
	return nil
}

// inputData secret-shares the entire protocol input: every split indicator
// vector (O(ndb) shared values — the communication Pivot's hybrid design
// avoids) and the super client's label channels.
func (p *sparty) inputData() error {
	n := p.part.N
	for c := 0; c < p.m; c++ {
		for j := 0; j < len(p.splitCounts[c]); j++ {
			for s := 0; s < p.splitCounts[c][j]; s++ {
				var vals []*big.Int
				if c == p.id {
					vals = make([]*big.Int, n)
					tau := p.cands[j][s]
					for t := 0; t < n; t++ {
						if p.part.X[t][j] <= tau {
							vals[t] = big.NewInt(1)
						} else {
							vals[t] = big.NewInt(0)
						}
					}
				} else {
					vals = make([]*big.Int, n)
				}
				p.vShares = append(p.vShares, p.eng.InputVec(c, vals))
			}
		}
	}
	C := p.part.Classes
	if C == 0 {
		C = 2
	}
	enc := func(x float64) *big.Int {
		return big.NewInt(int64(math.Round(x * math.Ldexp(1, int(p.cfg.F)))))
	}
	for k := 0; k < C; k++ {
		vals := make([]*big.Int, n)
		if p.id == 0 {
			for t := 0; t < n; t++ {
				if p.part.Classes > 0 {
					if int(p.part.Y[t]) == k {
						vals[t] = big.NewInt(1)
					} else {
						vals[t] = big.NewInt(0)
					}
				} else if k == 0 {
					vals[t] = enc(p.part.Y[t])
				} else {
					y := enc(p.part.Y[t])
					vals[t] = new(big.Int).Mul(y, y)
				}
			}
		}
		p.channels = append(p.channels, p.eng.InputVec(0, vals))
	}
	return nil
}

func (p *sparty) buildNode(model *core.Model, alpha []mpc.Share, depth int) (int, error) {
	eng := p.eng
	n := p.part.N
	nNode := eng.Sum(alpha)

	leaf := depth >= p.cfg.Tree.MaxDepth || len(p.splitIDs) == 0
	if !leaf {
		lt := eng.LT(nNode, eng.ConstInt64(int64(p.cfg.Tree.MinSamplesSplit)), p.wCount)
		leaf = eng.Open(lt).Sign() != 0
	}
	if leaf {
		return p.makeLeaf(model, alpha, nNode)
	}

	// Masked channels γ_k·α (n·C secure multiplications per node).
	C := len(p.channels)
	var xs, ys []mpc.Share
	for k := 0; k < C; k++ {
		xs = append(xs, p.channels[k]...)
		ys = append(ys, alpha...)
	}
	gammaFlat := eng.MulVec(xs, ys)
	gTotals := make([]mpc.Share, C)
	for k := 0; k < C; k++ {
		gTotals[k] = eng.Sum(gammaFlat[k*n : (k+1)*n])
	}

	// Left-branch statistics for every split: w = v·α (n mults per split),
	// then g_l,k = Σ v·γ_k (n mults per split per channel).
	S := len(p.splitIDs)
	var wxs, wys []mpc.Share
	for s := 0; s < S; s++ {
		wxs = append(wxs, p.vShares[s]...)
		wys = append(wys, alpha...)
	}
	wFlat := eng.MulVec(wxs, wys)

	var gxs, gys []mpc.Share
	for s := 0; s < S; s++ {
		for k := 0; k < C; k++ {
			gxs = append(gxs, p.vShares[s]...)
			gys = append(gys, gammaFlat[k*n:(k+1)*n]...)
		}
	}
	gFlat := eng.MulVec(gxs, gys)

	// Assemble per-split stats in the same layout core uses.
	statsPerSplit := 2 + 2*C
	stats := make([]mpc.Share, 0, S*statsPerSplit)
	for s := 0; s < S; s++ {
		nl := eng.Sum(wFlat[s*n : (s+1)*n])
		nr := eng.Sub(nNode, nl)
		stats = append(stats, nl, nr)
		for k := 0; k < C; k++ {
			off := (s*C + k) * n
			gl := eng.Sum(gFlat[off : off+n])
			gr := eng.Sub(gTotals[k], gl)
			stats = append(stats, gl, gr)
		}
	}

	gains := p.gains(gTotals, stats, nNode, C, statsPerSplit)
	best := eng.ArgmaxLinear(gains, p.splitIDs, p.wGain)
	if p.cfg.Tree.LeafOnZeroGain {
		le := eng.LE(best.Max, eng.ConstInt64(0), p.wGain)
		if eng.Open(le).Sign() != 0 {
			return p.makeLeaf(model, alpha, nNode)
		}
	}
	iStar, jStar, sStar, err := p.winner(eng.OpenVec(best.IDs))
	if err != nil {
		return 0, err
	}

	node := core.Node{Owner: iStar, Feature: jStar, SplitIndex: sStar}
	// The owner announces the plaintext threshold (public model).
	if p.id == iStar {
		node.Threshold = p.cands[jStar][sStar]
		enc := big.NewInt(int64(math.Round(node.Threshold * math.Ldexp(1, int(p.cfg.F)))))
		for c := 0; c < p.m; c++ {
			if c != p.id {
				if err := transport.SendInts(p.ep, c, []*big.Int{mpc.ToField(enc)}); err != nil {
					return 0, err
				}
			}
		}
	} else if node.Threshold, err = p.recvThreshold(iStar); err != nil {
		return 0, err
	}

	// Child masks: the winner's w vector is already available per split;
	// select it publicly (the identifier is open).
	flatBest := p.flatOf(iStar, jStar, sStar)
	alphaL := wFlat[flatBest*n : (flatBest+1)*n]
	alphaR := make([]mpc.Share, n)
	for t := 0; t < n; t++ {
		alphaR[t] = eng.Sub(alpha[t], alphaL[t])
	}

	idx := len(model.Nodes)
	model.Nodes = append(model.Nodes, node)
	l, err := p.buildNode(model, alphaL, depth+1)
	if err != nil {
		return 0, err
	}
	r, err := p.buildNode(model, alphaR, depth+1)
	if err != nil {
		return 0, err
	}
	model.Nodes[idx].Left = l
	model.Nodes[idx].Right = r
	return idx, nil
}

// recvThreshold receives the plaintext threshold the winner's owner
// announces.
func (p *sparty) recvThreshold(owner int) (float64, error) {
	xs, err := recvInts(p.ep, owner, 1)
	if err != nil {
		return 0, err
	}
	v, _ := new(big.Float).SetInt(mpc.Signed(xs[0])).Float64()
	return v / math.Ldexp(1, int(p.cfg.F)), nil
}

// winner reads the opened (client, feature, split) identifier, refusing one
// that the public split counts do not hold: the owner indexes its
// candidates by it and everyone slices the winner's left indicator out of
// the per-split products.
func (p *sparty) winner(ids []*big.Int) (c, j, s int, err error) {
	for _, id := range ids {
		if !id.IsInt64() {
			return 0, 0, 0, fmt.Errorf("spdz-dt party %d: opened winner %v names no split", p.id, ids)
		}
	}
	c, j, s = int(ids[0].Int64()), int(ids[1].Int64()), int(ids[2].Int64())
	if c < 0 || c >= p.m || j < 0 || j >= len(p.splitCounts[c]) || s < 0 || s >= p.splitCounts[c][j] {
		return 0, 0, 0, fmt.Errorf("spdz-dt party %d: opened winner %v names no split", p.id, ids)
	}
	return c, j, s, nil
}

func (p *sparty) flatOf(c, j, s int) int {
	flat := 0
	for cc := 0; cc < c; cc++ {
		for _, cnt := range p.splitCounts[cc] {
			flat += cnt
		}
	}
	for jj := 0; jj < j; jj++ {
		flat += p.splitCounts[c][jj]
	}
	return flat + s
}

func (p *sparty) gains(totals, stats []mpc.Share, nNode mpc.Share, C, statsPerSplit int) []mpc.Share {
	eng := p.eng
	S := len(p.splitIDs)
	recipIn := make([]mpc.Share, 0, 2*S+1)
	for s := 0; s < S; s++ {
		recipIn = append(recipIn, stats[s*statsPerSplit], stats[s*statsPerSplit+1])
	}
	recipIn = append(recipIn, nNode)
	recips := eng.RecipVec(recipIn, p.wCount)
	rn := recips[2*S]
	kSq := 2*p.cfg.F + 4

	if p.part.Classes > 0 {
		var gs, rs []mpc.Share
		for s := 0; s < S; s++ {
			base := s * statsPerSplit
			for k := 0; k < C; k++ {
				gs = append(gs, stats[base+2+2*k], stats[base+2+2*k+1])
				rs = append(rs, recips[2*s], recips[2*s+1])
			}
		}
		ps := eng.MulVec(gs, rs)
		sqs := eng.FPMulVec(ps, ps, kSq)
		var ng, nr []mpc.Share
		for k := 0; k < C; k++ {
			ng = append(ng, totals[k])
			nr = append(nr, rn)
		}
		nps := eng.MulVec(ng, nr)
		nsqs := eng.FPMulVec(nps, nps, kSq)
		nodeImp := eng.Sum(nsqs)
		var ws, sums []mpc.Share
		for s := 0; s < S; s++ {
			base := s * statsPerSplit
			ws = append(ws, eng.Mul(stats[base], rn), eng.Mul(stats[base+1], rn))
			sl, sr := eng.ConstInt64(0), eng.ConstInt64(0)
			for k := 0; k < C; k++ {
				idx := (s*C + k) * 2
				sl = eng.Add(sl, sqs[idx])
				sr = eng.Add(sr, sqs[idx+1])
			}
			sums = append(sums, sl, sr)
		}
		terms := eng.FPMulVec(ws, sums, kSq)
		gains := make([]mpc.Share, S)
		for s := 0; s < S; s++ {
			gains[s] = eng.Sub(eng.Add(terms[2*s], terms[2*s+1]), nodeImp)
		}
		return gains
	}

	// Regression: variance gains.
	f := p.cfg.F
	kBig := p.wStat + f + 4
	kSqV := 2*(p.cfg.LabelBits+f) + 4
	var us, qs, rsU []mpc.Share
	for s := 0; s < S; s++ {
		base := s * statsPerSplit
		us = append(us, stats[base+2], stats[base+3])
		qs = append(qs, stats[base+4], stats[base+5])
		rsU = append(rsU, recips[2*s], recips[2*s+1])
	}
	us = append(us, totals[0])
	qs = append(qs, totals[1])
	rsU = append(rsU, rn)
	qTr := eng.TruncVec(qs, p.wStat+2, f)
	means := eng.FPMulVec(us, rsU, kBig)
	meanSqs := eng.FPMulVec(means, means, kSqV)
	ey2s := eng.FPMulVec(qTr, rsU, kBig)
	ivs := make([]mpc.Share, len(us))
	for i := range ivs {
		ivs[i] = eng.Sub(ey2s[i], meanSqs[i])
	}
	nodeIV := ivs[2*S]
	var ws, branchIVs []mpc.Share
	for s := 0; s < S; s++ {
		base := s * statsPerSplit
		ws = append(ws, eng.Mul(stats[base], rn), eng.Mul(stats[base+1], rn))
		branchIVs = append(branchIVs, ivs[2*s], ivs[2*s+1])
	}
	terms := eng.FPMulVec(ws, branchIVs, kSqV+f)
	gains := make([]mpc.Share, S)
	for s := 0; s < S; s++ {
		gains[s] = eng.Sub(nodeIV, eng.Add(terms[2*s], terms[2*s+1]))
	}
	return gains
}

func (p *sparty) makeLeaf(model *core.Model, alpha []mpc.Share, nNode mpc.Share) (int, error) {
	eng := p.eng
	n := p.part.N
	node := core.Node{Leaf: true, LeafPos: model.Leaves}
	if model.Classes > 0 {
		counts := make([]mpc.Share, model.Classes)
		var xs, ys []mpc.Share
		for k := 0; k < model.Classes; k++ {
			xs = append(xs, p.channels[k]...)
			ys = append(ys, alpha...)
		}
		prods := eng.MulVec(xs, ys)
		ids := make([][]int64, model.Classes)
		for k := 0; k < model.Classes; k++ {
			counts[k] = eng.Sum(prods[k*n : (k+1)*n])
			ids[k] = []int64{int64(k)}
		}
		best := eng.ArgmaxLinear(counts, ids, p.wCount)
		node.Label = float64(eng.OpenSigned(best.IDs[0]).Int64())
	} else {
		var xs, ys []mpc.Share
		xs = append(xs, p.channels[0]...)
		ys = append(ys, alpha...)
		prods := eng.MulVec(xs, ys)
		sum := eng.Sum(prods)
		recip := eng.RecipVec([]mpc.Share{nNode}, p.wCount)[0]
		raw := eng.Mul(sum, recip)
		mean := eng.Trunc(raw, p.wStat+p.cfg.F+4, p.cfg.F)
		node.Label = eng.DecodeSigned(eng.Open(mean))
	}
	model.Leaves++
	idx := len(model.Nodes)
	model.Nodes = append(model.Nodes, node)
	return idx, nil
}
