package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// complement returns 1 − v: the right-branch indicator vector the split
// statistics used to be computed from.  It survives as the test oracle.
func complement(v []*big.Int) []*big.Int {
	out := make([]*big.Int, len(v))
	for t, x := range v {
		if x.Sign() == 0 {
			out[t] = big.NewInt(1)
		} else {
			out[t] = big.NewInt(0)
		}
	}
	return out
}

// dotStats is Eqn 7 as the paper writes it, the formula bucketStats and
// expandStats replaced: per (node, feature, split, channel), v_l ⊙ [ch] and
// (1 − v_l) ⊙ [ch] — one pass over every sample per candidate split and
// side.  indic is one client's indicator vectors, by feature then split.
func dotStats(pk *paillier.PublicKey, indic [][][]*big.Int, channels [][][]*paillier.Ciphertext) (lefts, rights []*paillier.Ciphertext, err error) {
	for _, chs := range channels {
		for j := range indic {
			for _, vl := range indic[j] {
				for _, ch := range chs {
					l, err := pk.Dot(vl, ch)
					if err != nil {
						return nil, nil, err
					}
					r, err := pk.Dot(complement(vl), ch)
					if err != nil {
						return nil, nil, err
					}
					lefts, rights = append(lefts, l), append(rights, r)
				}
			}
		}
	}
	return lefts, rights, nil
}

// splitTestParty builds the local half of a (non-super) Party — key,
// partition, split structures — without a session: bucketStats touches
// nothing else.
func splitTestParty(t *testing.T, pk *paillier.PublicKey, X [][]float64, maxSplits, workers int) *Party {
	t.Helper()
	cfg := testConfig()
	cfg.Tree.MaxSplits = maxSplits
	cfg.Workers = workers
	features := make([]int, len(X[0]))
	for j := range features {
		features[j] = j
	}
	p := &Party{ID: 1, pk: pk, cfg: cfg, part: &dataset.Partition{Client: 1, Features: features, N: len(X), X: X}}
	if err := p.prepareSplits(); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(p.cands))
	for j := range counts {
		counts[j] = len(p.cands[j])
	}
	p.splitCounts = [][]int{nil, counts}
	return p
}

// splitTestRows draws n rows over four column shapes: continuous, a handful
// of duplicated values, constant (no candidate split at all), and binary.
func splitTestRows(rng *mrand.Rand, n int) [][]float64 {
	X := make([][]float64, n)
	for t := range X {
		X[t] = []float64{rng.NormFloat64(), float64(rng.Intn(5)), 3.25, float64(rng.Intn(2))}
	}
	return X
}

// splitTestChannels encrypts, per node, a random 0/1 mask vector followed by
// extra channels of random signed values.
func splitTestChannels(t *testing.T, rng *mrand.Rand, pk *paillier.PublicKey, nodes, extra, n int) [][][]*paillier.Ciphertext {
	t.Helper()
	out := make([][][]*paillier.Ciphertext, nodes)
	for i := range out {
		for c := 0; c <= extra; c++ {
			vals := make([]*big.Int, n)
			for s := range vals {
				if c == 0 {
					vals[s] = big.NewInt(int64(rng.Intn(2)))
				} else {
					vals[s] = big.NewInt(rng.Int63n(1<<20) - 1<<19)
				}
			}
			ch, err := pk.EncryptVec(rand.Reader, vals, 1)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], ch)
		}
	}
	return out
}

func assertSameCiphertexts(t *testing.T, got, want []*paillier.Ciphertext) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("bucket path produced %d statistics, the dot products %d", len(got), len(want))
	}
	for i := range want {
		if got[i].C.Cmp(want[i].C) != 0 {
			t.Fatalf("statistic %d differs from its dot product", i)
		}
	}
}

// TestBucketStatsEqualDots: before rerandomization the bucket path's
// statistics are, integer for integer and position for position, the left
// indicator dot products they replaced — over duplicate values, a constant
// column, b ∈ {1, 3, 8}, 1–3 channels, 1–4 frontier nodes, and again after
// rows are appended through the Update path's appendData.
func TestBucketStatsEqualDots(t *testing.T) {
	pk, _, _, err := paillier.KeyGen(rand.Reader, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(19))
	for _, maxSplits := range []int{1, 3, 8} {
		n := 20 + rng.Intn(30)
		p := splitTestParty(t, pk, splitTestRows(rng, n), maxSplits, 1+rng.Intn(3))
		if len(p.cands[2]) != 0 {
			t.Fatalf("constant column got %d candidate splits", len(p.cands[2]))
		}
		nodes, extra := 1+rng.Intn(4), rng.Intn(3)
		channels := splitTestChannels(t, rng, pk, nodes, extra, n)
		got, err := p.bucketStats(channels)
		if err != nil {
			t.Fatal(err)
		}
		lefts, _, err := dotStats(pk, p.indic, channels)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCiphertexts(t, got, lefts)
		if want := nodes * p.clientSplits(p.ID) * (1 + extra); len(got) != want {
			t.Fatalf("b=%d: %d statistics, want %d", maxSplits, len(got), want)
		}

		// Incremental: the appended rows land in the frozen grid's buckets.
		extraRows := splitTestRows(rng, 7)
		extraRows[0][0], extraRows[1][0] = 1e9, -1e9 // beyond every threshold, below all
		np := &dataset.Partition{Client: p.ID, Features: p.part.Features, N: len(extraRows), X: extraRows}
		if err := p.checkAppend(np); err != nil {
			t.Fatal(err)
		}
		p.appendData(np)
		channels = splitTestChannels(t, rng, pk, nodes, extra, p.part.N)
		if got, err = p.bucketStats(channels); err != nil {
			t.Fatal(err)
		}
		if lefts, _, err = dotStats(pk, p.indic, channels); err != nil {
			t.Fatal(err)
		}
		assertSameCiphertexts(t, got, lefts)
	}
}

// TestDerivedStatisticsEqualDots: the arrays expandStats hands computeGains —
// C totals per node and [n_l, n_r, ch1_l, ch1_r, …] per split, of which only
// the left sides of the sent channels were ever encrypted — hold, entry for
// entry, what the Eqn-7 protocol would have converted: the jointly decrypted
// v_l ⊙ [γ_k] and (1 − v_l) ⊙ [γ_k] of all C channels, every client's splits
// in canonical order.  The C-channel γ and the right-side indicator exist only
// here.  The selection step is held to the same standard: a chosen winner's
// children, given their totals by childTotals from those arrays — by public
// index and by a one-hot ⟨λ⟩ over the winner's feature — open to the jointly
// decrypted foldAdd([α_child]) and β_k·[α_child] (foldAdd([γ_k,child]) in
// encrypted-label mode) of the mask vectors the children no longer need.  A
// bootstrapped root makes α hold counts above one; the malicious row runs the
// proven kernels and authenticated shares.
func TestDerivedStatisticsEqualDots(t *testing.T) {
	const n = 24
	cls2 := smallClassification(n)
	cls4 := dataset.SyntheticClassification(n, 6, 4, 3.0, 5)
	reg := dataset.SyntheticRegression(n, 6, 0.2, 9)
	for _, tc := range []struct {
		name      string
		ds        *dataset.Dataset
		encLabels bool // encrypted-label mode: the node carries [y], [y²]
		bootstrap bool
		set       func(*Config)
	}{
		{name: "binary", ds: cls2},
		{name: "four classes", ds: cls4},
		{name: "regression", ds: reg},
		{name: "encrypted labels", ds: reg, encLabels: true},
		{name: "bootstrapped root", ds: cls4, bootstrap: true},
		{name: "authenticated shares", ds: dataset.SyntheticClassification(12, 3, 2, 3.0, 3),
			set: func(c *Config) { c.Malicious, c.Tree.MaxSplits = true, 2 }},
	} {
		cfg := testConfig()
		if tc.set != nil {
			tc.set(&cfg)
		}
		parts, err := dataset.VerticalPartition(tc.ds, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var counts []int64
		if tc.bootstrap {
			counts = bootstrapCounts(tc.ds.N(), 1, 11)
		}
		err = s.Each(func(p *Party) error {
			if p.audit != nil {
				if err := p.audit.commitTraining(p.labelVectors()); err != nil {
					return err
				}
			}
			alpha := p.rootMask(p.part.N, counts)
			// The label channels in the clear, C of them; the super client's
			// labels are the dataset's.
			super := s.Party(p.Super)
			var betas [][]*big.Int
			if C := tc.ds.Classes; C > 0 {
				betas = make([][]*big.Int, C)
				for k := range betas {
					betas[k] = make([]*big.Int, len(alpha))
					for r := range betas[k] {
						betas[k][r] = big.NewInt(boolToInt(int(super.part.Y[r]) == k))
					}
				}
			} else {
				betas = [][]*big.Int{make([]*big.Int, len(alpha)), make([]*big.Int, len(alpha))}
				for r := range alpha {
					y := p.cod.Encode(super.part.Y[r])
					betas[0][r], betas[1][r] = y, new(big.Int).Mul(y, y)
				}
			}
			nd := nodeData{alpha: alpha}
			if tc.encLabels {
				nd.gch = make([][]*paillier.Ciphertext, 2)
				for k := range nd.gch {
					var err error
					if p.ID == p.Super {
						if nd.gch[k], err = p.encryptVec(betas[k]); err == nil {
							err = p.broadcastCtsChunked(nd.gch[k])
						}
					} else {
						nd.gch[k], err = p.recvCtsChunked(p.Super, len(alpha))
					}
					if err != nil {
						return err
					}
				}
			}

			// What trainLevel does between the pruning rounds and the gains.
			nodes := []frontierNode{{nd: nd}}
			if err := p.nodeTotals(nodes, 0); err != nil {
				return err
			}
			gchs, err := p.computeGammasLevel(nodes, nil)
			if err != nil {
				return err
			}
			if want := p.sentChannels(nd); len(gchs[0]) != want {
				return fmt.Errorf("%d channels sent, want %d", len(gchs[0]), want)
			}
			statCts, err := p.computeSplitStatsLevel(nodes, gchs)
			if err != nil {
				return err
			}
			C, E := p.channels(nd), len(gchs[0])
			totals := nodes[0].nd.tot[1 : 1+C]
			stats, err := p.convertSplitStats([][]mpc.Share{nodes[0].nd.tot}, statCts, C, E)
			if err != nil {
				return err
			}

			// The winner: split sw of the last client's first feature with two
			// or more, as a public index and as ⟨λ⟩ over the feature.
			c, j := p.M-1, 0
			for p.splitCounts[c][j] < 2 {
				j++
			}
			const sw = 0
			seg0 := p.clientBase(c) + p.flatIndexFor(c, j, 0)
			diffs := make([]mpc.Share, p.splitCounts[c][j])
			for t := range diffs {
				diffs[t] = p.eng.ConstInt64(int64(sw - t))
			}
			lam := p.eng.EQZVec(diffs, uint(bitsFor(len(diffs)))+3)
			outs := []splitOutcome{{win: seg0 + sw}, {win: seg0, lam: lam}}
			p.childTotals(outs, [][]mpc.Share{stats, stats})
			selected := append(append([]mpc.Share(nil), totals...), stats...)
			for _, o := range outs {
				selected = append(append(selected, o.left.tot...), o.right.tot...)
			}
			opened := p.eng.OpenVec(selected)
			if p.cfg.Malicious {
				if err := p.eng.CheckMACs(); err != nil {
					return err
				}
			}
			// The α path: each child's own vectors, and the totals Algorithm 3
			// converted from them.
			owner := s.Party(c)
			child := func(vec []*paillier.Ciphertext, split int, right bool) []*paillier.Ciphertext {
				left := p.pk.ScalarMulVec(vec, owner.indic[j][split], 1)
				if right {
					return p.pk.SubVec(vec, left, 1)
				}
				return left
			}
			var childOracle []*paillier.Ciphertext
			for _, right := range []bool{false, true} {
				a := child(alpha, sw, right)
				childOracle = append(childOracle, p.foldAdd(a))
				for k := 0; k < C; k++ {
					if tc.encLabels {
						childOracle = append(childOracle, p.foldAdd(child(nd.gch[k], sw, right)))
						continue
					}
					dot, err := p.pk.Dot(betas[k], a)
					if err != nil {
						return err
					}
					childOracle = append(childOracle, dot)
				}
			}

			// The Eqn-7 way: all C channels [γ_k] = β_k ⊗ [α] (or the node's
			// own encrypted channels), both sides of every client's splits.
			chs := [][]*paillier.Ciphertext{alpha}
			for k := 0; k < C; k++ {
				if tc.encLabels {
					chs = append(chs, nd.gch[k])
				} else {
					chs = append(chs, p.pk.ScalarMulVec(alpha, betas[k], 1))
				}
			}
			var oracle []*paillier.Ciphertext
			for _, ch := range chs[1:] {
				oracle = append(oracle, p.foldAdd(ch))
			}
			for c := 0; c < p.M; c++ {
				lefts, rights, err := dotStats(p.pk, s.Party(c).indic, [][][]*paillier.Ciphertext{chs})
				if err != nil {
					return err
				}
				for i := range lefts {
					oracle = append(oracle, lefts[i], rights[i])
				}
			}
			want, err := p.jointDecryptAll(append(oracle, childOracle...))
			if err != nil {
				return err
			}
			derived := C + p.totalSplits()*(2+2*C)
			if len(opened) != derived+4*(1+C) || len(want) != derived+2*(1+C) {
				return fmt.Errorf("%d derived values, %d Eqn-7 values, want %d", len(opened), len(want), derived)
			}
			for i := range want[:derived] {
				if g, w := mpc.Signed(opened[i]), p.pk.DecodeSigned(want[i]); g.Cmp(w) != 0 {
					return fmt.Errorf("entry %d: derived %v, Eqn 7 gives %v", i, g, w)
				}
			}
			for i, v := range opened[derived:] {
				if g, w := mpc.Signed(v), p.pk.DecodeSigned(want[derived+i%(2+2*C)]); g.Cmp(w) != 0 {
					return fmt.Errorf("child total %d (selected by %s): %v, the α path gives %v",
						i%(2+2*C), []string{"public index", "λ"}[i/(2+2*C)], g, w)
				}
			}

			// The sibling leg: the children of two winners (splits 0 and 1 of
			// that feature), one frontier [L0, R0, L1, R1].  Each converts its
			// own statistics from its mask vector, as a directly trained
			// splitter does; deriveStats then rebuilds each right child's as
			// the parent's minus its left sibling's.  Two pairs in one
			// frontier, so a right child paired with the other winner's left
			// child, or parent and sibling swapped, gives other values.
			pairs := []splitOutcome{{win: seg0}, {win: seg0 + 1}}
			p.childTotals(pairs, [][]mpc.Share{stats, stats})
			var kids []frontierNode
			for w, o := range pairs {
				for _, right := range []bool{false, true} {
					kid := frontierNode{nd: nodeData{alpha: child(alpha, w, right), tot: o.left.tot}, parent: w, left: !right}
					if right {
						kid.nd.tot, kid.pstats = o.right.tot, stats
					}
					for k := range nd.gch {
						kid.nd.gch = append(kid.nd.gch, child(nd.gch[k], w, right))
					}
					kids = append(kids, kid)
				}
			}
			kgchs, err := p.computeGammasLevel(kids, nil)
			if err != nil {
				return err
			}
			kstatCts, err := p.computeSplitStatsLevel(kids, kgchs)
			if err != nil {
				return err
			}
			own, err := p.convertSplitStats([][]mpc.Share{kids[0].nd.tot, kids[1].nd.tot, kids[2].nd.tot, kids[3].nd.tot}, kstatCts, C, E)
			if err != nil {
				return err
			}
			per := len(stats)
			kstats := [][]mpc.Share{own[:per], nil, own[2*per : 3*per], nil}
			p.deriveStats(kids, []int{0, 1, 2, 3}, kstats)
			sib := p.eng.OpenVec(append(append(append(append([]mpc.Share(nil),
				kstats[1]...), kstats[3]...), own[per:2*per]...), own[3*per:]...))
			if p.cfg.Malicious {
				if err := p.eng.CheckMACs(); err != nil {
					return err
				}
			}
			for i := 0; i < 2*per; i++ {
				if g, w := mpc.Signed(sib[i]), mpc.Signed(sib[2*per+i]); g.Cmp(w) != 0 {
					return fmt.Errorf("right child %d, entry %d: parent − left gives %v, its own statistics %v", i/per, i%per, g, w)
				}
			}
			return nil
		})
		s.Close()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestPrepareSplitsRefusesUnorderedThresholds: the bucket derivation needs
// ascending thresholds, and prepareSplits refuses a grid that is not (a NaN
// feature value is what produces one).
func TestPrepareSplitsRefusesUnorderedThresholds(t *testing.T) {
	X := [][]float64{{1}, {math.NaN()}, {2}, {3}}
	p := &Party{cfg: testConfig(), part: &dataset.Partition{Features: []int{0}, N: len(X), X: X}}
	err := p.prepareSplits()
	if err == nil || !strings.Contains(err.Error(), "do not ascend") {
		t.Fatalf("prepareSplits on a NaN column: %v, want a thresholds-do-not-ascend error", err)
	}
}

// TestHostileCiphertextsRefused: a raw endpoint plays a peer that sends what
// no honest party can — 0, N, a multiple of N (none has an inverse: Neg used
// to panic on a worker goroutine and kill the process), N² and 2^4096
// (silently reduced before).  Every receive helper and the share combiner
// now answer with ErrBadCiphertext naming the peer.
func TestHostileCiphertextsRefused(t *testing.T) {
	pk, _, keys, err := paillier.KeyGen(rand.Reader, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	eps := transport.NewMemoryNetwork(2, 64)
	p := &Party{ID: 0, M: 2, ep: eps[0], pk: pk, key: keys[0], cfg: testConfig()}
	good, err := pk.Encrypt(rand.Reader, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	hostile := map[string]*big.Int{
		"zero":   new(big.Int),
		"N":      pk.N,
		"3N":     new(big.Int).Mul(pk.N, big.NewInt(3)),
		"N2":     pk.N2,
		"2^4096": new(big.Int).Lsh(big.NewInt(1), 4096),
	}
	receivers := map[string]func() error{
		"recvCtsChunked": func() error { _, err := p.recvCtsChunked(1, 2); return err },
		"decryption shares": func() error {
			_, err := p.combineWithPeers(keys[0].PartialDecryptVec(pk, []*paillier.Ciphertext{good, good}, 1))
			return err
		},
	}
	for name, v := range hostile {
		for rname, recv := range receivers {
			if rname == "decryption shares" && v.Sign() > 0 && v.Cmp(pk.N2) < 0 {
				continue // shares are range-checked only
			}
			if err := transport.SendInts(eps[1], 0, []*big.Int{good.C, v}); err != nil {
				t.Fatal(err)
			}
			err := recv()
			var bad *paillier.ErrBadCiphertext
			if !errors.As(err, &bad) || bad.Index != 1 {
				t.Fatalf("%s via %s: got %v, want ErrBadCiphertext at index 1", name, rname, err)
			}
			if !strings.Contains(err.Error(), "from client 1") {
				t.Fatalf("%s via %s: error %q does not name the peer", name, rname, err)
			}
		}
	}
	// What the check protects: the same vector, unchecked, reaches SubVec.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Neg of a multiple of N did not panic: the check guards nothing")
			}
		}()
		pk.SubVec([]*paillier.Ciphertext{good}, []*paillier.Ciphertext{{C: pk.N}}, 1)
	}()
}
