package core

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// TestShortUpdateFrameRefused has the owner of a node's best split (client 1)
// send the honest client 0 a model-update message that is one value short.
// The per-node update bodies indexed what they received (xs[0], cts[n]) and
// panicked; the update kernels count every receive and return an
// ErrMessageLength naming the peer.
func TestShortUpdateFrameRefused(t *testing.T) {
	ds := dataset.SyntheticClassification(16, 4, 2, 3.0, 3)
	for _, tc := range []struct {
		name      string
		set       func(*Config)
		opened    []int64 // the winner's public identifier columns
		hostile   func(p *Party, nd nodeData) error
		got, want int
	}{
		{
			name:   "basic malicious: empty threshold announcement",
			set:    func(c *Config) { c.Malicious = true },
			opened: []int64{1, 0, 0},
			hostile: func(p *Party, _ nodeData) error {
				return transport.SendInts(p.ep, 0, nil)
			},
			got: 0, want: 1,
		},
		{
			name:   "enhanced: [v] without [τ]",
			set:    func(c *Config) { c.Protocol = Enhanced },
			opened: []int64{1, 0},
			hostile: func(p *Party, nd nodeData) error {
				// Honest up to the private split selection ...
				nPrime := p.splitCounts[1][0]
				diffs := make([]mpc.Share, nPrime)
				for s := range diffs {
					diffs[s] = p.eng.ConstInt64(int64(-s))
				}
				lam := p.eng.EQZVec(diffs, uint(bitsFor(nPrime))+3)
				if _, err := p.shareToEnc(lam, 4, 1); err != nil {
					return err
				}
				// ... then n ciphertexts where n+1 are due.
				return p.sendCtsChunked(0, nd.alpha)
			},
			got: ds.N(), want: ds.N() + 1,
		},
	} {
		cfg := testConfig()
		tc.set(&cfg)
		parts, err := dataset.VerticalPartition(ds, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Each(func(p *Party) error {
			nd := nodeData{alpha: p.rootMask(p.part.N, nil)}
			if p.ID == 1 {
				return tc.hostile(p, nd)
			}
			opened := make([]*big.Int, len(tc.opened))
			for i, v := range tc.opened {
				opened[i] = big.NewInt(v)
			}
			zero := p.eng.ConstInt64(0) // the secret s* of the enhanced update
			best := mpc.ArgmaxResult{IDs: []mpc.Share{zero, zero, zero, zero}}
			_, err := p.updateLevelBatched([]nodeData{nd}, []mpc.ArgmaxResult{best}, [][]*big.Int{opened}, 1)
			return err
		})
		s.Close()
		var short *ErrMessageLength
		if !errors.As(err, &short) {
			t.Fatalf("%s: got %v, want an ErrMessageLength", tc.name, err)
		}
		if short.Client != 0 || short.From != 1 || short.Got != tc.got || short.Want != tc.want {
			t.Errorf("%s: got %+v, want client 0 refusing %d of %d values from client 1", tc.name, *short, tc.got, tc.want)
		}
	}
}

// shortFrameEndpoint is a client whose nth HE-layer message to one peer
// arrives one value short — or, with grow set, as that many copies of itself
// back to back, the length an older layout of the step would have had;
// everything else it sends is honest.
type shortFrameEndpoint struct {
	transport.Endpoint
	to, nth, seen, grow int
	honest              int // the length of the frame it replaced; -1 until it replaces one
}

func (e *shortFrameEndpoint) Send(to int, b []byte) error {
	if to == e.to {
		if e.seen == e.nth {
			xs, _, err := transport.UnmarshalInts(b)
			if err != nil || len(xs) == 0 {
				return err
			}
			e.honest = len(xs)
			wrong := xs[:len(xs)-1]
			if e.grow > 0 {
				wrong = nil
				for i := 0; i < e.grow; i++ {
					wrong = append(wrong, xs...)
				}
			}
			b = transport.MarshalInts(wrong)
		}
		e.seen++
	}
	return e.Endpoint.Send(to, b)
}

// TestShortTrainingFrameRefused has one client send the other one of the
// vectors of a training run at the wrong length: the super client the vectors
// that open it — the encrypted GBDT labels, the GBDT base prediction — one
// value short, and either side a local-computation message at the length it
// had while right sides and the last class were still sent (C·n masked label
// ciphertexts, the first ciphertext frame a DT receives; 2 + 2C statistics
// per split).  The GBDT frames used to be taken at whatever length they
// arrived and indexed later (xs[0]): a panic in the honest client; so were a
// malicious-mode commitment and the partial sums of a logistic-regression
// mini-batch (theirs[bi]).  Every one is a counted receive.
//
// A row names its frame by send ordinal, so each also pins the honest length
// of the frame it replaced and the stage the honest client's error names
// (none where the receive is not wrapped): a protocol change that adds or
// drops an earlier message moves the ordinal onto another frame and fails
// here instead of forging that one.
func TestShortTrainingFrameRefused(t *testing.T) {
	const n = 16
	const s1 = 2 * 4 // client 1's candidate splits: two continuous features × testConfig's MaxSplits
	cls := dataset.SyntheticClassification(n, 4, 2, 3.0, 3)
	reg := dataset.SyntheticRegression(n, 4, 0.2, 9)
	dt := func(p *Party) error { _, err := p.TrainDT(); return err }
	gbdt := func(p *Party) error { _, err := p.TrainGBDT(); return err }
	lr := func(p *Party) error {
		_, err := p.TrainLR(LRConfig{Epochs: 1, BatchSize: n / 2, LearningRate: 1})
		return err
	}
	for _, tc := range []struct {
		name      string
		ds        *dataset.Dataset
		malicious bool
		from      int // the client whose message is wrong; the other one is honest
		nth, grow int // which of its messages to the honest client, and how (shortFrameEndpoint)
		train     func(p *Party) error
		honest    int    // the length of the frame the ordinal lands on
		stage     string // the training stage the honest client's error names
		got, want int
	}{
		{"gbdt regression labels", reg, false, 0, 0, 0, gbdt, n, "", n - 1, n},
		{"gbdt regression base prediction", reg, false, 0, 1, 0, gbdt, 1, "", 0, 1},
		{"gbdt classification residuals", cls, false, 0, 0, 0, gbdt, n, "", n - 1, n},
		// Binary labels: C = 2 channels, E = 1 of them sent.
		{"masked labels of all C classes", cls, false, 0, 1, 2, dt, n, "level 0 gamma computation", 2 * n, n},
		{"two-sided statistics of all C classes", cls, false, 1, 2, 3, dt, s1 * (1 + 1), "level 0 split statistics", s1 * (2 + 2*2), s1 * (1 + 1)},
		// A committed vector is n ciphertexts and three POPK values for each;
		// any multiple of 4 used to pass for one.
		{"malicious commit phase, a split indicator", cls, true, 1, 0, 0, dt, 4 * n, "commitment phase", 4*n - 1, 4 * n},
		{"logistic regression, a mini-batch of partial sums", cls, false, 1, 0, 0, lr, n / 2, "", n/2 - 1, n / 2},
	} {
		cfg := testConfig()
		cfg.NumTrees = 1
		cfg.Tree.MaxDepth = 1
		cfg.Malicious = tc.malicious
		parts, err := dataset.VerticalPartition(tc.ds, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Party(1).clientSplits(1); got != s1 {
			t.Fatalf("client 1 has %d candidate splits, the table assumes %d", got, s1)
		}
		hostile, to := s.Party(tc.from), 1-tc.from
		forger := &shortFrameEndpoint{Endpoint: hostile.ep, to: to, nth: tc.nth, grow: tc.grow, honest: -1}
		hostile.ep = forger
		var honest error // the honest client's outcome; Each reports the first client's
		_ = s.Each(func(p *Party) (err error) {
			if p.ID == to {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panicked: %v", r)
					}
					honest = err
				}()
			}
			return tc.train(p)
		})
		s.Close()
		if forger.honest != tc.honest {
			t.Errorf("%s: message %d from client %d replaced a frame of %d values, want %d (-1: no such message)", tc.name, tc.nth, tc.from, forger.honest, tc.honest)
			continue
		}
		var short *ErrMessageLength
		if !errors.As(honest, &short) {
			t.Errorf("%s: client %d got %v, want an ErrMessageLength", tc.name, to, honest)
			continue
		}
		if short.Client != to || short.From != tc.from || short.Got != tc.got || short.Want != tc.want {
			t.Errorf("%s: got %+v, want client %d refusing %d of %d values from client %d", tc.name, *short, to, tc.got, tc.want, tc.from)
		}
		if stage := strings.TrimSuffix(honest.Error(), short.Error()); (stage == "") != (tc.stage == "") || !strings.Contains(stage, tc.stage) {
			t.Errorf("%s: refused with context %q, want the %q stage", tc.name, stage, tc.stage)
		}
	}
}

// TestShortPredictFrameRefused covers the receives of prediction that
// took a peer's message at whatever length it arrived: the Algorithm-4 [η]
// matrix (one value short, it reached scalarMulRerandVec's length-mismatch
// panic), the super client's packed release, the HideFeature owner's values
// and a HideClient partial (empty, each was indexed as cts[0]).  Client 1
// plays the peer on a raw endpoint; client 0 — client 1 for the release,
// which only the super client sends — runs the real code and refuses by
// count.
func TestShortPredictFrameRefused(t *testing.T) {
	// One split at client 0, two leaves; X is the honest client's batch of one.
	tree := &Model{Leaves: 2, Nodes: []Node{
		{Owner: 0, Feature: 0, Threshold: 0.5, Left: 1, Right: 2},
		{Leaf: true, Label: 0, LeafPos: 0},
		{Leaf: true, Label: 1, LeafPos: 1},
	}}
	X := [][]float64{{0.25, 0.75}}
	for _, tc := range []struct {
		name      string
		honest    int
		send      func(p *Party) ([]*paillier.Ciphertext, error) // what the peer sends the honest client
		run       func(p *Party) error
		got, want int
	}{
		{
			name: "eta vector", honest: 0,
			send: func(p *Party) ([]*paillier.Ciphertext, error) { return p.encryptVec([]*big.Int{big.NewInt(1)}) },
			run:  func(p *Party) error { _, err := p.predictBasicEncBatchTrees([]*Model{tree}, X); return err },
			got:  1, want: 2,
		},
		{
			name: "released predictions", honest: 1,
			send: func(p *Party) ([]*paillier.Ciphertext, error) { return nil, nil },
			run:  func(p *Party) error { _, err := p.PredictBatch(tree, X); return err },
			got:  0, want: 1,
		},
		{
			name: "hidden feature, owner's value", honest: 0,
			send: func(p *Party) ([]*paillier.Ciphertext, error) { return nil, nil },
			run: func(p *Party) error {
				_, err := p.obliviousFeatureValueBatch(&Node{Owner: 1, Feature: -1, EncFeatSel: make([][]*paillier.Ciphertext, 2)}, X)
				return err
			},
			got: 0, want: 1,
		},
		{
			name: "hidden client, a peer's partial", honest: 0,
			send: func(p *Party) ([]*paillier.Ciphertext, error) { return nil, nil },
			run: func(p *Party) error {
				phi, err := p.encryptVec([]*big.Int{big.NewInt(1), big.NewInt(0)})
				if err != nil {
					return err
				}
				_, err = p.obliviousFeatureValueBatch(&Node{Owner: -1, Feature: -1, EncFeatSel: [][]*paillier.Ciphertext{phi, nil}}, X)
				return err
			},
			got: 0, want: 1,
		},
	} {
		parts, err := dataset.VerticalPartition(smallClassification(8), 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		var honest error
		_ = s.Each(func(p *Party) (err error) {
			if p.ID != tc.honest {
				cts, err := tc.send(p)
				if err != nil {
					return err
				}
				return p.sendCts(tc.honest, cts)
			}
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panicked: %v", r)
				}
				honest = err
			}()
			return tc.run(p)
		})
		s.Close()
		var short *ErrMessageLength
		if !errors.As(honest, &short) {
			t.Errorf("%s: client %d got %v, want an ErrMessageLength", tc.name, tc.honest, honest)
			continue
		}
		if short.Client != tc.honest || short.From != 1-tc.honest || short.Got != tc.got || short.Want != tc.want {
			t.Errorf("%s: got %+v, want client %d refusing %d of %d values from client %d", tc.name, *short, tc.honest, tc.got, tc.want, 1-tc.honest)
		}
	}
}

// TestHostileSplitCountsRefused: a peer's split-count announcement sizes the
// identifier table every client builds (one row per announced split), so a
// count above Tree.MaxSplits or an absurd feature count was an allocation of
// the sender's choosing.
func TestHostileSplitCountsRefused(t *testing.T) {
	cfg := testConfig()
	for name, counts := range map[string][]*big.Int{
		"count above MaxSplits": {big.NewInt(2), big.NewInt(2_000_000)},
		"count beyond int64":    {new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(2)},
		"no features":           {},
		"too many features":     make([]*big.Int, maxClientFeatures+1),
		"honest":                {big.NewInt(0), big.NewInt(int64(cfg.Tree.MaxSplits))},
	} {
		for i, c := range counts {
			if c == nil {
				counts[i] = big.NewInt(1)
			}
		}
		parts, err := dataset.VerticalPartition(smallClassification(16), 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Each(func(p *Party) error {
			if p.ID == 1 {
				return transport.SendInts(p.ep, 0, counts)
			}
			return p.exchangeSplitCounts()
		})
		s.Close()
		if name == "honest" {
			if err != nil {
				t.Errorf("honest announcement refused: %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrBadSplitCounts) || !strings.Contains(err.Error(), "from client 1") {
			t.Errorf("%s: got %v, want ErrBadSplitCounts naming client 1", name, err)
		}
	}
}

// wrongValueEndpoint is a client whose nth[to]-th HE-layer message to peer
// `to` carries one wrong value: the last, plus one.  As a decryption share it
// is in range, so CheckShares passes it, and it combines to a total that has
// nothing to do with the plaintext (the last total of a batch fills the
// fewest slots, so chance puts it in range least often: below 2^-34 here).
type wrongValueEndpoint struct {
	transport.Endpoint
	nth, seen map[int]int
}

func (e *wrongValueEndpoint) Send(to int, b []byte) error {
	if nth, ok := e.nth[to]; ok {
		if e.seen[to] == nth {
			xs, _, err := transport.UnmarshalInts(b)
			if err != nil || len(xs) == 0 {
				return err
			}
			xs[len(xs)-1] = new(big.Int).Add(xs[len(xs)-1], big.NewInt(1))
			b = transport.MarshalInts(xs)
		}
		e.seen[to]++
	}
	return e.Endpoint.Send(to, b)
}

// TestWrongDecryptionShareRefused: client 2 sends one wrong decryption share
// of a packed ciphertext.  UnpackInts used to mask the combined total into
// slot values that look honest — wrong predictions out of the release step,
// wrong shares out of the Algorithm-2 conversion; both consumers now refuse
// the total with an ErrPackedRange that names the client holding it: every
// honest client of a release, the super client of a conversion.  A malicious
// session's PredictAll releases through the same packed step (and returns
// client 0's error).
func TestWrongDecryptionShareRefused(t *testing.T) {
	const B = 9
	tree := handTree(0, [3]float64{0, 0.5, -0.5}, [4]float64{1.5, -2, 3, -4.25})
	for _, tc := range []struct {
		name      string
		malicious bool
		nth       map[int]int                         // which of client 2's messages to each peer holds its shares
		run       func(p *Party, X [][]float64) error // nil: PredictAll
		refused   []int
	}{
		{
			name:    "released predictions",
			nth:     map[int]int{0: 0, 1: 1}, // client 1 is sent [η] first
			run:     func(p *Party, X [][]float64) error { _, err := p.PredictBatch(tree, X); return err },
			refused: []int{0, 1},
		},
		{
			name:      "released predictions, malicious PredictAll",
			malicious: true,
			nth:       map[int]int{0: 0, 1: 1},
			refused:   []int{0},
		},
		{
			name: "masked conversion",
			nth:  map[int]int{0: 1}, // after the packed masks
			run: func(p *Party, X [][]float64) error {
				var cts []*paillier.Ciphertext
				if p.ID == p.Super {
					vals := make([]*big.Int, B)
					for j := range vals {
						vals[j] = big.NewInt(int64(j - 4))
					}
					var err error
					if cts, err = p.encryptVec(vals); err != nil {
						return err
					}
				}
				_, err := p.encToShares(cts, B, p.w.value+2)
				return err
			},
			refused: []int{0},
		},
	} {
		parts, err := dataset.VerticalPartition(smallClassification(B), 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.Malicious = tc.malicious
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hostile := s.Party(2)
		hostile.ep = &wrongValueEndpoint{Endpoint: hostile.ep, nth: tc.nth, seen: map[int]int{}}
		errs := make([]error, 3)
		if tc.run == nil {
			_, errs[0] = PredictAll(s, tree, parts)
		} else {
			_ = s.Each(func(p *Party) error {
				errs[p.ID] = tc.run(p, parts[p.ID].X)
				return errs[p.ID]
			})
		}
		s.Close()
		for _, c := range tc.refused {
			var bad *paillier.ErrPackedRange
			if !errors.As(errs[c], &bad) || !strings.Contains(errs[c].Error(), fmt.Sprintf("client %d:", c)) {
				t.Errorf("%s: client %d got %v, want an ErrPackedRange naming it", tc.name, c, errs[c])
			}
		}
	}
}
