package core

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mpc"
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
			name:   "enhanced per-node: [v] without [τ]",
			set:    func(c *Config) { c.Protocol, c.TrainMode = Enhanced, PerNode },
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
			alpha, err := p.initialAlpha(nil)
			if err != nil {
				return err
			}
			nd := nodeData{alpha: alpha}
			if p.ID == 1 {
				return tc.hostile(p, nd)
			}
			opened := make([]*big.Int, len(tc.opened))
			for i, v := range tc.opened {
				opened[i] = big.NewInt(v)
			}
			zero := p.eng.ConstInt64(0) // the secret s* of the enhanced update
			best := mpc.ArgmaxResult{IDs: []mpc.Share{zero, zero, zero, zero}}
			_, err = p.updateLevelBatched([]nodeData{nd}, []mpc.ArgmaxResult{best}, [][]*big.Int{opened})
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
// arrives one value short; everything else it sends is honest.
type shortFrameEndpoint struct {
	transport.Endpoint
	to, nth, seen int
}

func (e *shortFrameEndpoint) Send(to int, b []byte) error {
	if to == e.to {
		if e.seen == e.nth {
			xs, _, err := transport.UnmarshalInts(b)
			if err != nil || len(xs) == 0 {
				return err
			}
			b = transport.MarshalInts(xs[:len(xs)-1])
		}
		e.seen++
	}
	return e.Endpoint.Send(to, b)
}

// TestShortTrainingFrameRefused has the super client send client 1 one of the
// vectors that open a training run — the encrypted root mask, the encrypted
// GBDT labels, the GBDT base prediction — one value short.  Each used to be
// taken at whatever length it arrived and indexed later (alpha[t], xs[0]): a
// panic in the honest client.  They are counted receives now.
func TestShortTrainingFrameRefused(t *testing.T) {
	const n = 16
	cls := dataset.SyntheticClassification(n, 4, 2, 3.0, 3)
	reg := dataset.SyntheticRegression(n, 4, 0.2, 9)
	for _, tc := range []struct {
		name      string
		ds        *dataset.Dataset
		nth       int // which of the super client's messages is cut
		train     func(p *Party) error
		got, want int
	}{
		{"root mask vector", cls, 0, func(p *Party) error { _, err := p.TrainDT(); return err }, n - 1, n},
		{"gbdt regression labels", reg, 0, func(p *Party) error { _, err := p.TrainGBDT(); return err }, n - 1, n},
		{"gbdt regression base prediction", reg, 1, func(p *Party) error { _, err := p.TrainGBDT(); return err }, 0, 1},
		{"gbdt classification residuals", cls, 0, func(p *Party) error { _, err := p.TrainGBDT(); return err }, n - 1, n},
	} {
		cfg := testConfig()
		cfg.NumTrees = 1
		cfg.Tree.MaxDepth = 1
		parts, err := dataset.VerticalPartition(tc.ds, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		super := s.Party(0)
		super.ep = &shortFrameEndpoint{Endpoint: super.ep, to: 1, nth: tc.nth}
		var honest error // client 1's outcome; Each reports client 0's first
		_ = s.Each(func(p *Party) (err error) {
			if p.ID == 1 {
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
		var short *ErrMessageLength
		if !errors.As(honest, &short) {
			t.Errorf("%s: client 1 got %v, want an ErrMessageLength", tc.name, honest)
			continue
		}
		if short.Client != 1 || short.From != 0 || short.Got != tc.got || short.Want != tc.want {
			t.Errorf("%s: got %+v, want client 1 refusing %d of %d values from client 0", tc.name, *short, tc.got, tc.want)
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
