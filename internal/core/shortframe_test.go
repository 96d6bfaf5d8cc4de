package core

import (
	"errors"
	"math/big"
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
