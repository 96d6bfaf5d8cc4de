package mpc

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/transport"
)

// TestRetiredLaneLeavesNoStaleMaterial: a fork's takes leave a prefetch on
// the wire, the fork retires, and a fresh fork on the same tag — the leaf
// lane reuses slot 1 at every level — takes a different kind of material.
// Had the first fork's response been left unread, the second would parse it
// as its own bounded triples: a count mismatch, or full-field masks whose
// packed differences open wrong.  The products must be right at every party.
func TestRetiredLaneLeavesNoStaleMaterial(t *testing.T) {
	const n, tag, count = 3, 1, 300
	raw := transport.NewMemoryNetwork(n+1, 4096)
	eps := make([]*transport.TagMux, n+1)
	for i := range raw {
		eps[i] = transport.NewTagMux(raw[i])
	}
	dealerDone := make(chan error, 1)
	go func() { dealerDone <- RunDealer(eps[n], DealerConfig{Seed: 5}) }()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[p] = fmt.Errorf("party %d panic: %v", p, r)
					for _, ep := range raw {
						ep.Close()
					}
				}
			}()
			e, err := NewEngine(eps[p], DefaultConfig())
			if err != nil {
				errs[p] = err
				return
			}
			defer e.Shutdown()
			xs, ys := make([]Share, count), make([]Share, count)
			for i := range xs {
				xs[i], ys[i] = e.ConstInt64(int64(i%200)), e.ConstInt64(int64(i%7))
			}

			first := e.Fork(eps[p].Lane(tag), tag)
			first.MulVec(xs, ys) // a batch read, a top-up requested
			if len(first.fetches) == 0 {
				errs[p] = fmt.Errorf("party %d: no prefetch in flight before the retire", p)
				return
			}
			first.Retire()
			if len(first.fetches) != 0 {
				errs[p] = fmt.Errorf("party %d: %d responses unread after the retire", p, len(first.fetches))
				return
			}
			e.MergeStats(first)

			second := e.Fork(eps[p].Lane(tag), tag)
			got := second.OpenVec(second.MulVecBounded(xs, ys, 8, 3))
			for i, v := range got {
				if want := big.NewInt(int64(i%200) * int64(i%7)); v.Cmp(want) != 0 {
					errs[p] = fmt.Errorf("party %d: product %d opened %v, want %v", p, i, v, want)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-dealerDone; err != nil {
		t.Fatalf("dealer: %v", err)
	}
}
