package mpc

import (
	"fmt"
	"math/big"
	"reflect"
	"sync"
	"testing"
)

// TestCheckpointResumesBufferedMasks checkpoints while dealt statistical
// masks sit in the engines' queues, then compares a fault-free continuation
// with one resumed on a fresh mesh from the snapshots.  RandUniformFP opens
// to the masks themselves, so a queue missing from EngineState — the resumed
// engines would draw fresh masks where the fault-free ones use buffered ones
// — shows as different values, which no model-level comparison can see.
func TestCheckpointResumesBufferedMasks(t *testing.T) {
	const n = 2
	cfg := DefaultConfig()

	// run brings up a mesh (resumed from dealer state rs and engine states
	// sts when given), runs body on every party and collects what it returns.
	run := func(dcfg DealerConfig, sts []*EngineState, body func(e *Engine) ([]*big.Int, error)) [][]*big.Int {
		t.Helper()
		eps := NewTestNetwork(n)
		defer func() {
			for _, ep := range eps {
				ep.Close()
			}
		}()
		dealerDone := make(chan error, 1)
		go func() { dealerDone <- RunDealer(eps[n], dcfg) }()
		out := make([][]*big.Int, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						errs[p] = fmt.Errorf("party %d panic: %v", p, r)
					}
				}()
				e, err := NewEngine(eps[p], cfg)
				if err == nil && sts != nil {
					err = e.Restore(sts[p])
				}
				if err == nil {
					out[p], err = body(e)
				}
				errs[p] = err
				if p == 0 {
					e.Shutdown()
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
		return out
	}

	// The continuation drains the buffered masks, forces a top-up past them,
	// and runs a ladder that consumes bits and masks of another width.
	continuation := func(e *Engine) ([]*big.Int, error) {
		vals := e.OpenVec(e.RandUniformFP(cfg.BatchSize + 40))
		xs := []Share{e.ConstInt64(-3), e.ConstInt64(0), e.ConstInt64(9)}
		vals = append(vals, e.OpenVec(e.LTZVec(xs, 24))...)
		return append(vals, e.OpenVec(e.RandUniformFP(3))...), nil
	}

	store := &DealerCheckpointStore{}
	sts := make([]*EngineState, n)
	want := run(DealerConfig{Seed: 9, Store: store}, nil, func(e *Engine) ([]*big.Int, error) {
		e.RandUniformFP(5) // one batch dealt, five masks used
		if got := len(e.masks[cfg.F]); got == 0 {
			return nil, fmt.Errorf("no masks buffered at the checkpoint")
		}
		if err := e.DealerCheckpoint(); err != nil {
			return nil, err
		}
		st, err := e.Snapshot()
		if err != nil {
			return nil, err
		}
		sts[e.PartyID()] = st
		return continuation(e)
	})

	got := run(DealerConfig{Seed: 9, Resume: store.State()}, sts, continuation)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed continuation differs from the fault-free one:\n got  %v\n want %v", got[0][:8], want[0][:8])
	}
	for _, v := range want[0][:cfg.BatchSize] {
		if v.BitLen() > int(cfg.F) {
			t.Fatalf("mask %v wider than %d bits", v, cfg.F)
		}
	}
}
