package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestSessionCloseIdempotent exercises the daemon shutdown path: Close
// must be safe under concurrent callers and repeated calls, phases must
// serialize with concurrent Each users, and a closed session must refuse
// further phases instead of panicking.
func TestSessionCloseIdempotent(t *testing.T) {
	ds := dataset.SyntheticClassification(8, 4, 2, 3.0, 3)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.KeyBits = 256
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent Each callers must interleave at phase granularity.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Each(func(p *Party) error {
				p.Stats.TreesTrained += 0
				return nil
			})
		}()
	}
	wg.Wait()

	// A stampede of concurrent closers: every call must return only after
	// the teardown has completed, and none may panic or double-close.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	s.Close() // and once more for good measure

	if err := s.Each(func(p *Party) error { return nil }); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Each on closed session returned %v, want ErrSessionClosed", err)
	}
}

// TestSessionCloseUnderPipelinedTraining is the close-under-pipeline race
// stress: Close fired at varying offsets into a pipelined training phase —
// with a speculative gamma pass and forked leaf lanes in flight — must
// drain the phase or surface a deterministic error (ErrSessionClosed on
// later phases), and must never panic a lane goroutine.  Runs in the
// nightly -race suite.
func TestSessionCloseUnderPipelinedTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("close-under-pipeline stress runs in the nightly -race suite")
	}
	ds := dataset.SyntheticClassification(16, 4, 2, 3.0, 3)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.KeyBits = 256
	cfg.Tree.MaxDepth = 3
	cfg.TCPLoopback = true // the transport that selects the pipelined driver
	cfg.Seed = 7
	for _, delay := range []time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond} {
		s, err := NewSession(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Cfg.pipelineActive() {
			t.Fatal("expected the pipelined driver to be active")
		}
		done := make(chan error, 1)
		go func() {
			done <- s.Each(func(p *Party) error {
				_, err := p.TrainDT()
				return err
			})
		}()
		time.Sleep(delay)
		s.Close() // must wait for the in-flight phase, then tear down
		if err := <-done; err != nil && !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("close at +%v: training returned %v, want nil or ErrSessionClosed", delay, err)
		}
		if err := s.Each(func(p *Party) error { return nil }); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("close at +%v: Each after Close returned %v, want ErrSessionClosed", delay, err)
		}
	}
}
