package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/transport"
)

// Failure injection: a client that errors or panics mid-phase must not
// strand its peers — Each tears the network down so everyone fails fast.

func TestEachAbortsPeersOnError(t *testing.T) {
	ds := smallClassification(20)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	injected := errors.New("injected failure")
	done := make(chan error, 1)
	go func() {
		done <- s.Each(func(p *Party) error {
			if p.ID == 1 {
				return injected
			}
			// Client 0 blocks on a message client 1 will never send; the
			// abort must release it.
			_, err := transport.RecvInts(p.ep, 1)
			return err
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from the aborted phase")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("session hung after a client failure")
	}
}

func TestEachRecoversPanics(t *testing.T) {
	ds := smallClassification(20)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	done := make(chan error, 1)
	go func() {
		done <- s.Each(func(p *Party) error {
			if p.ID == 0 {
				panic("client crash")
			}
			_, err := transport.RecvInts(p.ep, 0)
			return err
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error after a client panic")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("session hung after a client panic")
	}
}

func TestTrainingFailsCleanlyWithFaultyTransport(t *testing.T) {
	// Wrap client 1's endpoint so it crashes after three sends, mid-protocol;
	// the training phase must return an error at every client, not hang.
	ds := smallClassification(20)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(parts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.parties[1].ep = transport.WithChaos(s.parties[1].ep, transport.ChaosConfig{CrashAfterSends: 3})

	done := make(chan error, 1)
	go func() {
		done <- s.Each(func(p *Party) error {
			_, err := p.TrainDT()
			return err
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected training to fail under injected transport faults")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("training hung under injected transport faults")
	}
}
