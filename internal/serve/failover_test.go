package serve

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestFailover is the degradation round trip at both widths.  A lane that
// dies mid-chain (chaos schedule) fails over — at three lanes nobody
// notices and the batch is requeued onto the survivors, at one lane the
// tripping request gets the typed retry-after error; killing the remaining
// lanes takes the service down with the hint in Health and at admission;
// releasing the rebuild gate heals it to full strength behind the same
// registry.  Without a rebuild factory the one-lane service stays down
// instead of panicking or hanging, and still closes cleanly.
func TestFailover(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lanes   int
		crash   bool // the last lane's first session dies mid-chain
		respawn bool
	}{
		{"lanes=1", 1, true, true},
		{"lanes=1/no-rebuild", 1, false, false},
		{"lanes=3", 3, true, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const hint = 250 * time.Millisecond
			wantUnavailable := func(when string, err error) {
				t.Helper()
				var ue *UnavailableError
				if !errors.Is(err, ErrUnavailable) || !errors.As(err, &ue) || ue.RetryAfter != hint {
					t.Fatalf("%s = %v, want UnavailableError with the %v hint", when, err, hint)
				}
			}
			var gate atomic.Bool
			crashLane := -1
			if tc.crash {
				crashLane = tc.lanes - 1
			}
			svc, fx := dtService(t, tc.lanes, Config{Window: 2 * time.Millisecond, MaxBatch: 4, RetryAfter: hint}, &gate, crashLane, tc.respawn)
			defer svc.Close()
			if h := svc.Health(); !h.Healthy || h.Lanes != tc.lanes || h.LanesHealthy != tc.lanes {
				t.Fatalf("health before fault: %+v", h)
			}
			gate.Store(true) // rebuilds stay down until released

			live := tc.lanes
			switch {
			case !tc.crash:
				if got, err := svc.Predict("dt", fx.rows[0]); err != nil || got != fx.oracle[0] {
					t.Fatalf("healthy predict = %v, %v (want %v)", got, err, fx.oracle[0])
				}
			case tc.lanes == 1:
				// The request that trips over the dying session has nowhere
				// to fail over to.
				_, err := svc.Predict("dt", fx.rows[0])
				wantUnavailable("predict on the dying lane", err)
				live = 0
			default:
				// Three chains of four: least-loaded dispatch hands the
				// doomed lane one of them, which must migrate unnoticed.
				got, errs := predictAll(svc, "dt", fx.rows)
				for i := range fx.rows {
					if errs[i] != nil || got[i] != fx.oracle[i] {
						t.Fatalf("failover sample %d: %v, %v (want %v)", i, got[i], errs[i], fx.oracle[i])
					}
				}
				live--
				st := svc.Stats()
				if st.Serve.Requeued == 0 {
					t.Fatalf("no batch migrated off the dead lane: %+v", st.Serve)
				}
				if st.Serve.LanesHealthy != live {
					t.Fatalf("healthy lanes after kill = %d", st.Serve.LanesHealthy)
				}
				if h := svc.Health(); !h.Healthy || h.LanesHealthy != live {
					t.Fatalf("health at S-1: %+v", h)
				}
			}

			// Kill the survivors out from under the service, as a crashed
			// peer or aborted network would: Health reads it at once, and
			// submissions are refused at admission with the hint.
			for _, ls := range svc.Stats().Serve.Lanes {
				if ls.Healthy {
					svc.LaneSession(ls.Lane).Close()
				}
			}
			if h := svc.Health(); h.Healthy || h.LanesHealthy != 0 || h.RetryAfterMs != hint.Milliseconds() {
				t.Fatalf("health during outage: %+v", h)
			}
			for i := 0; i < 2; i++ {
				_, err := svc.Predict("dt", fx.rows[0])
				wantUnavailable("predict during outage", err)
			}
			if st := svc.Stats(); st.Serve.Rebuilds != 0 || st.Serve.Unavailable < 1 {
				t.Fatalf("degradation counters: %+v", st.Serve)
			}
			if !tc.respawn {
				return
			}

			// Release the gate: background rebuilds must restore every lane,
			// and the basic-protocol model keeps serving the same predictions.
			gate.Store(false)
			deadline := time.Now().Add(30 * time.Second)
			for svc.Health().LanesHealthy != tc.lanes {
				if time.Now().After(deadline) {
					t.Fatalf("service did not heal: %+v", svc.Health())
				}
				time.Sleep(20 * time.Millisecond)
			}
			for i, row := range fx.rows {
				if got, err := svc.Predict("dt", row); err != nil || got != fx.oracle[i] {
					t.Fatalf("post-heal sample %d: %v, %v (want %v)", i, got, err, fx.oracle[i])
				}
			}
			if st := svc.Stats(); st.Serve.Rebuilds != int64(tc.lanes) {
				t.Fatalf("rebuilds = %d, want %d", st.Serve.Rebuilds, tc.lanes)
			}
		})
	}
}

// TestDeadIdleLane kills a lane between batches: the service must notice
// from the session's own liveness flag — not by wasting a dispatch on the
// corpse — and rebuild the lane exactly as if it had died mid-batch.
func TestDeadIdleLane(t *testing.T) {
	svc, fx := dtService(t, 2, Config{Window: time.Millisecond}, nil, -1, true)
	defer svc.Close()

	// Warm lane 0 so the lane about to die is the least-loaded one, i.e.
	// the next dispatch target.
	if got, err := svc.Predict("dt", fx.rows[0]); err != nil || got != fx.oracle[0] {
		t.Fatalf("warmup: %v, %v", got, err)
	}
	if ls := svc.Stats().Serve.Lanes; ls[0].Samples != 1 || ls[1].Samples != 0 {
		t.Fatalf("warmup landed on the wrong lane: %+v", ls)
	}
	svc.LaneSession(1).Close()
	if h := svc.Health(); !h.Healthy || h.LanesHealthy != 1 {
		t.Fatalf("health with a dead idle lane: %+v", h)
	}
	if got, err := svc.Predict("dt", fx.rows[1]); err != nil || got != fx.oracle[1] {
		t.Fatalf("predict with a dead idle lane: %v, %v", got, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc.Health().LanesHealthy != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("lane did not come back: %+v", svc.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := svc.Stats(); st.Serve.Requeued != 0 || st.Serve.Rebuilds != 1 {
		t.Fatalf("requeued %d (want 0: no dispatch onto the corpse), rebuilds %d (want 1)", st.Serve.Requeued, st.Serve.Rebuilds)
	}
}

// TestServerUnavailableWire checks the degradation surface over the wire:
// opUnavail round-trips into an *UnavailableError with the hint, and the
// health probe reports unhealthy.
func TestServerUnavailableWire(t *testing.T) {
	svc, fx := dtService(t, 1, Config{RetryAfter: 300 * time.Millisecond}, nil, -1, false)
	srv, err := NewServer(svc, "127.0.0.1:0")
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer func() { srv.Shutdown(); time.Sleep(50 * time.Millisecond) }()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if h, err := cli.Health(); err != nil || !h.Healthy {
		t.Fatalf("health = %+v, %v", h, err)
	}
	if preds, err := cli.Predict("dt", fx.rows[:1]); err != nil || preds[0] != fx.oracle[0] {
		t.Fatalf("predict = %v, %v", preds, err)
	}

	svc.LaneSession(0).Close()
	_, err = cli.Predict("dt", fx.rows[:1])
	var ue *UnavailableError
	if !errors.Is(err, ErrUnavailable) || !errors.As(err, &ue) || ue.RetryAfter != 300*time.Millisecond {
		t.Fatalf("predict over wire on dead session = %v", err)
	}
	if h, err := cli.Health(); err != nil || h.Healthy || h.RetryAfterMs != 300 {
		t.Fatalf("health after fault = %+v, %v", h, err)
	}
}

// TestDialRetry pins the client-side backoff: a listener that comes up
// after the first attempt must still be reached within the retry window,
// and a zero window must fail in one attempt.
func TestDialRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	cli0, err := DialTimeout(addr, 0)
	if err != nil {
		t.Fatalf("one-shot dial to a live listener: %v", err)
	}
	cli0.Close()
	ln.Close()

	if _, err := DialTimeout(addr, 0); err == nil {
		t.Fatal("one-shot dial to a closed listener must fail")
	}

	// Bring the listener back mid-retry; Dial's backoff must find it.
	ready := make(chan net.Listener, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			ready <- nil
			return
		}
		ready <- ln
	}()
	cli, err := DialTimeout(addr, 5*time.Second)
	ln2 := <-ready
	if ln2 == nil {
		t.Skip("could not rebind the probe port")
	}
	defer ln2.Close()
	if err != nil {
		t.Fatalf("retrying dial: %v", err)
	}
	cli.Close()
}
