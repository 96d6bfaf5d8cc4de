package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestRoundRobinFairness unit-tests the cross-model scheduler: with two
// model queues backlogged, dispatch opportunities split evenly, and a queue
// that becomes backlogged while another stays saturated wins within one
// rotation.
func TestRoundRobinFairness(t *testing.T) {
	s := &Service{cfg: Config{}.withDefaults(), queues: make(map[string]*modelQueue)}
	backlog := func(name string, n int) {
		q := s.queueLocked(name)
		for i := 0; i < n; i++ {
			// attempts > 0 marks the head dispatchable regardless of window.
			q.reqs = append(q.reqs, &request{attempts: 1})
		}
	}
	backlog("hot", 100)
	backlog("cold", 100)

	wins := map[string]int{}
	now := time.Now()
	for i := 0; i < 30; i++ {
		q := s.nextQueueLocked(now)
		if q == nil {
			t.Fatalf("draw %d: no dispatchable queue", i)
		}
		wins[q.name]++
	}
	if wins["hot"] != 15 || wins["cold"] != 15 {
		t.Fatalf("round-robin split %v, want hot=15 cold=15", wins)
	}

	// Starvation check: a queue must win within one rotation of becoming
	// backlogged even when another queue stays saturated.
	s2 := &Service{cfg: Config{}.withDefaults(), queues: make(map[string]*modelQueue)}
	s2.queueLocked("hot").reqs = []*request{{attempts: 1}, {attempts: 1}, {attempts: 1}}
	for i := 0; i < 5; i++ {
		s2.nextQueueLocked(now)
	}
	s2.queueLocked("late").reqs = []*request{{attempts: 1}}
	for draw := 1; ; draw++ {
		if draw > 2 {
			t.Fatal("late queue starved past one full rotation")
		}
		if s2.nextQueueLocked(now).name == "late" {
			break
		}
	}
}

// TestConfigValidate pins the typed construction-time rejection of
// nonsensical knob combinations (no silent clamping in the dispatcher).
func TestConfigValidate(t *testing.T) {
	bad := []struct {
		cfg   Config
		field string
	}{
		{Config{Window: -time.Second}, "Window"},
		{Config{MaxBatch: -1}, "MaxBatch"},
		{Config{MaxQueue: -8}, "MaxQueue"},
		{Config{DefaultDeadline: -time.Millisecond}, "DefaultDeadline"},
		{Config{RetryAfter: -time.Second}, "RetryAfter"},
		{Config{MaxBatch: 64, MaxQueue: 2}, "MaxBatch"},
		{Config{MaxBatch: 4096}, "MaxBatch"}, // exceeds the MaxQueue default
	}
	for _, tc := range bad {
		err := tc.cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Fatalf("Validate(%+v) = %v, want ConfigError on %s", tc.cfg, err, tc.field)
		}
	}
	good := []Config{
		{},
		{Window: 2 * time.Millisecond, MaxBatch: 8, MaxQueue: 8},
		{MaxBatch: 256}, // equals the MaxQueue default? no: 256 <= 1024
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}

	// The sharded constructor's own arguments, and the same typed error
	// for the embedded knobs — before any lane is spawned.
	factory := func(int) (*core.Session, error) { return nil, errors.New("must not be spawned") }
	for _, tc := range []struct {
		lanes   int
		factory LaneFactory
		cfg     Config
		field   string
	}{
		{0, factory, Config{}, "lanes"},
		{2, nil, Config{}, "factory"},
		{2, factory, Config{Rebuild: func() (*core.Session, error) { return nil, nil }}, "Rebuild"},
		{2, factory, Config{Window: -1}, "Window"},
		{1, factory, Config{MaxBatch: 10, MaxQueue: 5}, "MaxBatch"},
	} {
		_, err := NewSharded(nil, tc.lanes, tc.factory, tc.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Fatalf("NewSharded(%d lanes, %+v) = %v, want ConfigError on %s", tc.lanes, tc.cfg, err, tc.field)
		}
	}
}

// TestRegistryReplaceUnderTraffic races Register/Replace against live
// prediction traffic on a 2-lane service: every request must finish on the
// exact model version it was admitted with (the entry pin), with zero
// errors.  Run under the nightly full -race suite.
func TestRegistryReplaceUnderTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("registry race soak needs full MPC traffic; run without -short")
	}
	pool, fx := dtService(t, 2, Config{Window: time.Millisecond, MaxBatch: 8}, nil, -1, true)
	defer pool.Close()
	rows := fx.rows

	sess := pool.LaneSession(0)
	// Two models with different predictions under the same name.
	mdlA, err := pool.Lookup("dt")
	if err != nil {
		t.Fatal(err)
	}
	rf, err := core.Train(sess, core.TrainSpec{Model: core.KindRF})
	if err != nil {
		t.Fatal(err)
	}
	parts2, err := dataset.VerticalPartition(dataset.SyntheticClassification(12, 4, 2, 3.0, 9), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracles := map[core.Predictor][]float64{}
	for _, m := range []core.Predictor{mdlA.Model, rf} {
		o, err := core.PredictAll(sess, m, parts2)
		if err != nil {
			t.Fatal(err)
		}
		oracles[m] = o
	}

	stop := make(chan struct{})
	var replaceWG sync.WaitGroup
	replaceWG.Add(1)
	go func() {
		defer replaceWG.Done()
		models := []core.Predictor{rf, mdlA.Model}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pool.Register("dt", models[i%2]); err != nil {
				t.Errorf("replace %d: %v", i, err)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	var trafficWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		trafficWG.Add(1)
		go func(w int) {
			defer trafficWG.Done()
			for iter := 0; iter < 6; iter++ {
				entry, err := pool.Lookup("dt")
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				preds, err := pool.PredictManyEntry(entry, rows, time.Time{})
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, iter, err)
					return
				}
				want := oracles[entry.Model]
				for i := range preds {
					if preds[i] != want[i] {
						t.Errorf("worker %d iter %d sample %d: got %v want %v (version %d pin broken)",
							w, iter, i, preds[i], want[i], entry.Version)
						return
					}
				}
			}
		}(w)
	}
	trafficWG.Wait()
	close(stop)
	replaceWG.Wait()
}
