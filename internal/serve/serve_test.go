package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// widths are the engine widths every behavioural test runs at: the
// one-lane service New adopts and a sharded one.
var widths = []int{1, 3}

func fixtureConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.KeyBits = 256
	cfg.Tree = core.TreeHyper{MaxDepth: 2, MaxSplits: 3, MinSamplesSplit: 2, LeafOnZeroGain: true}
	cfg.NumTrees = 2
	cfg.Seed = 11
	return cfg
}

// flatRows reconstructs the global-column-order rows the wire carries
// from the vertical partitions.
func flatRows(parts []*dataset.Partition, width int) [][]float64 {
	rows := make([][]float64, parts[0].N)
	for t := range rows {
		row := make([]float64, width)
		for _, p := range parts {
			for j, f := range p.Features {
				row[f] = p.X[t][j]
			}
		}
		rows[t] = row
	}
	return rows
}

// testFactory is the LaneFactory the tests serve from (it is also the
// rebuild path).  While gate is set, spawns fail — letting tests hold a
// lane down deterministically.  The first session spawned for crashLane
// (-1 = none) carries a chaos schedule that kills it on a client's second
// send, i.e. in the middle of its first round chain.
func testFactory(parts []*dataset.Partition, gate *atomic.Bool, crashLane int) LaneFactory {
	var crashed atomic.Bool
	return func(lane int) (*core.Session, error) {
		if gate != nil && gate.Load() {
			return nil, errors.New("rebuild gated by test")
		}
		c := fixtureConfig()
		c.Seed += int64(lane)
		if lane == crashLane && crashed.CompareAndSwap(false, true) {
			c.Chaos, c.ChaosParty = &transport.ChaosConfig{CrashAfterSends: 1}, 1
		}
		return core.NewSession(parts, c)
	}
}

// startService builds the engine the way deployments do at each width: one
// lane adopts a live session through New (respawned by cfg.Rebuild, which
// is wired to the factory only when respawn is set), more lanes spawn from
// the factory through NewSharded.
func startService(t *testing.T, parts []*dataset.Partition, lanes int, cfg Config, factory LaneFactory, respawn bool) *Service {
	t.Helper()
	if lanes > 1 {
		svc, err := NewSharded(parts, lanes, factory, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	sess, err := factory(0)
	if err != nil {
		t.Fatal(err)
	}
	if respawn {
		cfg.Rebuild = func() (*core.Session, error) { return factory(0) }
	}
	svc, err := New(sess, parts, cfg)
	if err != nil {
		sess.Close()
		t.Fatal(err)
	}
	return svc
}

// dtFixture is the small federation most tests serve: 12 samples over two
// clients, a DT trained once per test binary on a throwaway session
// (basic-protocol models are portable across sessions) and the offline
// batched pipeline's predictions as the oracle.
type dtFixture struct {
	parts  []*dataset.Partition
	rows   [][]float64
	dt     core.Predictor
	oracle []float64
}

var loadDT = sync.OnceValues(func() (*dtFixture, error) {
	ds := dataset.SyntheticClassification(12, 4, 2, 3.0, 9)
	parts, err := dataset.VerticalPartition(ds, 2, 0)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(parts, fixtureConfig())
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	fx := &dtFixture{parts: parts, rows: flatRows(parts, 4)}
	if fx.dt, err = core.Train(sess, core.TrainSpec{Model: core.KindDT}); err != nil {
		return nil, err
	}
	fx.oracle, err = core.PredictAll(sess, fx.dt, parts)
	return fx, err
})

// dtService starts a lanes-wide service over the DT fixture with the tree
// registered as "dt".
func dtService(t *testing.T, lanes int, cfg Config, gate *atomic.Bool, crashLane int, respawn bool) (*Service, *dtFixture) {
	t.Helper()
	fx, err := loadDT()
	if err != nil {
		t.Fatal(err)
	}
	svc := startService(t, fx.parts, lanes, cfg, testFactory(fx.parts, gate, crashLane), respawn)
	if _, err := svc.Register("dt", fx.dt); err != nil {
		svc.Close()
		t.Fatal(err)
	}
	return svc, fx
}

// predictAll submits every row concurrently, one sample per request.
func predictAll(svc *Service, model string, rows [][]float64) ([]float64, []error) {
	got := make([]float64, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = svc.Predict(model, rows[i])
		}(i)
	}
	wg.Wait()
	return got, errs
}

// TestService drives the whole serving stack at both widths: registry,
// micro-batch equivalence against the offline batched pipeline for all
// three model families, coalescing and per-lane stats, deadlines, admission
// control, and the wire protocol end-to-end.  The models are trained once,
// on the session the one-lane row then adopts.
func TestService(t *testing.T) {
	ds := dataset.SyntheticClassification(16, 6, 2, 3.0, 9)
	parts, err := dataset.VerticalPartition(ds, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	trainSess, err := core.NewSession(parts, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer trainSess.Close()

	kinds := []core.ModelKind{core.KindDT, core.KindRF, core.KindGBDT}
	models := map[core.ModelKind]core.Predictor{}
	oracles := map[core.ModelKind][]float64{}
	for _, kind := range kinds {
		mdl, err := core.Train(trainSess, core.TrainSpec{Model: kind})
		if err != nil {
			t.Fatalf("train %s: %v", kind, err)
		}
		// The offline batched pipeline (one chain for the whole dataset)
		// is the equivalence oracle for the micro-batched serving path.
		oracle, err := core.PredictAll(trainSess, mdl, parts)
		if err != nil {
			t.Fatal(err)
		}
		models[kind], oracles[kind] = mdl, oracle
	}

	for _, lanes := range widths {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			factory := func(int) (*core.Session, error) { return trainSess, nil }
			if lanes > 1 {
				factory = testFactory(parts, nil, -1)
			}
			// MaxBatch 8 splits the 16 concurrent samples of each family
			// into at least two chains, which a sharded service must spread
			// over its lanes.
			svc := startService(t, parts, lanes, Config{Window: 25 * time.Millisecond, MaxBatch: 8, MaxQueue: 256}, factory, false)
			defer svc.Close()
			testService(t, svc, lanes, parts, kinds, models, oracles)
		})
	}
}

func testService(t *testing.T, svc *Service, lanes int, parts []*dataset.Partition,
	kinds []core.ModelKind, models map[core.ModelKind]core.Predictor, oracles map[core.ModelKind][]float64) {
	for _, kind := range kinds {
		entry, err := svc.Register(string(kind), models[kind])
		if err != nil {
			t.Fatal(err)
		}
		if entry.Version != 1 || entry.Info().Kind != kind {
			t.Fatalf("entry %+v", entry.Info())
		}
	}
	rows := flatRows(parts, svc.Width())

	t.Run("registry", func(t *testing.T) {
		if _, err := svc.Lookup("nope"); err == nil {
			t.Fatal("expected lookup error")
		}
		e2, err := svc.Register("dt", models[core.KindDT])
		if err != nil {
			t.Fatal(err)
		}
		if e2.Version != 2 {
			t.Fatalf("re-registering must bump version, got %d", e2.Version)
		}
		if got := len(svc.List()); got != 3 {
			t.Fatalf("registry lists %d entries", got)
		}
	})

	// Micro-batch equivalence: N concurrent single-sample requests must
	// return bit-identical results to the offline batched pipeline, for
	// every registered family.
	for _, kind := range kinds {
		kind := kind
		t.Run("equivalence-"+string(kind), func(t *testing.T) {
			got, errs := predictAll(svc, string(kind), rows)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("sample %d: %v", i, err)
				}
			}
			for i := range got {
				if got[i] != oracles[kind][i] {
					t.Fatalf("%s sample %d: served %v, oracle %v", kind, i, got[i], oracles[kind][i])
				}
			}
		})
	}

	t.Run("coalescing-stats", func(t *testing.T) {
		st := svc.Stats()
		if st.Serve == nil {
			t.Fatal("RunStats.Serve not populated")
		}
		if st.Serve.MaxBatch < 2 {
			t.Fatalf("concurrent requests never coalesced: max batch %d", st.Serve.MaxBatch)
		}
		if st.Serve.Coalesced != int64(3*len(rows)) || st.Serve.Requests != st.Serve.Coalesced {
			t.Fatalf("coalesced %d requests %d, want %d", st.Serve.Coalesced, st.Serve.Requests, 3*len(rows))
		}
		if st.Serve.Batches >= st.Serve.Coalesced {
			t.Fatalf("micro-batching served every sample its own chain (%d batches for %d samples)", st.Serve.Batches, st.Serve.Coalesced)
		}
		if st.Serve.BatchSizes.Total() != st.Serve.Batches || st.Serve.Rounds.Total() != st.Serve.Batches {
			t.Fatal("batch-size/rounds histograms out of sync with batch counter")
		}
		if st.Serve.LatencyMs.Total() != st.Serve.Coalesced {
			t.Fatal("latency histogram out of sync with served samples")
		}
	})

	// The per-lane breakdown accounts for every served sample, and the
	// least-loaded dispatch has exercised every lane: each family ran at
	// least two chains.
	t.Run("lane-stats", func(t *testing.T) {
		st := svc.Stats()
		if len(st.Serve.Lanes) != lanes || st.Serve.LanesHealthy != lanes {
			t.Fatalf("stats lanes: %d listed, %d healthy, want %d", len(st.Serve.Lanes), st.Serve.LanesHealthy, lanes)
		}
		var samples int64
		busyLanes := 0
		for _, ls := range st.Serve.Lanes {
			samples += ls.Samples
			if ls.Batches > 0 {
				busyLanes++
			}
		}
		if samples != st.Serve.Coalesced {
			t.Fatalf("lane samples %d, coalesced %d", samples, st.Serve.Coalesced)
		}
		if busyLanes != lanes {
			t.Fatalf("only %d of %d lanes served batches", busyLanes, lanes)
		}
		if h := svc.Health(); !h.Healthy || h.Lanes != lanes || h.LanesHealthy != lanes {
			t.Fatalf("health: %+v", h)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		_, err := svc.PredictDeadline("dt", rows[0], time.Now().Add(-time.Millisecond))
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("expired request returned %v", err)
		}
		if svc.Stats().Serve.Expired == 0 {
			t.Fatal("expired counter not bumped")
		}
	})

	t.Run("validation", func(t *testing.T) {
		if _, err := svc.Predict("dt", rows[0][:2]); err == nil {
			t.Fatal("expected width validation error")
		}
		if _, err := svc.Predict("nope", rows[0]); err == nil {
			t.Fatal("expected unknown-model error")
		}
	})

	// Admission control on a second service over lane 0's session (phases
	// interleave safely at whole-phase granularity): a long window holds
	// one sample in each of two model queues, MaxQueue bounds the total.
	t.Run("admission", func(t *testing.T) {
		svcB, err := New(svc.LaneSession(0), parts, Config{Window: 400 * time.Millisecond, MaxBatch: 2, MaxQueue: 2})
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"a", "b", "c"}
		for _, name := range names {
			if _, err := svcB.Register(name, models[core.KindDT]); err != nil {
				t.Fatal(err)
			}
		}
		errs := make([]error, len(names))
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = svcB.Predict(names[i], rows[i])
			}(i)
		}
		wg.Wait()
		rejected := 0
		for _, err := range errs {
			switch {
			case errors.Is(err, ErrOverloaded):
				rejected++
			case err != nil:
				t.Fatal(err)
			}
		}
		if rejected != 1 {
			t.Fatalf("MaxQueue=2 with 3 concurrent samples rejected %d", rejected)
		}
		svcB.Drain() // not Close: the session belongs to svc
		if _, err := svcB.Predict("a", rows[0]); !errors.Is(err, ErrDraining) {
			t.Fatalf("post-drain submit returned %v", err)
		}
		if svcB.Stats().Serve.Rejected < 2 { // 1 overload + ≥1 draining
			t.Fatalf("rejected counter %d", svcB.Stats().Serve.Rejected)
		}
	})

	// Wire protocol end-to-end over loopback, then graceful drain: the
	// server must flush queued work, close the service, and Serve must
	// return nil.
	t.Run("wire", func(t *testing.T) {
		srv, err := NewServer(svc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve() }()

		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()

		infos, err := cli.Models()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 3 {
			t.Fatalf("daemon lists %d models", len(infos))
		}
		preds, version, err := cli.PredictVersioned("dt", rows, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if version != 2 {
			t.Fatalf("served version %d", version)
		}
		for i := range preds {
			if preds[i] != oracles[core.KindDT][i] {
				t.Fatalf("wire sample %d: %v != %v", i, preds[i], oracles[core.KindDT][i])
			}
		}
		if _, err := cli.Predict("nope", rows[:1]); err == nil {
			t.Fatal("expected remote error for unknown model")
		}
		st, err := cli.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Serve == nil || st.Serve.Coalesced == 0 || st.MessagesSent == 0 {
			t.Fatalf("remote stats missing counters: %+v", st.Serve)
		}
		// The adopted session also trained the models; a sharded lane has
		// only served, and basic-protocol prediction runs no MPC rounds.
		if lanes == 1 && st.MPC.Rounds == 0 {
			t.Fatal("remote stats missing the session's MPC rounds")
		}
		if err := cli.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := <-serveErr; err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
		if _, err := svc.Predict("dt", rows[0]); !errors.Is(err, ErrDraining) {
			t.Fatalf("post-shutdown submit returned %v", err)
		}
		svc.Close() // idempotent with the server's close
	})
}
