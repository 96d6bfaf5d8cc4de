package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// serveScaleDelay is the simulated one-way WAN delay of the serving lanes:
// long enough that requests are still in flight when the kill leg closes a
// lane.
const serveScaleDelay = 2 * time.Millisecond

// streamRequests sends every row as one single-sample request for model
// "dt", from `clients` concurrent submitters draining a shared work list —
// the daemon's steady-state shape — and returns each request's prediction
// and error; onDone (when set) observes each completion.
func streamRequests(svc *serve.Service, rows [][]float64, clients int, onDone func()) ([]float64, []error) {
	preds := make([]float64, len(rows))
	errs := make([]error, len(rows))
	work := make(chan int, len(rows)) // sized to hold the whole list
	for i := range rows {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				preds[i], errs[i] = svc.Predict("dt", rows[i])
				if onDone != nil {
					onDone()
				}
			}
		}()
	}
	wg.Wait()
	return preds, errs
}

// serveScaleBaseline is the baseline for sharded serving
// (BENCH_servescale.json): it trains one basic-protocol tree, measures the
// deterministic per-lane batch cost, then replays a fixed concurrent
// request stream against a service of 4 independent federated lanes under
// simulated WAN latency and kills one lane mid-stream.  The per-lane
// message counter is the benchdiff-gated part; every served prediction
// must equal the offline oracle and no request may fail with anything but
// the typed unavailability (a mismatch is an error, not a record).
func serveScaleBaseline(p Preset) (*Baseline, error) {
	const lanes = 4
	requests, clients := 96, 24
	ds := dataset.SyntheticClassification(requests, p.DBar*p.M, p.Classes, 2.0, 99)
	parts, err := dataset.VerticalPartition(ds, p.M, 0)
	if err != nil {
		return nil, err
	}

	// Train and compute the oracle on a delay-free session: the model is
	// basic-protocol (portable across sessions), so only the serving leg
	// needs to pay the WAN simulation.
	baseCfg := cfgFor(p, core.Basic, 0)
	baseCfg.Tree.MaxDepth = 3
	oracleSess, err := core.NewSession(parts, baseCfg)
	if err != nil {
		return nil, err
	}
	defer oracleSess.Close()
	mdl, err := core.Train(oracleSess, core.TrainSpec{Model: core.KindDT})
	if err != nil {
		return nil, err
	}
	oracle, err := core.PredictAll(oracleSess, mdl, parts)
	if err != nil {
		return nil, err
	}

	// Deterministic per-lane batch cost: the MPC round count and message
	// count of one fixed-size prediction chain, counted on the session
	// itself (rounds at the super client, messages across the mesh).  They
	// depend only on the model structure and federation size — not on
	// scheduling, lanes, or the WAN simulation.  benchdiff gates the message
	// count exactly: a regression there means every lane pays more per
	// batch.  The round count is recorded but pins nothing: basic-protocol
	// prediction (Algorithm 4) runs no MPC rounds, so it reads 0.
	const laneBatch = 16
	X := make([][][]float64, len(parts))
	for c, pt := range parts {
		X[c] = pt.X[:laneBatch]
	}
	msgs0 := oracleSess.Stats().MessagesSent
	batchPreds, laneRounds, err := core.PredictSamples(oracleSess, mdl, X)
	if err != nil {
		return nil, err
	}
	laneMsgs := oracleSess.Stats().MessagesSent - msgs0
	for t, v := range batchPreds {
		if v != oracle[t] {
			return nil, fmt.Errorf("experiments: servescale lane batch sample %d predicted %v, oracle %v", t, v, oracle[t])
		}
	}

	laneCfg := baseCfg
	laneCfg.NetDelay = serveScaleDelay
	factory := func(lane int) (*core.Session, error) {
		c := laneCfg
		c.Seed += int64(lane)
		return core.NewSession(parts, c)
	}
	// Per-request chains (MaxBatch 1): each is mostly sequential message-hop
	// sleep, so every lane has requests in flight when one is killed.
	pool, err := serve.NewSharded(parts, lanes, factory, serve.Config{Window: 0, MaxBatch: 1, MaxQueue: 4096})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	if _, err := pool.Register("dt", mdl); err != nil {
		return nil, err
	}

	// Kill leg: replay the stream and close one lane's session once a
	// quarter of the requests have landed.  Requests in flight on the
	// corpse must be requeued onto survivors; the only acceptable request
	// failure during failover is the typed unavailability (all lanes down).
	var done atomic.Int64
	var killOnce sync.Once
	preds, errs := streamRequests(pool, flatRows(parts, requests), clients, func() {
		if done.Add(1) == int64(requests/4) {
			killOnce.Do(func() { pool.LaneSession(1).Close() })
		}
	})
	var succeeded, unavailable int
	for i := range errs {
		switch {
		case errs[i] == nil:
			succeeded++
			if preds[i] != oracle[i] {
				return nil, fmt.Errorf("experiments: servescale request %d served %v, oracle %v", i, preds[i], oracle[i])
			}
		case errors.Is(errs[i], serve.ErrUnavailable):
			unavailable++
		default:
			return nil, fmt.Errorf("experiments: servescale request %d failed during failover: %w", i, errs[i])
		}
	}
	sv := pool.Stats().Serve
	kill := &Baseline{}
	kill.Set("lanes", len(sv.Lanes))
	kill.Set("succeeded", succeeded)
	kill.Set("unavailable", unavailable)
	kill.Set("failed_other", 0) // checked above: any other failure is an error, not a record
	kill.Set("requeued", sv.Requeued)
	kill.Set("lanes_healthy_after", sv.LanesHealthy)

	b := &Baseline{}
	b.Set("key_bits", p.KeyBits)
	b.Set("m", p.M)
	b.Set("requests", requests)
	b.Set("clients", clients)
	b.Set("net_delay_ms", msOf(serveScaleDelay))
	b.Set("seed", 99)
	b.Set("lane_batch", laneBatch)
	b.Set("lane_rounds_per_batch", laneRounds)
	b.Set("lane_msgs_per_batch", laneMsgs)
	// Every served prediction (the lane batch and the kill leg's
	// survivors) matched the offline oracle bit-for-bit (checked above).
	b.Set("results_identical", true)
	b.Set("kill", kill)
	// Per-lane batch cost is scheduling-independent, so every lane must
	// keep paying exactly these messages per chain.
	b.Gate("lane_msgs_per_batch")
	return b, nil
}
