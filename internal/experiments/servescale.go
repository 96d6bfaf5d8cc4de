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

// serveScaleBaseline is the baseline for sharded serving
// (BENCH_servescale.json): it trains one basic-protocol tree, measures the
// deterministic per-lane batch cost, replays a fixed concurrent request
// stream against services of 1, 2 and 4 independent federated lanes under
// 2 ms simulated WAN latency, and finally kills a lane mid-stream.  The
// per-lane message counter is the benchdiff-gated part; wall-clock scaling
// is advisory (CI machines are noisy).
func serveScaleBaseline(p Preset) (*Baseline, error) {
	delay, jitter := p.NetDelay, p.NetJitter
	if delay == 0 {
		delay = 2 * time.Millisecond
	}

	requests, clients := 96, 24
	ds := dataset.SyntheticClassification(requests, p.DBar*p.M, p.Classes, 2.0, 99)
	parts, err := dataset.VerticalPartition(ds, p.M, 0)
	if err != nil {
		return nil, err
	}

	// Train and compute the oracle on a delay-free session: the model is
	// basic-protocol (portable across sessions), so only the serving legs
	// need to pay the WAN simulation.
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
	identical := true
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
			identical = false
		}
	}
	rows := flatRows(parts, requests)

	laneCfg := baseCfg
	laneCfg.NetDelay = delay
	laneCfg.NetJitter = jitter
	factory := func(lane int) (*core.Session, error) {
		c := laneCfg
		c.Seed += int64(lane)
		return core.NewSession(parts, c)
	}
	// Per-request chains (MaxBatch 1) keep every lane WAN-rate limited: a
	// chain is mostly sequential message-hop sleep, so lanes overlap chains
	// even on a single core.  Coalescing into big batches would shift the
	// cost to HE compute, which one core cannot overlap (that trade is
	// BENCH_serve's subject).
	svcCfg := serve.Config{Window: 0, MaxBatch: 1, MaxQueue: 4096}

	var killPool *serve.Service
	var points []*Baseline
	var narrowSecs, wideSecs float64
	for _, lanes := range []int{1, 2, 4} {
		pool, err := serve.NewSharded(parts, lanes, factory, svcCfg)
		if err != nil {
			return nil, err
		}
		if _, err := pool.Register("dt", mdl); err != nil {
			pool.Close()
			return nil, err
		}
		start := time.Now()
		preds, errs := streamRequests(pool, rows, clients, nil)
		secs := time.Since(start).Seconds()
		for i := range errs {
			if errs[i] != nil {
				pool.Close()
				return nil, fmt.Errorf("experiments: servescale lanes=%d: %w", lanes, errs[i])
			}
			if preds[i] != oracle[i] {
				identical = false
			}
		}
		sv := pool.Stats().Serve
		used := 0
		for _, ls := range sv.Lanes {
			if ls.Samples > 0 {
				used++
			}
		}
		point := &Baseline{}
		point.Set("lanes", lanes)
		point.Set("seconds", secs)
		point.Set("throughput_rps", float64(requests)/secs)
		point.Set("batches", sv.Batches)
		point.Set("lanes_used", used)
		points = append(points, point)
		if lanes == 1 {
			narrowSecs = secs
		}
		wideSecs = secs
		if lanes == 4 {
			killPool = pool // reused for the chaos leg below
		} else {
			pool.Close()
		}
	}

	// Chaos leg: replay the stream against the 4-lane service and close
	// one lane's session once a quarter of the requests have landed.
	// Requests in flight on the corpse must be requeued onto survivors;
	// failed_other must stay 0 — the only acceptable request failure
	// during failover is the typed unavailability (all lanes down).
	defer killPool.Close()
	var done atomic.Int64
	var killOnce sync.Once
	preds, errs := streamRequests(killPool, rows, clients, func() {
		if done.Add(1) == int64(requests/4) {
			killOnce.Do(func() { killPool.LaneSession(1).Close() })
		}
	})
	var succeeded, unavailable, failedOther int
	for i := range errs {
		switch {
		case errs[i] == nil:
			succeeded++
			if preds[i] != oracle[i] {
				identical = false
			}
		case errors.Is(errs[i], serve.ErrUnavailable):
			unavailable++
		default:
			failedOther++
		}
	}
	sv := killPool.Stats().Serve
	kill := &Baseline{}
	kill.Set("lanes", len(sv.Lanes))
	kill.Set("succeeded", succeeded)
	kill.Set("unavailable", unavailable)
	kill.Set("failed_other", failedOther)
	kill.Set("requeued", sv.Requeued)
	kill.Set("lanes_healthy_after", sv.LanesHealthy)

	b := &Baseline{}
	b.Set("key_bits", p.KeyBits)
	b.Set("m", p.M)
	b.Set("requests", requests)
	b.Set("clients", clients)
	b.Set("net_delay_ms", msOf(delay))
	b.Set("net_jitter_ms", msOf(jitter))
	b.Set("seed", 99)
	b.Set("lane_batch", laneBatch)
	b.Set("lane_rounds_per_batch", laneRounds)
	b.Set("lane_msgs_per_batch", laneMsgs)
	b.Set("points", points)
	// The S=1 wall time divided by the widest service's — ideally the lane
	// count when chains are WAN-rate-limited.
	b.Set("scaling_x_throughput", ratio(narrowSecs, wideSecs))
	// Every served prediction (including the survivors of the kill leg)
	// matched the S=1 offline oracle bit-for-bit.
	b.Set("results_identical", identical)
	b.Set("kill", kill)
	// Per-lane batch cost is scheduling-independent, so every lane must
	// keep paying exactly these messages per chain.
	b.Gate("lane_msgs_per_batch")
	return b, nil
}
