package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// ServeScaleStats is the machine-readable baseline for sharded serving
// (written to BENCH_servescale.json by cmd/pivot-bench -exp servescale
// -json): the same concurrent request stream replayed against services
// of 1, 2 and 4 independent federated lanes under 2 ms simulated
// WAN latency, plus a chaos leg that kills a lane mid-stream.  The
// deterministic per-lane message counter is the benchdiff-gated part;
// wall-clock scaling is advisory (CI machines are noisy).
type ServeScaleStats struct {
	KeyBits     int     `json:"key_bits"`
	M           int     `json:"m"`
	Requests    int     `json:"requests"`
	Clients     int     `json:"clients"`
	NetDelayMs  float64 `json:"net_delay_ms"`
	NetJitterMs float64 `json:"net_jitter_ms"`
	Seed        int     `json:"seed"`

	// LaneRoundsPerBatch / LaneMsgsPerBatch are the MPC round count and
	// message count of one LaneBatch-sample prediction chain on a single
	// lane.  They depend only on the model structure and federation size —
	// not on scheduling, lanes, or the WAN simulation.  benchdiff gates the
	// message count exactly: a regression there means every lane pays more
	// per batch.  The round count is recorded but pins nothing: basic-
	// protocol prediction (Algorithm 4) runs no MPC rounds, so it reads 0.
	LaneBatch          int   `json:"lane_batch"`
	LaneRoundsPerBatch int64 `json:"lane_rounds_per_batch"`
	LaneMsgsPerBatch   int64 `json:"lane_msgs_per_batch"`

	Points []ServeScalePoint `json:"points"`

	// ScalingX is the S=1 wall time divided by the widest pool's wall
	// time — ideally the lane count when chains are WAN-rate-limited.
	ScalingX float64 `json:"scaling_x_throughput"`
	// ResultsIdentical asserts every served prediction (including the
	// survivors of the kill leg) matched the S=1 offline oracle
	// bit-for-bit.
	ResultsIdentical bool `json:"results_identical"`

	Kill ServeScaleKill `json:"kill"`

	// Gates is the manifest pivot-benchdiff reads from the committed
	// baseline: per-lane batch cost is scheduling-independent, so every
	// lane must keep paying exactly these messages per chain.
	Gates Gates `json:"gates"`
}

// ServeScalePoint is one pool width's measurement.
type ServeScalePoint struct {
	Lanes      int     `json:"lanes"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"throughput_rps"`
	Batches    int64   `json:"batches"`
	LanesUsed  int     `json:"lanes_used"`
}

// ServeScaleKill is the chaos leg: one lane of the widest pool is killed
// while the stream is in flight.  FailedOther must stay 0 — the only
// acceptable request failure during failover is the typed unavailability
// (all lanes down), everything else must be requeued and served.
type ServeScaleKill struct {
	Lanes        int   `json:"lanes"`
	Succeeded    int   `json:"succeeded"`
	Unavailable  int   `json:"unavailable"`
	FailedOther  int   `json:"failed_other"`
	Requeued     int64 `json:"requeued"`
	HealthyAfter int   `json:"lanes_healthy_after"`
}

// ServeScaleBenchRaw trains one basic-protocol tree, measures the
// deterministic per-lane batch cost, then replays a fixed concurrent
// request stream through session pools of increasing width under
// simulated WAN latency, and finally kills a lane mid-stream.
func ServeScaleBenchRaw(p Preset) (*ServeScaleStats, error) {
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

	st := &ServeScaleStats{
		KeyBits: p.KeyBits, M: p.M, Requests: requests, Clients: clients,
		NetDelayMs:  float64(delay) / float64(time.Millisecond),
		NetJitterMs: float64(jitter) / float64(time.Millisecond),
		Seed:        99, ResultsIdentical: true,
		Gates: Gates{Require: []string{"lane_msgs_per_batch"}},
	}

	// Deterministic per-lane batch cost: one fixed-size chain, counted on
	// the session itself (rounds at the super client, messages across the
	// mesh).  Scheduling and lane count cannot change these.
	st.LaneBatch = 16
	X := make([][][]float64, len(parts))
	for c, pt := range parts {
		X[c] = pt.X[:st.LaneBatch]
	}
	msgs0 := oracleSess.Stats().MessagesSent
	batchPreds, rounds, err := core.PredictSamples(oracleSess, mdl, X)
	if err != nil {
		return nil, err
	}
	st.LaneRoundsPerBatch = rounds
	st.LaneMsgsPerBatch = oracleSess.Stats().MessagesSent - msgs0
	for t, v := range batchPreds {
		if v != oracle[t] {
			st.ResultsIdentical = false
		}
	}

	// Flat global-column rows, as the wire would carry them.
	width := 0
	for _, pt := range parts {
		for _, f := range pt.Features {
			if f+1 > width {
				width = f + 1
			}
		}
	}
	rows := make([][]float64, requests)
	for t := range rows {
		row := make([]float64, width)
		for _, pt := range parts {
			for j, f := range pt.Features {
				row[f] = pt.X[t][j]
			}
		}
		rows[t] = row
	}

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

	// stream fans the fixed request list over `clients` concurrent
	// submitters; onDone (when set) observes each completion.
	stream := func(pool *serve.Service, preds []float64, errs []error, onDone func()) {
		work := make(chan int, requests)
		for i := 0; i < requests; i++ {
			work <- i
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					v, err := pool.Predict("dt", rows[i])
					preds[i], errs[i] = v, err
					if onDone != nil {
						onDone()
					}
				}
			}()
		}
		wg.Wait()
	}

	var killPool *serve.Service
	for _, lanes := range []int{1, 2, 4} {
		pool, err := serve.NewSharded(parts, lanes, factory, svcCfg)
		if err != nil {
			return nil, err
		}
		if _, err := pool.Register("dt", mdl); err != nil {
			pool.Close()
			return nil, err
		}
		preds := make([]float64, requests)
		errs := make([]error, requests)
		start := time.Now()
		stream(pool, preds, errs, nil)
		secs := time.Since(start).Seconds()
		for i := range errs {
			if errs[i] != nil {
				pool.Close()
				return nil, fmt.Errorf("experiments: servescale lanes=%d: %w", lanes, errs[i])
			}
			if preds[i] != oracle[i] {
				st.ResultsIdentical = false
			}
		}
		sv := pool.Stats().Serve
		used := 0
		for _, ls := range sv.Lanes {
			if ls.Samples > 0 {
				used++
			}
		}
		st.Points = append(st.Points, ServeScalePoint{
			Lanes:      lanes,
			Seconds:    secs,
			Throughput: float64(requests) / secs,
			Batches:    sv.Batches,
			LanesUsed:  used,
		})
		if lanes == 4 {
			killPool = pool // reused for the chaos leg below
		} else {
			pool.Close()
		}
	}
	if n := len(st.Points); n > 1 && st.Points[n-1].Seconds > 0 {
		st.ScalingX = st.Points[0].Seconds / st.Points[n-1].Seconds
	}

	// Chaos leg: replay the stream against the 4-lane pool and close one
	// lane's session once a quarter of the requests have landed.  Requests
	// in flight on the corpse must be requeued onto survivors; nothing may
	// fail with anything but the typed unavailability.
	defer killPool.Close()
	var done atomic.Int64
	var killOnce sync.Once
	preds := make([]float64, requests)
	errs := make([]error, requests)
	stream(killPool, preds, errs, func() {
		if done.Add(1) == int64(requests/4) {
			killOnce.Do(func() { killPool.LaneSession(1).Close() })
		}
	})
	for i := range errs {
		switch {
		case errs[i] == nil:
			st.Kill.Succeeded++
			if preds[i] != oracle[i] {
				st.ResultsIdentical = false
			}
		case errors.Is(errs[i], serve.ErrUnavailable):
			st.Kill.Unavailable++
		default:
			st.Kill.FailedOther++
		}
	}
	sv := killPool.Stats().Serve
	st.Kill.Lanes = len(sv.Lanes)
	st.Kill.Requeued = sv.Requeued
	st.Kill.HealthyAfter = sv.LanesHealthy
	return st, nil
}

// ServeScaleBench adapts the raw bench to the experiment Result table.
func ServeScaleBench(p Preset) (*Result, error) {
	st, err := ServeScaleBenchRaw(p)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "servescale", Title: "sharded serving: throughput vs pool width (2ms WAN) + lane-kill failover",
		XLabel: "lanes", Unit: "seconds / rps"}
	for _, pt := range st.Points {
		res.Rows = append(res.Rows, Row{X: float64(pt.Lanes), Series: map[string]float64{
			"seconds": pt.Seconds,
			"rps":     pt.Throughput,
		}})
	}
	return res, nil
}

// WriteServeScaleBenchJSON runs the bench and writes the JSON baseline.
func WriteServeScaleBenchJSON(path string, p Preset) (*ServeScaleStats, error) {
	st, err := ServeScaleBenchRaw(p)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, fmt.Errorf("experiments: write %s: %w", path, err)
	}
	return st, nil
}
