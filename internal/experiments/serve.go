package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

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

// serveBaseline is the baseline for the prediction serving layer
// (BENCH_serve.json): it brings one federation up under simulated WAN
// latency (2 ms per message unless the preset overrides it), trains a tree,
// and replays the same stream of concurrent single-sample requests through
// Services with per-request round chains and with micro-batched coalescing
// at several windows, recording wall time and throughput per point.
func serveBaseline(p Preset) (*Baseline, error) {
	delay, jitter := p.NetDelay, p.NetJitter
	if delay == 0 {
		delay = 2 * time.Millisecond
	}

	requests, clients := 32, 8
	ds := dataset.SyntheticClassification(requests, p.DBar*p.M, p.Classes, 2.0, 99)
	parts, err := dataset.VerticalPartition(ds, p.M, 0)
	if err != nil {
		return nil, err
	}
	cfg := cfgFor(p, core.Basic, 0)
	cfg.Tree.MaxDepth = 3
	cfg.NetDelay = delay
	cfg.NetJitter = jitter
	sess, err := core.NewSession(parts, cfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	mdl, err := core.Train(sess, core.TrainSpec{Model: core.KindDT})
	if err != nil {
		return nil, err
	}
	oracle, err := core.PredictAll(sess, mdl, parts)
	if err != nil {
		return nil, err
	}
	rows := flatRows(parts, requests)

	identical := true
	var points []*Baseline
	var perRequestSecs, bestSecs float64
	for k, pt := range []struct {
		label    string // "per-request" (MaxBatch=1) or "window-<ms>ms"
		window   time.Duration
		maxBatch int
	}{
		{"per-request", 0, 1},
		{"window-0ms", 0, 256},
		{"window-2ms", 2 * time.Millisecond, 256},
		{"window-5ms", 5 * time.Millisecond, 256},
	} {
		svc, err := serve.New(sess, parts, serve.Config{Window: pt.window, MaxBatch: pt.maxBatch, MaxQueue: 4096})
		if err != nil {
			return nil, err
		}
		if _, err := svc.Register("dt", mdl); err != nil {
			return nil, err
		}

		start := time.Now()
		preds, errs := streamRequests(svc, rows, clients, nil)
		secs := time.Since(start).Seconds()
		svc.Drain() // flush, keep the shared session alive for the next point
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("experiments: serve point %s: %w", pt.label, err)
			}
		}
		for i := range preds {
			if preds[i] != oracle[i] {
				identical = false
			}
		}
		if k == 0 {
			perRequestSecs, bestSecs = secs, secs
		}
		bestSecs = min(bestSecs, secs)

		sv := svc.Stats().Serve
		point := &Baseline{}
		point.Set("label", pt.label)
		point.Set("window_ms", msOf(pt.window))
		point.Set("max_batch", pt.maxBatch)
		point.Set("seconds", secs)
		point.Set("throughput_rps", float64(requests)/secs)
		point.Set("batches", sv.Batches)
		point.Set("avg_batch", ratio(float64(sv.Coalesced), float64(sv.Batches)))
		point.Set("max_batch_seen", sv.MaxBatch)
		points = append(points, point)
	}

	b := &Baseline{}
	b.Set("key_bits", p.KeyBits)
	b.Set("m", p.M)
	b.Set("requests", requests)
	b.Set("clients", clients)
	b.Set("net_delay_ms", msOf(delay))
	b.Set("net_jitter_ms", msOf(jitter))
	b.Set("seed", 99)
	b.Set("points", points)
	// Per-request wall time divided by the best point's wall time.
	b.Set("micro_batch_speedup", ratio(perRequestSecs, bestSecs))
	// Every point's served predictions matched the offline batched
	// pipeline bit-for-bit.
	b.Set("results_identical", identical)
	return b, nil
}
