package main

import (
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Kernel sizes: elements per call.  The Paillier count shrinks with the key
// so that the eight kernels stay within a few seconds at 1024 bits.
const (
	mpcKernelElems = 1024
	mpcKernelIters = 2
	tracedReps     = 2 // untraced and traced repetitions, interleaved
	probeRequests  = 100
)

func paillierKernelElems(bits int) int {
	if bits >= 1024 {
		return 64
	}
	return 256
}

// runtimeSample is the Go runtime's and the process's running totals.
type runtimeSample struct {
	allocBytes, mallocs, pauseNs uint64
	gcCycles                     uint32
	cpuS                         float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{ms.TotalAlloc, ms.Mallocs, ms.PauseTotalNs, ms.NumGC, cpuSeconds()}
}

// calibrateModexp times one fixed 1024-bit math/big modular exponentiation:
// a machine-speed reference, so numbers from two machines compare as ratios.
func calibrateModexp(tr *tracer) float64 {
	pattern := func(seed byte) *big.Int {
		b := make([]byte, 128)
		for i := range b {
			b[i] = seed + byte(i*37)
		}
		b[0] |= 0x80
		b[127] |= 1
		return new(big.Int).SetBytes(b)
	}
	base, exp, mod := pattern(3), pattern(5), pattern(7)
	var us []float64
	start := tr.now()
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		new(big.Int).Exp(base, exp, mod)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	tr.leaf("kernel.runtime.calib_modexp", "runtime", 0, -1, start, tr.now())
	return median(us)
}

// runTraced is the separately timed per-layer run.  It repeats the
// workload's {train, predict} on the facade (for the counters the program
// already exposes) and, interleaved, on a federation the benchmark
// assembles itself with a span-recording endpoint under every party; runs a
// shortened serving stage; then times each layer's vector functions
// directly.  No end-to-end metric is taken from it.
func runTraced(w workload, seed int64, seconds float64) (*record, error) {
	tr := newTracer()
	e2e := newRecord(w, seed, seconds, true) // checks, phases; its metrics become extras
	sys, setUps, err := measureSetUp(e2e, w, seed, 1, 1)
	if err != nil {
		return nil, err
	}
	defer sys.tearDown()
	layer := make(map[string]summary)

	// dataset and psi: their part of set-up, called directly.
	start := tr.now()
	if _, err := w.generate(seed); err != nil {
		return nil, err
	}
	end := tr.now()
	tr.leaf("generate+partition", "dataset", 0, -1, start, end)
	layer["dataset.gen_s"] = single(float64(end-start)/1e9, "s")
	start = tr.now()
	if err := psiAlign(sys.in.ids); err != nil {
		return nil, fmt.Errorf("psi align: %w", err)
	}
	end = tr.now()
	tr.leaf("align", "psi", 0, -1, start, end)
	layer["psi.align_s"] = single(float64(end-start)/1e9, "s")

	// {train, predict} on the facade and on the traced federation, turn
	// about, so that machine drift hits both alike.
	tf, err := newTracedFed(sys.fed.Parts(), sys.cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("traced federation: %w", err)
	}
	defer tf.close()
	heldX := byClient(sys.fed.Parts(), sys.in.held.X)
	var reps []trainRep
	var tracedS []float64
	var rt []runtimeSample // before/after pairs around each untraced train
	var traced []fedTotals // what each traced train added
	sameModel, sameRounds, samePreds := true, true, true
	for run := 0; run < tracedReps; run++ {
		before := sampleRuntime()
		r, err := sys.train()
		if err != nil {
			return nil, err
		}
		rt = append(rt, before, sampleRuntime())
		if err := sys.predictHeld(&r); err != nil {
			return nil, err
		}
		reps = append(reps, r)

		t0 := tf.totals()
		mdl, wall, err := tf.train(w.Kind, run)
		if err != nil {
			return nil, fmt.Errorf("traced train: %w", err)
		}
		added := tf.totals().since(t0)
		tracedS = append(tracedS, wall.Seconds())
		traced = append(traced, added)
		digest, err := modelDigest(mdl)
		if err != nil {
			return nil, err
		}
		sameModel = sameModel && digest == r.digest
		sameRounds = sameRounds && added.Rounds == r.stats.MPC.Rounds
		preds, err := tf.predict(mdl, heldX, run)
		if err != nil {
			return nil, fmt.Errorf("traced predict: %w", err)
		}
		for i := range preds {
			samePreds = samePreds && agrees(mdl, preds[i], r.predictions[i])
		}
	}
	mdl, err := recordTraining(e2e, sys, reps)
	if err != nil {
		return nil, err
	}
	e2e.Reps = len(reps)
	e2e.check("traced federation reproduces the untraced model digest", sameModel, "")
	e2e.check("traced federation reproduces the untraced mpc.rounds", sameRounds, "")
	e2e.check("traced federation reproduces the untraced held-out predictions", samePreds, "")

	col := func(f func(r trainRep) float64, unit string) summary {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return summarize(xs, unit)
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	layer["mpc.rounds"] = col(func(r trainRep) float64 { return float64(r.stats.MPC.Rounds) }, "count")
	layer["mpc.mults"] = col(func(r trainRep) float64 { return float64(r.stats.MPC.Mults) }, "count")
	layer["mpc.open_values"] = col(func(r trainRep) float64 { return float64(r.stats.MPC.OpenValues) }, "count")
	layer["mpc.comparisons"] = col(func(r trainRep) float64 { return float64(r.stats.MPC.Comparisons) }, "count")
	layer["mpc.divisions"] = col(func(r trainRep) float64 { return float64(r.stats.MPC.Divisions) }, "count")
	layer["paillier.encryptions"] = col(func(r trainRep) float64 { return float64(r.stats.Encryptions) }, "count")
	layer["paillier.dec_shares"] = col(func(r trainRep) float64 { return float64(r.stats.DecShares) }, "count")
	layer["paillier.he_ops"] = col(func(r trainRep) float64 { return float64(r.stats.HEOps) }, "count")
	layer["core.phase_local_s"] = col(func(r trainRep) float64 { return sec(r.stats.Phases.LocalComputation) }, "s")
	layer["core.phase_conversion_s"] = col(func(r trainRep) float64 { return sec(r.stats.Phases.Conversion) }, "s")
	layer["core.phase_mpc_s"] = col(func(r trainRep) float64 { return sec(r.stats.Phases.MPCComputation) }, "s")
	layer["core.phase_update_s"] = col(func(r trainRep) float64 { return sec(r.stats.Phases.ModelUpdate) }, "s")
	layer["core.wire_wait_s"] = col(func(r trainRep) float64 { return sec(r.stats.Phases.WireTotal()) }, "s")
	layer["core.in_flight_peak"] = col(func(r trainRep) float64 { return float64(r.stats.InFlightPeak) }, "count")
	layer["core.update_rounds"] = col(func(r trainRep) float64 { return float64(r.stats.UpdateRounds) }, "count")
	layer["core.nodes_trained"] = col(func(r trainRep) float64 { return float64(r.stats.NodesTrained) }, "count")
	layer["core.predict_rounds"] = col(func(r trainRep) float64 { return float64(r.rounds) }, "count")
	untracedS := col(func(r trainRep) float64 { return r.trainS }, "s")
	layer["core.trace_overhead"] = single(median(tracedS)/untracedS.Value, "ratio")

	tcol := func(f func(t fedTotals) int64, scale float64, unit string) summary {
		var xs []float64
		for _, t := range traced {
			xs = append(xs, float64(f(t))/scale)
		}
		return summarize(xs, unit)
	}
	layer["transport.msgs"] = tcol(func(t fedTotals) int64 { return t.Msgs }, 1, "count")
	layer["transport.bytes"] = tcol(func(t fedTotals) int64 { return t.Bytes }, 1, "B")
	layer["transport.send_s"] = tcol(func(t fedTotals) int64 { return t.SendNs }, 1e9, "s")
	layer["transport.recv_wait_s"] = tcol(func(t fedTotals) int64 { return t.RecvNs }, 1e9, "s")
	layer["mpc.dealer_busy_s"] = tcol(func(t fedTotals) int64 { return t.DealerBusyNs }, 1e9, "s")
	layer["mpc.dealer_bytes"] = tcol(func(t fedTotals) int64 { return t.DealerBytes }, 1, "B")
	layer["mpc.dealer_wait_s"] = tcol(func(t fedTotals) int64 { return t.DealerWaitNs }, 1e9, "s")
	layer["mpc.dealer_reqs"] = tcol(func(t fedTotals) int64 { return t.DealerReqs }, 1, "count")

	var allocMB, mallocsM, gcCycles, pauseMs, cpuS []float64
	for i := 0; i+1 < len(rt); i += 2 {
		a, b := rt[i], rt[i+1]
		allocMB = append(allocMB, float64(b.allocBytes-a.allocBytes)/1e6)
		mallocsM = append(mallocsM, float64(b.mallocs-a.mallocs)/1e6)
		gcCycles = append(gcCycles, float64(b.gcCycles-a.gcCycles))
		pauseMs = append(pauseMs, float64(b.pauseNs-a.pauseNs)/1e6)
		cpuS = append(cpuS, b.cpuS-a.cpuS)
	}
	layer["runtime.alloc_mb"] = summarize(allocMB, "MB")
	layer["runtime.mallocs_m"] = summarize(mallocsM, "M")
	layer["runtime.gc_cycles"] = summarize(gcCycles, "count")
	layer["runtime.gc_pause_ms"] = summarize(pauseMs, "ms")
	layer["runtime.cpu_s"] = summarize(cpuS, "s")

	// A quarter-length serving stage for the serving counters, then the
	// two probes that split serve_p50_ms: backend alone, wire alone.
	out, err := runServing(e2e, sys, mdl, seed, serveDurations{
		read: share(seconds, readShare) / 4, open: share(seconds, openShare) / 4, rw: share(seconds, rwShare) / 4,
		minRead: minReadRequests / 4, minOpen: minOpenRequests / 4,
	})
	if err != nil {
		return nil, err
	}
	recordTimes(e2e, nil, w, setUps, reps, out) // wall-clock: they become the facade.* extras
	c0, c1 := out.counters[0], out.counters[phaseRead+1]
	cN := out.counters[servePhases]
	batches := float64(c1.Batches - c0.Batches)
	layer["serve.avg_batch"] = single(float64(c1.Coalesced-c0.Coalesced)/batches, "count")
	layer["serve.max_batch"] = single(float64(cN.MaxBatch), "count")
	layer["serve.rounds_per_batch"] = single(float64(c1.Rounds-c0.Rounds)/batches, "count")
	layer["serve.rejected"] = single(float64(cN.Rejected-c0.Rejected), "count")
	layer["serve.expired"] = single(float64(cN.Expired-c0.Expired), "count")
	var backendUs, wireUs []float64
	probeFailed := 0
	for i := 0; i < probeRequests; i++ {
		start := tr.now()
		if _, err := sys.stack.predictLocal(string(w.Kind), sys.in.qual.X[i]); err != nil {
			probeFailed++
		}
		end := tr.now()
		tr.leaf("probe.backend", "serve", 0, -1, start, end)
		backendUs = append(backendUs, float64(end-start)/1e3)
	}
	for i := 0; i < 2*probeRequests; i++ {
		start := tr.now()
		if _, err := sys.clis[0].Health(); err != nil {
			probeFailed++
		}
		end := tr.now()
		tr.leaf("probe.wire", "serve", 0, -1, start, end)
		wireUs = append(wireUs, float64(end-start)/1e3)
	}
	e2e.count("serve.probes", 3*probeRequests, probeFailed)
	layer["serve.backend_us"] = summarize(backendUs, "us")
	layer["serve.wire_rtt_us"] = summarize(wireUs, "us")

	// Kernel spans.
	mk, err := mpcKernels(tr, mpcKernelElems, mpcKernelIters)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"mul", "open", "trunc", "ltz", "eqz", "fpdiv", "argmax"} {
		layer["mpc."+name+"_us"] = single(mk[name].us, "us")
	}
	layer["mpc.mul_allocs"] = single(mk["mul"].allocs, "count")
	layer["mpc.trunc_allocs"] = single(mk["trunc"].allocs, "count")
	pk, err := paillierKernels(tr, w.KeyBits, paillierKernelElems(w.KeyBits))
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"encrypt", "encrypt_pooled", "partial_dec", "combine", "scalar_mul", "dot_term", "pack_slot", "dj2_encrypt"} {
		layer["paillier."+name+"_us"] = single(pk[name], "us")
	}
	tk, err := transportKernels(tr)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"rtt_memory", "rtt_tcp", "rtt_tagmux", "marshal_ints"} {
		layer["transport."+name+"_us"] = single(tk[name], "us")
	}
	layer["transport.tcp_mb_per_s"] = single(tk["tcp_mb_per_s"], "MB/s")
	layer["runtime.calib_modexp_us"] = single(calibrateModexp(tr), "us")

	// Spans out; self time per layer of the last traced repetition.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.Name+".jsonl")
	err = tr.writeJSONL(path)
	e2e.check("spans written to "+path, err == nil, fmt.Sprint(err))

	rec := e2e
	for name, s := range e2e.Metrics {
		rec.extra("facade."+name, s)
	}
	for l, ns := range selfByLayer(tr.snapshot(), tracedReps-1) {
		rec.extra("self."+l+"_s", single(float64(ns)/1e9, "s"))
	}
	rec.Metrics = layer
	return rec, nil
}
