package main

import (
	"fmt"
	"math"
	"time"

	pivot "repro"
)

// share is a stage's part of the -seconds budget.
func share(seconds, part float64) time.Duration {
	return time.Duration(seconds * part * float64(time.Second))
}

// The latency tails the serving phases report, each with ten samples beyond
// it in the fewest requests its phase sends.  The closed loop reports p95.
// The open loop times from the due time, so one stall of the host delays
// every request due during it: a third of a second, which this box does
// every minute or so, is 6% of the phase, and p95 then read 22 or 76 ms in
// two runs of ten and 6 or 12 ms in the rest.  p90 needs a stall of half a
// second to move.
var tailP = [servePhases]float64{phaseRead: 95, phaseOpen: 90}

// timed is a series of wall-clock measurements with what the machine-speed
// conversion needs beside each: the instant it began and the share of it the
// process was on a core (one share for all when busy has one element).
type timed struct {
	from []time.Time
	secs []float64
	busy []float64
}

func (t *timed) add(from time.Time, secs, cpu float64) {
	t.from, t.secs, t.busy = append(t.from, from), append(t.secs, secs), append(t.busy, busyShare(cpu, secs))
}

// steadyAll converts every measurement of t.
func (m *machine) steadyAll(t timed) []float64 {
	out := make([]float64, len(t.secs))
	for i, secs := range t.secs {
		busy := t.busy[0]
		if len(t.busy) > 1 {
			busy = t.busy[i]
		}
		out[i] = m.steady(t.from[i], secs, busy)
	}
	return out
}

// measureSetUp sets the system up minReps to maxReps times, for as long as
// setUpBudget lasts, and keeps the last one.
func measureSetUp(rec *record, w workload, seed int64, minReps, maxReps int) (*system, timed, error) {
	var sys *system
	var t timed
	begin := time.Now()
	for len(t.secs) < minReps || (len(t.secs) < maxReps && time.Since(begin) < setUpBudget) {
		if sys != nil {
			sys.tearDown()
		}
		cpu, start := cpuSeconds(), time.Now()
		var err error
		if sys, err = setUp(w, seed); err != nil {
			return nil, t, err
		}
		t.add(start, time.Since(start).Seconds(), cpuSeconds()-cpu)
	}
	rec.count("setup", len(t.secs), 0)
	rec.check("set-up: PSI alignment restores the training order", sys.aligned(), "")
	return sys, t, nil
}

// recordTraining records what the repetitions sent and learnt and runs
// checks (1) on the held-out batch, (2) and (3); their timings are
// recordTimes'.  It returns the model the later stages serve.
func recordTraining(rec *record, sys *system, reps []trainRep) (pivot.Predictor, error) {
	w := sys.w
	var mb []float64
	wrong, predicted := 0, 0
	for _, r := range reps {
		mb = append(mb, float64(r.stats.BytesSent)/1e6)
		predicted += w.HeldOut * len(r.predictS)
		if !r.repeatable {
			wrong += w.HeldOut // a repeated batch disagreed with the first
		}
		want, err := plainAll(r.model, sys.fed.Parts(), sys.in.held.X)
		if err != nil {
			return nil, err
		}
		for i, got := range r.predictions {
			if !agrees(r.model, got, want[i]) {
				wrong++
			}
		}
	}
	rec.count("train", len(reps), 0)
	rec.count("predict", predicted, wrong)
	rec.check("(1) federated predictions equal the plaintext walk of the released model", wrong == 0,
		fmt.Sprintf("%d of %d held-out predictions differ", wrong, predicted))
	rec.set("train_mb_sent", summarize(mb, "MB"))

	// Quality on the large held-out set, by the plaintext walk: check (1)
	// is what makes it the federated predictions' quality.
	last := reps[len(reps)-1]
	preds, err := plainAll(last.model, sys.fed.Parts(), sys.in.qual.X)
	if err != nil {
		return nil, err
	}
	acc, nmse := quality(w.Classes, preds, sys.in.qual.Y)
	npPreds, err := nonPrivatePredict(w.Kind, sys.in.train, sys.cfg, sys.in.qual.X)
	if err != nil {
		return nil, err
	}
	npAcc, npNmse := quality(w.Classes, npPreds, sys.in.qual.Y)
	rec.set("test_accuracy", single(acc, "fraction"))
	rec.set("test_mse", single(nmse, "ratio"))
	rec.extra("np_accuracy", single(npAcc, "fraction"))
	rec.extra("np_mse", single(npNmse, "ratio"))
	rec.check("(2) quality within the margin of the non-private baseline", closeToNonPrivate(w.Classes, acc, nmse, npAcc, npNmse),
		fmt.Sprintf("accuracy %.4f vs %.4f, mse %.4f vs %.4f", acc, npAcc, nmse, npNmse))

	same := true
	for _, r := range reps {
		same = same && r.digest == last.digest
	}
	rec.Digest = last.digest
	rec.check("(3) the saved model is identical across repetitions", same, "")
	if rec.Seed == 1 && w.Digest != "" {
		rec.check("(3) the saved model matches the digest pinned for seed 1", last.digest == w.Digest,
			fmt.Sprintf("got %s", last.digest))
	}
	return last.model, nil
}

// runServing trains the second model where the workload has one, runs the
// serving stage and records its operations and checks (1) and (4).
func runServing(rec *record, sys *system, mdl pivot.Predictor, seed int64, d serveDurations) (*serveOutcome, error) {
	models := map[string]pivot.Predictor{string(sys.w.Kind): mdl}
	if sys.w.ForestShare > 0 {
		rf, err := sys.fed.Train(pivot.TrainSpec{Model: pivot.KindRF})
		if err != nil {
			return nil, fmt.Errorf("train forest: %w", err)
		}
		rec.count("train.rf", 1, 0)
		models[forestName] = rf
	}
	out, err := sys.serveStage(models, seed, d)
	if err != nil {
		return nil, err
	}
	wrong := 0
	for p := 0; p < servePhases; p++ {
		rec.count(servePhaseNames[p], out.load[p].attempted, out.load[p].failed+out.wrong[p])
		wrong += out.wrong[p]
	}
	rec.count("update", len(out.updateS)+out.updateFailed, out.updateFailed)
	rec.check("(1) served predictions equal the plaintext walk of the version that answered", wrong == 0,
		fmt.Sprintf("%d replies differ", wrong))
	rec.check("(4) versions are monotonic per connection, end at 1 + updates, nothing refused",
		out.versionsOK && out.refused == 0, fmt.Sprintf("%d updates installed, %d requests refused or expired", out.installed, out.refused))
	return out, nil
}

// recordTimes turns everything the run timed into the end-to-end timing
// metrics: each wall-clock measurement converted to the reference machine's
// time (machine.go), with the wall-clock value kept beside it as <metric>_wall.
// With a nil machine the two are the same and only the metric is recorded.
func recordTimes(rec *record, m *machine, w workload, setUps timed, reps []trainRep, out *serveOutcome) {
	// report computes one metric twice: from the converted and from the
	// wall-clock seconds of t.
	report := func(name string, t timed, stat func(secs []float64) summary) {
		rec.set(name, stat(m.steadyAll(t)))
		if m != nil {
			rec.extra(name+"_wall", stat(t.secs))
		}
	}
	if m != nil {
		speeds := sortedCopy(m.speed)
		rec.extra("machine.fast_speed", summary{percentileSorted(speeds, 98), "1/s", len(speeds), speeds[0], speeds[len(speeds)-1]})
		rec.extra("machine.relative_speed", single(m.relativeSpeed(m.t0, time.Now()), "ratio"))
	}
	seconds := func(secs []float64) summary { return summarize(secs, "s") }

	report("setup_s", setUps, seconds)

	var trains, predicts timed
	for _, r := range reps {
		trains.add(r.trainStart, r.trainS, r.trainCPU)
		for k, secs := range r.predictS {
			predicts.add(r.predictFrom[k], secs, r.predictCPU[k])
		}
	}
	report("train_s", trains, seconds)
	report("predict_samples_per_s", predicts, func(secs []float64) summary {
		rate := make([]float64, len(secs))
		for i, s := range secs {
			rate[i] = float64(w.HeldOut) / s
		}
		return summarize(rate, "1/s")
	})

	// A phase's latencies in seconds with their starts.  Their busy share
	// is the phase's CPU seconds per second a request was outstanding: the
	// gaps of an open-loop schedule are nobody's latency.
	latencies := func(phase int) timed {
		l := out.load[phase]
		t := timed{from: l.from, secs: make([]float64, len(l.latencyMs))}
		open := make([]span, len(l.latencyMs))
		for i, v := range l.latencyMs {
			t.secs[i] = v / 1e3
			lo := t.from[i].Sub(out.began[phase]).Nanoseconds()
			open[i] = span{Start: lo, End: lo + int64(v*1e6)}
		}
		outstanding := covered(math.MinInt64, math.MaxInt64, open)
		t.busy = []float64{busyShare(out.cpu[phase], float64(outstanding)/1e9)}
		return t
	}
	percentile := func(p float64) func(secs []float64) summary {
		return func(secs []float64) summary {
			s := sortedCopy(secs)
			if len(s) == 0 {
				return summary{Unit: "ms"}
			}
			return summary{Value: 1e3 * percentileSorted(s, p), Unit: "ms", N: len(s), Min: 1e3 * s[0], Max: 1e3 * s[len(s)-1]}
		}
	}
	// A phase's completed requests over the time of the whole phase.
	throughput := func(name string, phase int) {
		var whole timed
		whole.add(out.began[phase], out.wall[phase].Seconds(), out.cpu[phase])
		report(name, whole, func(secs []float64) summary {
			return single(float64(len(out.load[phase].latencyMs))/secs[0], "1/s")
		})
	}
	throughput("serve_rps", phaseRead)
	report("serve_p50_ms", latencies(phaseRead), percentile(50))
	report("serve_p95_ms", latencies(phaseRead), percentile(tailP[phaseRead]))
	report("serve_open_p90_ms", latencies(phaseOpen), percentile(tailP[phaseOpen]))
	if late := sortedCopy(out.load[phaseOpen].lateMs); len(late) > 0 {
		rec.extra("serve_open_late_p90_ms", summary{percentileSorted(late, tailP[phaseOpen]), "ms", len(late), late[0], late[len(late)-1]})
	}
	throughput("serve_rw_rps", phaseRW)
	rw := busyShare(out.cpu[phaseRW], out.wall[phaseRW].Seconds())
	report("update_s", timed{out.updateFrom, out.updateS, []float64{rw}}, seconds)
}

// checkTails checks that the read and open phases completed enough requests
// for the percentile reported of them to mean something.
func checkTails(rec *record, out *serveOutcome) {
	for _, phase := range []int{phaseRead, phaseOpen} {
		n := len(out.load[phase].latencyMs)
		best, _ := highestPercentile(n)
		rec.check(fmt.Sprintf("%s phase has %d samples beyond p%g", servePhaseNames[phase], minBeyond, tailP[phase]),
			n > 0 && samplesBeyond(n, tailP[phase]) >= minBeyond, fmt.Sprintf("n=%d supports p%g", n, best))
	}
}

// runUntraced is the benchmark proper: every end-to-end metric, tracing off.
func runUntraced(w workload, seed int64, seconds float64) (*record, error) {
	rec := newRecord(w, seed, seconds, false)
	m := startMachine()
	defer m.finish()
	sys, setUps, err := measureSetUp(rec, w, seed, minSetUps, maxSetUps)
	if err != nil {
		return nil, err
	}
	defer sys.tearDown()

	reps, err := sys.trainStage(share(seconds, trainShare))
	if err != nil {
		return nil, err
	}
	mdl, err := recordTraining(rec, sys, reps)
	if err != nil {
		return nil, err
	}
	rec.Reps = len(reps)

	out, err := runServing(rec, sys, mdl, seed, serveDurations{
		read: share(seconds, readShare), open: share(seconds, openShare), rw: share(seconds, rwShare),
		minRead: minReadRequests, minOpen: minOpenRequests,
	})
	if err != nil {
		return nil, err
	}
	m.finish()
	checkTails(rec, out)
	recordTimes(rec, m, w, setUps, reps, out)
	rec.set("peak_rss_mb", single(peakRSSMB(), "MB"))
	return rec, nil
}
