package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // exactly 10 beyond p99.9
		{9999, 99, true},
		{4000, 99, true}, // 40 beyond p99, 4 beyond p99.9
		{1000, 99, true},
		{999, 95, true}, // 9 beyond p99
		{240, 95, true},
		{200, 95, true},
		{199, 90, true}, // 9 beyond p95
		{100, 90, true},
		{99, 90, false}, // 9 beyond p90: nothing on the ladder qualifies
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = p%g, %v; want p%g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentileSorted(s, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190", got)
	}
	if got := samplesBeyond(200, 95); got != 10 {
		t.Errorf("samples beyond p95 of 200 = %d, want 10", got)
	}
	if got := percentileSorted(s, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %g, want 100", got)
	}
	if got := percentileSorted([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{ID: 1, Layer: "core", Start: 100, End: 200}
	children := []span{
		{ID: 2, Layer: "transport", Parent: 1, Start: 110, End: 140},
		{ID: 3, Layer: "transport", Parent: 1, Start: 130, End: 150}, // overlaps the first: two lanes waiting at once
		{ID: 4, Layer: "transport", Parent: 1, Start: 135, End: 138}, // inside both
		{ID: 5, Layer: "transport", Parent: 1, Start: 170, End: 180},
		{ID: 6, Layer: "transport", Parent: 1, Start: 190, End: 230}, // runs past the parent: clipped
		{ID: 7, Layer: "transport", Parent: 1, Start: 50, End: 90},   // before the parent: ignored
	}
	// Covered: [110,150) + [170,180) + [190,200) = 60 of 100.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}

	other := span{ID: 8, Layer: "core", Start: 0, End: 10, Run: 1}
	byLayer := selfByLayer(append(append([]span{parent}, children...), other), 0)
	if byLayer["core"] != 40 {
		t.Errorf("core self time of run 0 = %d, want 40", byLayer["core"])
	}
	if want := int64(30 + 20 + 3 + 10 + 40 + 40); byLayer["transport"] != want {
		t.Errorf("transport self time = %d, want %d", byLayer["transport"], want)
	}
}

// fakeClock advances only when someone sleeps on it or a request "runs".
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	service := []time.Duration{2, 25, 2, 2, 2} // ms; the second request stalls
	i := 0
	res := openLoop(clk, clk.Now(), 10*time.Millisecond, len(service), func() bool {
		clk.Sleep(service[i] * time.Millisecond)
		i++
		return true
	})
	// Due at 0, 10, 20, 30, 40 ms.  The stall ends at 35 ms, so request 2
	// goes out 15 ms late and request 3, sent at 37 ms, 7 ms late; both are
	// charged the wait.  Request 4 is on time again.
	wantLatency := []float64{2, 25, 17, 9, 2}
	wantLate := []float64{0, 0, 15, 7, 0}
	if res.attempted != 5 || res.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 5 and 0", res.attempted, res.failed)
	}
	for k := range wantLatency {
		if math.Abs(res.latencyMs[k]-wantLatency[k]) > 1e-9 {
			t.Errorf("request %d latency %g ms, want %g", k, res.latencyMs[k], wantLatency[k])
		}
		if math.Abs(res.lateMs[k]-wantLate[k]) > 1e-9 {
			t.Errorf("request %d sent %g ms late, want %g", k, res.lateMs[k], wantLate[k])
		}
	}
}

func TestOpenLoopFailsRequestsItCannotSendInTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	calls := 0
	res := openLoop(clk, clk.Now(), 100*time.Millisecond, 15, func() bool {
		calls++
		if calls == 1 {
			clk.Sleep(1500 * time.Millisecond) // one long stall
		}
		return calls != 3 // and one request the server fails
	})
	// Requests due at 100..400 ms are more than 1 s late at 1500 ms and are
	// dropped; the one due at 500 ms is sent exactly 1 s late.
	if res.attempted != 15 || calls != 11 {
		t.Fatalf("attempted %d, sent %d; want 15 and 11", res.attempted, calls)
	}
	if res.failed != 5 {
		t.Errorf("failed %d, want 4 dropped + 1 refused", res.failed)
	}
	if len(res.latencyMs) != 10 {
		t.Errorf("%d latencies, want 10", len(res.latencyMs))
	}
}

func TestClosedLoopStopsAtDeadlineAfterMinimum(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	res := closedLoop(clk, clk.Now().Add(10*time.Millisecond), 8, nil, func() bool {
		clk.Sleep(4 * time.Millisecond)
		return true
	})
	// The deadline passes after 3 requests; the minimum keeps it going to 8.
	if res.attempted != 8 {
		t.Errorf("attempted %d, want 8", res.attempted)
	}
	res = closedLoop(clk, clk.Now().Add(10*time.Millisecond), 0, nil, func() bool {
		clk.Sleep(4 * time.Millisecond)
		return false
	})
	if res.attempted != 3 || res.failed != 3 || len(res.latencyMs) != 0 {
		t.Errorf("attempted %d failed %d latencies %d, want 3, 3, 0", res.attempted, res.failed, len(res.latencyMs))
	}
}

// A machine that ran at the reference speed for a second and at half of it
// for the next converts a wall-clock second of busy work in each into 1 s
// and 0.5 s, a request of a few milliseconds by the speed around it, and
// nothing at all when there is no machine.
func TestMachineConvertsWallTimeByTheSpeedSampledDuringIt(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := &machine{t0: t0}
	for k := 1; k <= 500; k++ { // a burst every 4 ms for 2 s
		m.at = append(m.at, int64(k)*int64(4*time.Millisecond))
		speed := referenceSpeed
		if k > 250 {
			speed = referenceSpeed / 2
		}
		m.speed = append(m.speed, speed)
	}
	m.index()
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-2*want } // a burst on the boundary counts
	if got := m.steady(t0, 1, 1); !near(got, 1) {
		t.Errorf("first second converts to %g s, want 1", got)
	}
	if got := m.steady(t0.Add(time.Second), 1, 1); !near(got, 0.5) {
		t.Errorf("second second converts to %g s, want 0.5", got)
	}
	if got := m.steady(t0.Add(500*time.Millisecond), 1, 1); !near(got, 0.75) {
		t.Errorf("a second across the change converts to %g s, want 0.75", got)
	}
	// 6 ms deep inside the slow second: smoothed over the 100 ms around it.
	if got := m.steady(t0.Add(1500*time.Millisecond), 0.006, 1); !near(got, 0.003) {
		t.Errorf("6 ms in the slow state convert to %g s, want 0.003", got)
	}
	// Only the share of the interval a core worked for the process stretches.
	if got := m.steady(t0.Add(time.Second), 1, 0.25); !near(got, 0.875) {
		t.Errorf("a slow second a quarter busy converts to %g s, want 0.875", got)
	}
	if got := m.steady(t0.Add(time.Second), 1, 0); got != 1 {
		t.Errorf("a slow second of waiting converts to %g s, want 1", got)
	}
	if got := busyShare(3.2, 2); got != 1 {
		t.Errorf("busy share of 3.2 CPU seconds in 2 s is %g, want 1", got)
	}
	// Before the first and after the last burst the nearest samples stand in.
	if got := m.steady(t0.Add(-time.Second), 0.2, 1); !near(got, 0.2) {
		t.Errorf("an interval before the first burst converts to %g s, want 0.2", got)
	}
	if got := m.steady(t0.Add(3*time.Second), 0.2, 1); !near(got, 0.1) {
		t.Errorf("an interval after the last burst converts to %g s, want 0.1", got)
	}
	var none *machine
	if got := none.steady(t0, 1.25, 1); got != 1.25 {
		t.Errorf("no machine converts 1.25 s to %g", got)
	}
}

func TestBoundComparison(t *testing.T) {
	cases := []struct {
		better    string
		base, cur float64
		bound     float64
		want      bool
	}{
		{"lower", 10, 10.9, 0.10, true},
		{"lower", 10, 11.1, 0.10, false},
		{"lower", 10, 5, 0.10, true}, // an improvement is never out of bound
		{"higher", 100, 91, 0.10, true},
		{"higher", 100, 89, 0.10, false},
		{"higher", 100, 150, 0.10, true},
		{"higher", 0.80, 0.77, 0.05, true}, // test_accuracy: 3.75% of 0.80
		{"higher", 0.80, 0.75, 0.05, false},
	}
	for _, c := range cases {
		if got := withinBound(c.better, c.base, c.cur, c.bound); got != c.want {
			t.Errorf("withinBound(%s, %g -> %g, %g) = %v, want %v (worse by %g)",
				c.better, c.base, c.cur, c.bound, got, c.want, worsening(c.better, c.base, c.cur))
		}
	}
	// failed_frac has no tolerance: any increase is a regression.
	if !failedWithinBound(0, 1000, 0, 1200) {
		t.Error("no failures on either side must pass")
	}
	if failedWithinBound(0, 1000, 1, 100000) {
		t.Error("one failure against none must not pass")
	}
	if !failedWithinBound(2, 1000, 1, 1000) {
		t.Error("fewer failures must pass")
	}
	if failedWithinBound(1, 1000, 1, 500) {
		t.Error("the same failures over fewer operations is a larger share")
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{3, 1, 2, 10, 9, 4, 8, 5, 7, 6}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want %g", got, want)
	}
	// statistics.quantiles([9, 10, 11, 12, 13], n=4) == [9.5, 11.0, 12.5]
	if got, want := quartileSpread([]float64{10, 12, 11, 13, 9}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 9..13 = %g, want %g", got, want)
	}
}

func TestQualityDefinitions(t *testing.T) {
	// 4 balanced classes, one of eight rows wrong: accuracy 7/8, and the
	// one-hot squared error 2·(1/8) over the label variance 4·(1/4·3/4).
	y := []float64{0, 0, 1, 1, 2, 2, 3, 3}
	preds := []float64{0, 0, 1, 1, 2, 2, 3, 0}
	acc, nmse := quality(4, preds, y)
	if acc != 0.875 || math.Abs(nmse-0.25/0.75) > 1e-12 {
		t.Errorf("classification quality = %g, %g; want 0.875, %g", acc, nmse, 0.25/0.75)
	}
	// Regression: labels with standard deviation 1; predicting the mean
	// scores nmse 1, and rows within one deviation count as right.
	y = []float64{-1, 1, -1, 1}
	acc, nmse = quality(0, []float64{0, 0, 0, 0}, y)
	if acc != 1 || nmse != 1 {
		t.Errorf("mean predictor = %g, %g; want 1, 1", acc, nmse)
	}
	acc, nmse = quality(0, []float64{-1, 1, 1.5, 1}, y)
	if acc != 0.75 || nmse != 2.5*2.5/4 {
		t.Errorf("regression quality = %g, %g; want 0.75, %g", acc, nmse, 2.5*2.5/4)
	}
	if !closeToNonPrivate(2, 0.78, 0, 0.80, 0) || closeToNonPrivate(2, 0.76, 0, 0.80, 0) {
		t.Error("classification margin is 0.03 of accuracy")
	}
	if !closeToNonPrivate(0, 0, 1.14, 0, 1) || closeToNonPrivate(0, 0, 1.16, 0, 1) {
		t.Error("regression margin is 1.15 times the error")
	}
}

// BENCHMARK.json is written by hand; this keeps it and the program saying
// the same thing, within the limits the driver enforces.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // loadSpec reads from the repository root
		t.Fatal(err)
	}
	defer os.Chdir("benchmark")
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	seen := make(map[string]bool)
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if len(spec.PerLayer) != 63 {
		t.Errorf("%d per-layer metrics, want 63", len(spec.PerLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", spec.RunSeconds)
	}
}
