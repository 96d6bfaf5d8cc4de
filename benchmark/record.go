package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
)

// outDir is where records and span files go (relative to the repo root the
// command runs from).
const outDir = "benchmark/out"

// phaseCount is one phase's operations.
type phaseCount struct {
	Phase     string `json:"phase"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is everything one run reports; it is printed and written to
// benchmark/out/<workload>.json.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Reps       int     `json:"train_repetitions"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Digest     string  `json:"model_digest"`

	Metrics map[string]summary `json:"metrics"`
	Extra   map[string]summary `json:"extra,omitempty"` // reported, not gated
	Phases  []phaseCount       `json:"phases"`
	Checks  []checkResult      `json:"checks"`
}

func newRecord(w workload, seed int64, seconds float64, traced bool) *record {
	return &record{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit:  commit(),
		Metrics: make(map[string]summary), Extra: make(map[string]summary),
	}
}

// commit is `git rev-parse HEAD`, or "unknown" outside a git checkout; git
// is not started where there is no .git, so it never searches parent
// directories of the checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (r *record) set(name string, s summary)   { r.Metrics[name] = s }
func (r *record) extra(name string, s summary) { r.Extra[name] = s }

func (r *record) count(phase string, attempted, failed int) {
	r.Phases = append(r.Phases, phaseCount{phase, attempted, attempted - failed, failed})
}

func (r *record) check(name string, ok bool, detail string) {
	if ok {
		detail = ""
	}
	r.Checks = append(r.Checks, checkResult{name, ok, detail})
}

// totals: operations attempted and failed, a failed check counting as one
// failed operation; correct is false when any check failed.
func (r *record) totals() (attempted, failed int, correct bool) {
	correct = true
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	for _, c := range r.Checks {
		attempted++
		if !c.OK {
			failed++
			correct = false
		}
	}
	return attempted, failed, correct
}

// print writes the human-readable report.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  traced %v  R=%d  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Reps, r.NProc, r.GOMAXPROCS, r.GoVersion, r.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	table := func(title string, m map[string]summary) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(tw, "%s\tvalue\tunit\tn\tmin\tmax\n", title)
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := m[name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%d\t%.6g\t%.6g\n", name, s.Value, s.Unit, s.N, s.Min, s.Max)
		}
	}
	table("metric", r.Metrics)
	table("extra", r.Extra)
	fmt.Fprintf(tw, "phase\tattempted\tsucceeded\tfailed\n")
	for _, p := range r.Phases {
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\n", p.Phase, p.Attempted, p.Succeeded, p.Failed)
	}
	tw.Flush()
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s %s\n", status, c.Name, c.Detail)
	}
	attempted, failed, _ := r.totals()
	fmt.Fprintf(w, "failed_frac %.6g (%d of %d)\n", float64(failed)/float64(attempted), failed, attempted)
}

// write stores the record next to the span files.
func (r *record) write() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Traced {
		name = r.Workload + ".traced.json"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}

// resultLine is the last line of standard output: the object the driver
// reads.
func (r *record) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed, correct := r.totals()
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, make(map[string]value, len(r.Metrics))}
	for name, s := range r.Metrics {
		out.Metrics[name] = value{s.Value, s.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

// peakRSSMB is getrusage's max resident set size of this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// ---------------------------------------------------------------------------
// BENCHMARK.json: the metric lists and bounds

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchmarkSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// conforms checks that the record carries exactly the metrics the spec
// lists for this kind of run, with the spec's units, and none that is zero
// where the spec gives a bound.
func (r *record) conforms(spec *benchmarkSpec) error {
	want := spec.EndToEnd
	if r.Traced {
		want = spec.PerLayer
	}
	if len(want) != len(r.Metrics) {
		return fmt.Errorf("run reports %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		s, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json is not reported", m.Name)
		}
		if s.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, s.Unit, m.Unit)
		}
		if !r.Traced && s.Value == 0 {
			return fmt.Errorf("end-to-end metric %s is zero", m.Name)
		}
	}
	return nil
}
