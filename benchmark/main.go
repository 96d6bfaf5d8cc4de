// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the system sees, and — in a separate traced
// run — the per-layer numbers behind them.  BENCHMARK.json at the repo root
// names every workload and metric; README.md in this directory explains
// them.
//
//	go run ./benchmark -workload train-mpc            # one workload
//	go run ./benchmark -workload all                  # each in its own process
//	go run ./benchmark -workload train-wan -trace 1   # per-layer metrics + spans
//	go run ./benchmark -selfcheck                     # two runs agree within the bounds
//	go run ./benchmark -selfcheck -n 5                # the spread the bounds were set from
//
// It runs from the repository root.  The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	name := flag.String("workload", "all", "workload name, or all (one child process per workload)")
	seed := flag.Int64("seed", 1, "drives dataset rows, id shuffles, request mix and Config.Seed")
	seconds := flag.Float64("seconds", 0, "how long one run measures (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans written to "+outDir)
	selfcheck := flag.Bool("selfcheck", false, "run the untraced benchmark -n times and compare the runs against the bounds")
	n := flag.Int("n", 2, "with -selfcheck: number of runs (2 compares the pair, more prints the spread)")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, nm := range names {
		if _, ok := findWorkload(nm); !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s, all)", nm, strings.Join(workloadNames(), ", ")))
		}
	}

	switch {
	case *selfcheck:
		if *n < 2 {
			fatal(fmt.Errorf("-selfcheck needs -n of at least 2"))
		}
		ok := true
		for _, nm := range names {
			ok = selfCheck(spec, nm, *seed, *seconds, *n) && ok
		}
		if !ok {
			os.Exit(1)
		}
	case len(names) > 1:
		// One process per workload, so that peak_rss_mb is the workload's.
		ok := true
		for _, nm := range names {
			res, out, err := runChild(nm, *seed, *seconds, *trace)
			os.Stdout.Write(out)
			if err != nil || !res.Correct {
				ok = false
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, _ := findWorkload(names[0])
		run := runUntraced
		if *trace != 0 {
			run = runTraced
		}
		rec, err := run(w, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		if err := rec.conforms(spec); err != nil {
			fatal(err)
		}
		rec.print(os.Stdout)
		if err := rec.write(); err != nil {
			fatal(err)
		}
		fmt.Println(rec.resultLine())
		if _, _, correct := rec.totals(); !correct {
			os.Exit(1)
		}
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// childResult is the result line of a child run.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a process of its own and parses the last
// line of its output.
func runChild(name string, seed int64, seconds float64, trace int) (childResult, []byte, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, out, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, out, fmt.Errorf("%s: last output line is not a result: %w", name, err)
	}
	return res, out, nil
}

// selfCheck runs one workload n times with the same seed and binary.  With
// two runs it prints both values of every end-to-end metric, how much worse
// the second is, and the bound, and fails if either run is worse than the
// other by more than the bound or more operations failed; with more it
// prints each metric's quartile spread beside its bound.
func selfCheck(spec *benchmarkSpec, name string, seed int64, seconds float64, n int) bool {
	runs := make([]childResult, 0, n)
	for i := 0; i < n; i++ {
		res, out, err := runChild(name, seed, seconds, 0)
		if err != nil {
			os.Stdout.Write(out)
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return false
		}
		runs = append(runs, res)
	}
	ok := true
	fmt.Printf("selfcheck %s: %d runs, seed %d\n", name, n, seed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	if n == 2 {
		fmt.Fprintln(tw, "metric\tfirst\tsecond\tworse by\tbound\t")
	} else {
		fmt.Fprintln(tw, "metric\tmedian\tspread\tbound\t")
	}
	for _, m := range spec.EndToEnd {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[m.Name].Value)
		}
		verdict := ""
		if n == 2 {
			if !withinBound(m.Better, vals[0], vals[1], m.Bound) || !withinBound(m.Better, vals[1], vals[0], m.Bound) {
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%+.4f\t%.4f\t%s\n", m.Name, vals[0], vals[1], worsening(m.Better, vals[0], vals[1]), m.Bound, verdict)
			continue
		}
		spread := quartileSpread(vals)
		if spread > m.Bound {
			verdict, ok = "WIDER THAN BOUND", false
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%.4f\t%.4f\t%s\n", m.Name, median(vals), spread, m.Bound, verdict)
	}
	tw.Flush()
	for i, r := range runs {
		if !r.Correct {
			fmt.Printf("run %d failed a correctness check\n", i+1)
			ok = false
		}
		// failed_frac: any increase over the first run is a regression, and
		// the benchmark's workloads are chosen so that nothing fails at all.
		if r.Failed > 0 || !failedWithinBound(runs[0].Failed, runs[0].Attempted, r.Failed, r.Attempted) {
			fmt.Printf("run %d: %d of %d operations failed\n", i+1, r.Failed, r.Attempted)
			ok = false
		}
	}
	return ok
}
