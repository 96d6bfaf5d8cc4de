// pivot-bench regenerates the paper's tables and figures and the
// deterministic-counter baselines (BENCH_*.json); every experiment comes
// from the one registry in internal/experiments.
//
// Usage:
//
//	pivot-bench -exp fig4a                 # one experiment, quick preset
//	pivot-bench -exp all                   # everything, quick preset
//	pivot-bench -exp fig5b -preset paper   # the paper's parameters (slow!)
//	pivot-bench -exp paillier -json BENCH_paillier.json   # perf baseline
//	pivot-bench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
)

// listExperiments prints every registered id, marking the baseline
// experiments — the ones -json can write (CI's bench loop parses the mark).
func listExperiments(w io.Writer, indent string) {
	for _, e := range experiments.Registry {
		if e.Baseline != nil {
			fmt.Fprintf(w, "%s%s (baseline writer)\n", indent, e.ID)
		} else {
			fmt.Fprintf(w, "%s%s\n", indent, e.ID)
		}
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	preset := flag.String("preset", "quick", "quick | paper")
	list := flag.Bool("list", false, "list experiment ids")
	jsonOut := flag.String("json", "", "write the experiment's machine-readable perf baseline (BENCH_*.json) to this file; only experiments with a baseline writer support it")
	latency := flag.Duration("latency", 0, "simulated WAN one-way delay per message for -exp predict (0 = experiment default)")
	jitter := flag.Duration("jitter", 0, "simulated WAN jitter bound per message for -exp predict (0 = experiment default)")
	flag.Parse()

	if *list {
		listExperiments(os.Stdout, "")
		return
	}

	var p experiments.Preset
	switch *preset {
	case "quick":
		p = experiments.Quick()
	case "paper":
		p = experiments.Paper()
	default:
		fmt.Fprintf(os.Stderr, "pivot-bench: unknown preset %q\n", *preset)
		os.Exit(2)
	}
	p.NetDelay = *latency
	p.NetJitter = *jitter

	start := time.Now()
	elapsed := func() time.Duration { return time.Since(start).Round(time.Millisecond) }

	if *exp == "all" {
		results, err := experiments.All(p)
		for _, r := range results {
			fmt.Println(r.Format())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pivot-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("all %d experiments done in %s\n", len(results), elapsed())
		return
	}

	e, ok := experiments.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "pivot-bench: unknown experiment %q; registered experiments:\n", *exp)
		listExperiments(os.Stderr, "  ")
		os.Exit(2)
	}
	// Figure experiments have no baseline format, so -json on them is an
	// error instead of a silently ignored flag.
	if *jsonOut != "" && e.Baseline == nil {
		fmt.Fprintf(os.Stderr, "pivot-bench: experiment %q has no baseline writer for -json; see -list\n", *exp)
		os.Exit(2)
	}

	res, rec, err := e.Exec(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pivot-bench:", err)
		os.Exit(1)
	}
	fmt.Println(res.Format())
	if *jsonOut == "" {
		fmt.Printf("done in %s\n", elapsed())
		return
	}
	if err := rec.WriteFile(*jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "pivot-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s baseline -> %s in %s\n%s\n", *exp, *jsonOut, elapsed(), rec.Summary())
}
