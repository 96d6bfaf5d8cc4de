// pivot-benchdiff compares a freshly produced bench JSON against a
// committed baseline and fails when count metrics regress — the CI
// regression gate behind every bench smoke step.
//
// Gated metrics are numeric keys whose dotted path contains "rounds",
// "msgs", "messages" or "bytes": deterministic round/message/byte counters
// that only a real protocol change can move.  A gated metric may improve
// freely but must not exceed baseline·(1+tolerance).  Everything else —
// wall-clock seconds, speedups, throughput, derived reduction ratios — is
// advisory: printed for the log, never fatal, because CI machine noise
// would make gating them flaky.  A gated metric more than the tolerance
// BELOW its baseline prints STALE: the one-sided gate would pass a
// regression all the way back up to the committed value, so the baseline
// wants re-recording.  STALE does not change the exit code; the CI loop
// that runs this tool greps for it and fails the leg.
//
// Usage:
//
//	pivot-benchdiff -baseline BENCH_update.json -current /tmp/BENCH_update_ci.json
//	pivot-benchdiff -baseline ... -current ... -tolerance 0.15
//	pivot-benchdiff -baseline ... -current ... -require gbdt_batch_bytes_sent
//
// -require names keys (comma-separated) that MUST be present as gated
// numbers in both files: the substring gate only fires for keys the
// baseline still carries, so a rename or drop on both sides would silently
// retire a gate — -require turns that into a failure.
//
// Baselines can also carry their own manifest: a top-level
//
//	"gates": {"require": ["absorb_mpc_rounds", ...]}
//
// block inside the committed BENCH_*.json is read automatically and merged
// with -require, so each experiment registers its required gates in its
// baseline and CI runs one uniform diff step with no per-experiment flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// load reads a bench JSON into dotted-path leaves (experiments.Flatten:
// the path syntax the gates manifests use).
func load(path string) (map[string]any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]any{}
	for _, l := range experiments.Flatten(v) {
		out[l.Path] = l.Value
	}
	return out, nil
}

// loadGates reads the baseline's embedded gates manifest (absent = none).
func loadGates(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		Gates struct {
			Require []string `json:"require"`
		} `json:"gates"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m.Gates.Require, nil
}

func main() {
	baseline := flag.String("baseline", "", "committed baseline JSON (e.g. BENCH_update.json)")
	current := flag.String("current", "", "freshly produced bench JSON to check")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional regression on gated count metrics")
	require := flag.String("require", "", "comma-separated keys that must exist as gated numbers in both files")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "pivot-benchdiff: -baseline and -current are required")
		os.Exit(2)
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pivot-benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pivot-benchdiff:", err)
		os.Exit(2)
	}

	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	regressions, stale := 0, 0
	fmt.Printf("%-42s %16s %16s %9s  %s\n", "metric", "baseline", "current", "delta", "status")
	for _, k := range keys {
		bv, bok := base[k].(float64)
		if !bok {
			continue // bools, strings: identity is covered by the bench's own checks
		}
		cvAny, ok := cur[k]
		if !ok {
			if experiments.Gated(k) {
				fmt.Printf("%-42s %16g %16s %9s  MISSING\n", k, bv, "-", "-")
				regressions++
			}
			continue
		}
		cv, cok := cvAny.(float64)
		if !cok {
			continue
		}
		delta := "n/a"
		if bv != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cv-bv)/bv)
		}
		status := "advisory"
		if experiments.Gated(k) {
			status = "ok"
			switch {
			case cv > bv*(1+*tolerance):
				status = "REGRESSED"
				regressions++
			case cv < bv*(1-*tolerance):
				status = "STALE"
				stale++
			}
		}
		fmt.Printf("%-42s %16g %16g %9s  %s\n", k, bv, cv, delta, status)
	}
	// Required keys: the baseline's own gates manifest plus any -require
	// flags, deduplicated.
	manifest, err := loadGates(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pivot-benchdiff:", err)
		os.Exit(2)
	}
	required := append(manifest, strings.Split(*require, ",")...)
	seen := map[string]bool{}
	for _, k := range required {
		k = strings.TrimSpace(k)
		if k == "" || seen[k] {
			continue
		}
		seen[k] = true
		_, bok := base[k].(float64)
		_, cok := cur[k].(float64)
		switch {
		case !bok || !cok:
			fmt.Printf("%-42s %16s %16s %9s  REQUIRED-MISSING\n", k, "-", "-", "-")
			regressions++
		case !experiments.Gated(k):
			fmt.Printf("%-42s %16s %16s %9s  REQUIRED-UNGATED\n", k, "-", "-", "-")
			regressions++
		}
	}
	if stale > 0 {
		fmt.Printf("pivot-benchdiff: %d gated metric(s) more than %.0f%% below %s (STALE): re-record it, a regression back up to the committed value would pass\n",
			stale, *tolerance*100, *baseline)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "pivot-benchdiff: %d gated metric(s) regressed beyond %.0f%% vs %s\n",
			regressions, *tolerance*100, *baseline)
		os.Exit(1)
	}
	fmt.Printf("pivot-benchdiff: no gated regressions vs %s (tolerance %.0f%%)\n", *baseline, *tolerance*100)
}
