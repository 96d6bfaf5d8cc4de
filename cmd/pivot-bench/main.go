// pivot-bench regenerates the paper's tables and figures; every experiment
// comes from the one registry in internal/experiments.
//
// Usage:
//
//	pivot-bench -exp fig4a                 # one experiment, quick preset
//	pivot-bench -exp all                   # everything, quick preset
//	pivot-bench -exp fig5b -preset paper   # the paper's parameters (slow!)
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

// listExperiments prints every registered id.
func listExperiments(w io.Writer, indent string) {
	for _, e := range experiments.Registry {
		fmt.Fprintf(w, "%s%s\n", indent, e.ID)
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	preset := flag.String("preset", "quick", "quick | paper")
	list := flag.Bool("list", false, "list experiment ids")
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
	res, err := e.Exec(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pivot-bench:", err)
		os.Exit(1)
	}
	fmt.Println(res.Format())
	fmt.Printf("done in %s\n", elapsed())
}
