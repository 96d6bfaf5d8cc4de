package pivot

// One sub-benchmark per registered experiment — every table and figure of
// the paper's evaluation (§8) and every BENCH_*.json baseline.  Each runs
// at the bench preset (a scaled-down workload that preserves the protocol
// shapes) and reports the headline series as custom metrics, so `go test -bench=. -benchmem` regenerates every result in one
// command.  For full-scale sweeps use `go run ./cmd/pivot-bench -preset
// paper`.

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// benchPreset returns the workload used by the benchmark suite.
func benchPreset() experiments.Preset {
	p := experiments.Quick()
	p.N = 24
	p.DBar = 1
	p.B = 2
	p.H = 2
	p.W = 1
	p.Ms = []int{2, 3}
	p.Ns = []int{16, 48}
	p.DBars = []int{1, 2}
	p.Bs = []int{2, 4}
	p.Hs = []int{1, 2}
	p.Ws = []int{1, 2}
	p.Trials = 1
	p.AccuracyN = 150
	return p
}

// BenchmarkExperiment runs every registered experiment as a sub-benchmark
// named by its id (`-bench 'Experiment/fig4a$'` regenerates Figure 4a; see
// `pivot-bench -list` for the ids): one run per iteration, the last row's
// series reported as metrics (seconds, or accuracy for Table 3; a baseline
// experiment's last leg, or its whole record when it has none).
func BenchmarkExperiment(b *testing.B) {
	p := benchPreset()
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			var res *experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, _, err = e.Exec(p); err != nil {
					b.Fatal(err)
				}
			}
			if res != nil && len(res.Rows) > 0 {
				last := res.Rows[len(res.Rows)-1]
				for name, v := range last.Series {
					b.ReportMetric(v, metricUnit(name, res.Unit))
				}
				b.Logf("\n%s", res.Format())
			}
		})
	}
}

// metricUnit builds a whitespace-free unit label (ReportMetric requirement).
func metricUnit(name, unit string) string {
	u := name + "/" + unit
	u = strings.ReplaceAll(u, " ", "_")
	if i := strings.IndexByte(u, '('); i > 0 {
		u = u[:i]
	}
	return strings.TrimSuffix(u, "_")
}
