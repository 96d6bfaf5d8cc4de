package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// pipelineBenchCfg is the benchmark point: basic-protocol random forest
// (ensembles release plain trees, §7) over loopback TCP with injected
// delay, barrier vs pipelined.
func pipelineBenchCfg(p Preset, delay time.Duration, mode core.PipelineMode) core.Config {
	cfg := cfgFor(p, core.Basic, 0)
	cfg.NumTrees = pipelineBenchTrees
	cfg.Pipeline = mode
	cfg.TCPLoopback = true
	cfg.NetDelay = delay
	return cfg
}

const pipelineBenchTrees = 4

// pipelineBaseline is the baseline for pipelined level execution
// (BENCH_pipeline.json).  The workload is a W-tree random forest — the
// ensemble's independent per-tree chains are where a WAN loses the most to
// barrier scheduling — trained by the barrier driver (Pipeline off) and the
// pipelined driver over the kernel loopback, with a metro-area and a
// cross-region one-way delay injected on every frame.
func pipelineBaseline(p Preset) (*Baseline, error) {
	ds := dataset.SyntheticClassification(p.N, p.DBar*p.M, p.Classes, 2.0, 99)
	var legs []*Baseline
	for _, delay := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond} {
		barModel, bar, barSecs, err := trainKind(ds, p.M, pipelineBenchCfg(p, delay, core.PipelineOff), core.KindRF)
		if err != nil {
			return nil, fmt.Errorf("barrier run at %v: %w", delay, err)
		}
		pipModel, pip, pipSecs, err := trainKind(ds, p.M, pipelineBenchCfg(p, delay, core.PipelineOn), core.KindRF)
		if err != nil {
			return nil, fmt.Errorf("pipelined run at %v: %w", delay, err)
		}
		if render(barModel) != render(pipModel) {
			return nil, fmt.Errorf("pipelined forest differs from barrier forest at %v", delay)
		}
		leg := &Baseline{}
		leg.Set("delay_ms", msOf(delay))
		leg.Set("barrier_seconds", barSecs)
		leg.Set("pipelined_seconds", pipSecs)
		leg.Set("wall_speedup", ratio(barSecs, pipSecs))
		// Round/traffic counters must not regress: the pipelined driver
		// reorders and overlaps chains but runs the same chains, so these
		// are diff-stable and gated by pivot-benchdiff.
		leg.Set("barrier_mpc_rounds", bar.MPC.Rounds)
		leg.Set("pipelined_mpc_rounds", pip.MPC.Rounds)
		leg.Set("barrier_msgs_sent", bar.Traffic.MsgsSent)
		leg.Set("pipelined_msgs_sent", pip.Traffic.MsgsSent)
		leg.Set("barrier_bytes_sent", bar.Traffic.BytesSent)
		leg.Set("pipelined_bytes_sent", pip.Traffic.BytesSent)
		// Aggregate blocked-receive time across all clients: the idle the
		// overlap exists to hide.  Advisory (timing-noisy), not gated.
		leg.Set("barrier_wire_wait_seconds", float64(bar.Traffic.RecvWaitNs)/1e9)
		leg.Set("pipelined_wire_wait_seconds", float64(pip.Traffic.RecvWaitNs)/1e9)
		// Peak number of simultaneously in-flight opening rounds at client
		// 0; > 1 proves rounds actually overlapped.
		leg.Set("pipelined_in_flight_peak", pip.InFlightPeak)
		leg.Set("trees_identical", true) // checked above: a mismatch is an error, not a record
		legs = append(legs, leg)
	}

	b := &Baseline{}
	b.Set("key_bits", p.KeyBits)
	b.Set("n", p.N)
	b.Set("m", p.M)
	b.Set("max_depth", p.H)
	b.Set("max_splits", p.B)
	b.Set("classes", p.Classes)
	b.Set("trees", pipelineBenchTrees)
	b.Set("seed", 7)
	b.Set("data_seed", 99)
	b.Set("transport", "tcp-loopback")
	b.Set("legs", legs)
	// The pipelined driver reorders chains but must not add any.
	b.Gate("legs[1].pipelined_mpc_rounds", "legs[1].pipelined_msgs_sent")
	return b, nil
}
