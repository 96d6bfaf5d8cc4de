package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// pipelineBenchCfg is the benchmark point: basic-protocol random forest
// (ensembles release plain trees, §7) over loopback TCP with injected
// delay, where the session runs the pipelined driver.
func pipelineBenchCfg(p Preset, delay time.Duration) core.Config {
	cfg := cfgFor(p, core.Basic, 0)
	cfg.NumTrees = pipelineBenchTrees
	cfg.TCPLoopback = true
	cfg.NetDelay = delay
	return cfg
}

const pipelineBenchTrees = 4

// pipelineBaseline is the baseline for pipelined level execution
// (BENCH_pipeline.json).  The workload is a W-tree random forest — the
// ensemble's independent per-tree chains are where a WAN loses the most to
// barrier scheduling — trained by the pipelined driver over the kernel
// loopback with a metro-area and a cross-region one-way delay injected on
// every frame.  The barrier reference is the same configuration on the
// in-memory network, where the session runs the barrier driver; its
// counters do not depend on the delay, so it runs once.
//
// Unlike every other baseline, each leg keeps two wall-clock keys,
// pipelined_seconds and pipelined_wire_wait_seconds: they are the overlapped
// driver's only wall-clock evidence until a same-wire barrier_seconds (the
// same federation without the tag mux) is recorded beside them.
func pipelineBaseline(p Preset) (*Baseline, error) {
	ds := dataset.SyntheticClassification(p.N, p.DBar*p.M, p.Classes, 2.0, 99)
	barCfg := pipelineBenchCfg(p, 0)
	barCfg.TCPLoopback = false
	barModel, bar, _, err := trainKind(ds, p.M, barCfg, core.KindRF)
	if err != nil {
		return nil, fmt.Errorf("barrier run: %w", err)
	}
	var legs []*Baseline
	for _, delay := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond} {
		pipModel, pip, pipSecs, err := trainKind(ds, p.M, pipelineBenchCfg(p, delay), core.KindRF)
		if err != nil {
			return nil, fmt.Errorf("pipelined run at %v: %w", delay, err)
		}
		if render(barModel) != render(pipModel) {
			return nil, fmt.Errorf("pipelined forest differs from barrier forest at %v", delay)
		}
		leg := &Baseline{}
		leg.Set("delay_ms", msOf(delay))
		leg.Set("pipelined_seconds", pipSecs)
		// Round/traffic counters must not regress: the pipelined driver
		// reorders and overlaps chains but runs the same chains, so these
		// are diff-stable and gated by pivot-benchdiff.
		leg.Set("pipelined_mpc_rounds", pip.MPC.Rounds)
		leg.Set("pipelined_msgs_sent", pip.Traffic.MsgsSent)
		leg.Set("pipelined_bytes_sent", pip.Traffic.BytesSent)
		// Aggregate blocked-receive time across all clients.  Advisory
		// (timing-noisy), not gated.
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
	b.Set("barrier_transport", "memory")
	b.Set("barrier_mpc_rounds", bar.MPC.Rounds)
	b.Set("barrier_msgs_sent", bar.Traffic.MsgsSent)
	b.Set("barrier_bytes_sent", bar.Traffic.BytesSent)
	b.Set("legs", legs)
	// The pipelined driver reorders chains but must not add any.
	b.Gate("legs[1].pipelined_mpc_rounds", "legs[1].pipelined_msgs_sent")
	return b, nil
}
