package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// levelwiseCfg is the benchmark point: the evaluation's depth-4 tree at the
// preset's scale, fixed seed so both pipelines see identical data.
func levelwiseCfg(p Preset, mode core.TrainMode) core.Config {
	cfg := cfgFor(p, core.Basic, 0)
	cfg.Tree.MaxDepth = 4
	cfg.TrainMode = mode
	return cfg
}

// levelwiseBaseline is the baseline for the level-wise training pipeline
// (BENCH_levelwise.json): synchronous MPC open rounds, wall time and
// traffic for a depth-4 tree trained on the paper's per-node schedule vs
// the level-wise one on the same fixed-seed dataset, plus the rendered-tree
// equivalence check.
func levelwiseBaseline(p Preset) (*Baseline, error) {
	ds := dataset.SyntheticClassification(p.N, p.DBar*p.M, p.Classes, 2.0, 99)

	// Best-of-two wall time; on the in-memory transport it is computation
	// bound — the round reduction is the latency win on a real network.
	pnModel, pn, pnSecs, err := trainBestOfTwo(ds, p.M, levelwiseCfg(p, core.PerNode), core.KindDT)
	if err != nil {
		return nil, fmt.Errorf("per-node run: %w", err)
	}
	lwModel, lw, lwSecs, err := trainBestOfTwo(ds, p.M, levelwiseCfg(p, core.LevelWise), core.KindDT)
	if err != nil {
		return nil, fmt.Errorf("level-wise run: %w", err)
	}
	if render(pnModel) != render(lwModel) {
		return nil, fmt.Errorf("level-wise tree differs from per-node tree")
	}

	b := &Baseline{}
	b.Set("key_bits", p.KeyBits)
	b.Set("n", p.N)
	b.Set("m", p.M)
	b.Set("max_depth", 4)
	b.Set("max_splits", p.B)
	b.Set("seed", 7)
	b.Set("per_node_mpc_rounds", pn.MPC.Rounds)
	b.Set("levelwise_mpc_rounds", lw.MPC.Rounds)
	b.Set("round_reduction", ratio(float64(pn.MPC.Rounds), float64(lw.MPC.Rounds)))
	b.Set("per_node_train_seconds", pnSecs)
	b.Set("levelwise_train_seconds", lwSecs)
	b.Set("wall_speedup", ratio(pnSecs, lwSecs))
	b.Set("per_node_msgs_sent", pn.Traffic.MsgsSent)
	b.Set("levelwise_msgs_sent", lw.Traffic.MsgsSent)
	b.Set("per_node_bytes_sent", pn.Traffic.BytesSent)
	b.Set("levelwise_bytes_sent", lw.Traffic.BytesSent)
	b.Set("nodes_trained", lw.NodesTrained)
	b.Set("trees_identical", true) // checked above: a mismatch is an error, not a record
	return b, nil
}
