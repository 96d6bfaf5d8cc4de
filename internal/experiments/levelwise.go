package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// levelwiseCfg is the benchmark point: the evaluation's depth-4 tree at the
// preset's scale, fixed seed so both schedules see identical data.
func levelwiseCfg(p Preset) core.Config {
	cfg := cfgFor(p, core.Basic, 0)
	cfg.Tree.MaxDepth = 4
	return cfg
}

// levelwiseBaseline is the baseline for the level-wise training pipeline
// (BENCH_levelwise.json): synchronous MPC open rounds and traffic for a
// depth-4 tree trained on the paper's per-node schedule vs the level-wise
// one on the same fixed-seed dataset, plus the rendered-tree equivalence
// check.  A second, gated pair repeats the round comparison for
// a malicious (§9.1) session at the per-node golden file's malicious scale
// (16 rows, 2 clients, depth 2, 2 splits), so it stays cheap.
func levelwiseBaseline(p Preset) (*Baseline, error) {
	ds := dataset.SyntheticClassification(p.N, p.DBar*p.M, p.Classes, 2.0, 99)

	pnModel, pn, _, err := trainSpec(ds, p.M, levelwiseCfg(p), core.TrainSpec{PerNode: true})
	if err != nil {
		return nil, fmt.Errorf("per-node run: %w", err)
	}
	lwModel, lw, _, err := trainSpec(ds, p.M, levelwiseCfg(p), core.TrainSpec{})
	if err != nil {
		return nil, fmt.Errorf("level-wise run: %w", err)
	}
	if render(pnModel) != render(lwModel) {
		return nil, fmt.Errorf("level-wise tree differs from per-node tree")
	}

	malDS := dataset.SyntheticClassification(16, 4, 2, 3.0, 3)
	malCfg := cfgFor(p, core.Basic, 0)
	malCfg.Malicious = true
	malCfg.Tree.MaxDepth, malCfg.Tree.MaxSplits = 2, 2
	malPNModel, malPN, _, err := trainSpec(malDS, 2, malCfg, core.TrainSpec{PerNode: true})
	if err != nil {
		return nil, fmt.Errorf("malicious per-node run: %w", err)
	}
	malLWModel, malLW, _, err := trainSpec(malDS, 2, malCfg, core.TrainSpec{})
	if err != nil {
		return nil, fmt.Errorf("malicious level-wise run: %w", err)
	}
	if render(malPNModel) != render(malLWModel) {
		return nil, fmt.Errorf("malicious level-wise tree differs from per-node tree")
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
	b.Set("per_node_msgs_sent", pn.Traffic.MsgsSent)
	b.Set("levelwise_msgs_sent", lw.Traffic.MsgsSent)
	b.Set("per_node_bytes_sent", pn.Traffic.BytesSent)
	b.Set("levelwise_bytes_sent", lw.Traffic.BytesSent)
	b.Set("nodes_trained", lw.NodesTrained)
	b.Set("malicious_per_node_mpc_rounds", malPN.MPC.Rounds)
	b.Set("malicious_levelwise_mpc_rounds", malLW.MPC.Rounds)
	b.Set("trees_identical", true) // checked above: a mismatch is an error, not a record
	b.Gate("malicious_per_node_mpc_rounds", "malicious_levelwise_mpc_rounds")
	return b, nil
}
