package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// updateBenchCfg is the GBDT benchmark point: the paper's depth-4 trees
// over four classes, fixed seed, basic protocol (ensembles release plain
// trees, §7).
func updateBenchCfg(p Preset, mode core.TrainMode) core.Config {
	cfg := cfgFor(p, core.Basic, 0)
	cfg.Tree.MaxDepth = 4
	cfg.NumTrees = 2
	cfg.LearningRate = 0.3
	cfg.TrainMode = mode
	// The timed legs run over the kernel loopback (real frames, real socket
	// scheduling) so the batched pipeline's message reduction (msg_reduction)
	// shows up as wall-clock, not just counters; the in-memory network
	// idealizes per-message cost to ~zero and hides it.
	cfg.TCPLoopback = true
	return cfg
}

// updateBaseline is the baseline for the frontier-wide batched model update
// (BENCH_update.json).  The headline comparison is a fixed-seed depth-4
// multi-class GBDT trained on the per-node schedule (per-class trees, every
// node its own round chain — the paper's Algorithm 3) vs the level-wise one
// (cross-class shared frontier, one chain per level); a second slice
// isolates the enhanced-protocol update phase, where the EQZ ladders and
// conversions dominate.
func updateBaseline(p Preset) (*Baseline, error) {
	const classes = 4
	ds := dataset.SyntheticClassification(p.N, p.DBar*p.M, classes, 2.0, 99)
	benchCfg := updateBenchCfg(p, core.LevelWise)
	kappa := benchCfg.Kappa
	if kappa == 0 {
		kappa = 40 // DefaultConfig's value, applied by withDefaults
	}

	pnModel, pn, pnSecs, err := trainKind(ds, p.M, updateBenchCfg(p, core.PerNode), core.KindGBDT)
	if err != nil {
		return nil, fmt.Errorf("per-node run: %w", err)
	}
	batModel, bat, batSecs, err := trainKind(ds, p.M, benchCfg, core.KindGBDT)
	if err != nil {
		return nil, fmt.Errorf("level-wise run: %w", err)
	}

	// Enhanced-protocol slice: the update phase alone (EQZ ladders,
	// conversions, Eqn-10), where the frontier-wide batching shows up
	// undiluted by the shared gain/argmax chains.
	enhDS := dataset.SyntheticClassification(p.N, p.DBar*p.M, p.Classes, 2.0, 99)
	enh := func(mode core.TrainMode) (core.Predictor, core.RunStats, error) {
		cfg := cfgFor(p, core.Enhanced, 0)
		cfg.Tree.MaxDepth = 3
		// A full-width frontier (no zero-gain pruning) exposes the
		// per-level vs per-node round structure undamped.
		cfg.Tree.LeafOnZeroGain = false
		cfg.TrainMode = mode
		model, stats, _, err := trainKind(enhDS, p.M, cfg, core.KindDT)
		return model, stats, err
	}
	enhPNModel, enhPN, err := enh(core.PerNode)
	if err != nil {
		return nil, fmt.Errorf("enhanced per-node run: %w", err)
	}
	enhBatModel, enhBat, err := enh(core.LevelWise)
	if err != nil {
		return nil, fmt.Errorf("enhanced level-wise run: %w", err)
	}
	if render(pnModel) != render(batModel) || render(enhPNModel) != render(enhBatModel) {
		return nil, fmt.Errorf("level-wise trees differ from per-node trees")
	}

	b := &Baseline{}
	b.Set("key_bits", p.KeyBits)
	b.Set("n", p.N)
	b.Set("m", p.M)
	b.Set("max_depth", 4)
	b.Set("max_splits", p.B)
	b.Set("classes", classes)
	b.Set("boost_rounds", 2)
	b.Set("seed", 7)       // protocol seed (cfg.Seed)
	b.Set("data_seed", 99) // synthetic-dataset generator seed
	// Packing configuration in effect for these numbers: ciphertext packing
	// in the Algorithm-2 conversions plus bounded packed opens in the MPC
	// engine (DESIGN.md, "Ciphertext packing").  False is the NoPack oracle
	// path; pack_kappa is the statistical masking parameter that sets the
	// packed slot widths.
	b.Set("packing", !benchCfg.NoPack)
	b.Set("pack_kappa", int(kappa))
	// The substrate the timed GBDT legs ran on: "tcp-loopback" (kernel
	// loopback sockets, per-message cost included) vs "memory".
	b.Set("transport", "tcp-loopback")
	// Depth-4 multi-class GBDT, whole-training counters.
	b.Set("gbdt_pernode_mpc_rounds", pn.MPC.Rounds)
	b.Set("gbdt_batch_mpc_rounds", bat.MPC.Rounds)
	b.Set("round_reduction", ratio(float64(pn.MPC.Rounds), float64(bat.MPC.Rounds)))
	b.Set("gbdt_pernode_msgs_sent", pn.Traffic.MsgsSent)
	b.Set("gbdt_batch_msgs_sent", bat.Traffic.MsgsSent)
	b.Set("msg_reduction", ratio(float64(pn.Traffic.MsgsSent), float64(bat.Traffic.MsgsSent)))
	b.Set("gbdt_pernode_bytes_sent", pn.Traffic.BytesSent)
	b.Set("gbdt_batch_bytes_sent", bat.Traffic.BytesSent)
	b.Set("gbdt_pernode_train_seconds", pnSecs)
	b.Set("gbdt_batch_train_seconds", batSecs)
	b.Set("wall_speedup", ratio(pnSecs, batSecs))
	// Enhanced-protocol decision tree, update-phase rounds only.
	b.Set("enhanced_pernode_update_rounds", enhPN.UpdateRounds)
	b.Set("enhanced_batch_update_rounds", enhBat.UpdateRounds)
	b.Set("enhanced_update_round_reduction", ratio(float64(enhPN.UpdateRounds), float64(enhBat.UpdateRounds)))
	b.Set("trees_identical", true) // checked above: a mismatch is an error, not a record
	// The packing win must stay locked in, so these keys must exist and
	// gate, not just "gate if still present".
	b.Gate("gbdt_batch_bytes_sent", "gbdt_batch_msgs_sent", "gbdt_batch_mpc_rounds")
	return b, nil
}
