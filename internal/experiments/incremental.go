package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
)

// sliceDataset is a labelled row range of a synthetic draw.
func sliceDataset(ds *dataset.Dataset, lo, hi int) *dataset.Dataset {
	return &dataset.Dataset{X: ds.X[lo:hi], Y: ds.Y[lo:hi], Classes: ds.Classes, Names: ds.Names}
}

// byClient splits one global-order row into per-client feature slices.
func byClient(parts []*dataset.Partition, row []float64) [][]float64 {
	out := make([][]float64, len(parts))
	for c, p := range parts {
		local := make([]float64, len(p.Features))
		for j, g := range p.Features {
			local[j] = row[g]
		}
		out[c] = local
	}
	return out
}

// accuracyOn evaluates a plaintext scorer over held-out rows.
func accuracyOn(parts []*dataset.Partition, held *dataset.Dataset, predict func([][]float64) float64) float64 {
	correct := 0
	for i, row := range held.X {
		if predict(byClient(parts, row)) == held.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(held.N())
}

// sameSplits reports whether two released trees share every split (leaf
// labels may differ — that is exactly what an absorb refreshes).
func sameSplits(a, b *core.Model) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Leaf != y.Leaf || x.Owner != y.Owner || x.Feature != y.Feature ||
			x.Threshold != y.Threshold || x.Left != y.Left || x.Right != y.Right {
			return false
		}
	}
	return true
}

// incrementalBaseline is the baseline for incremental training
// (BENCH_incremental.json), measured on the in-memory network
// (deterministic counters).  The workload absorbs a +10% batch of aligned
// samples into a trained model (core.Update: the released trees are
// replayed with zero MPC rounds — a DT over the appended rows only, its
// kept leaf totals covering the rest; a GBDT over the union — then only
// the leaves are re-resolved — DT — or one extra boosting round is
// trained — GBDT) and
// compares that against retraining from scratch on the union.  The round
// and message counters are deterministic and gated; the absorbed model's
// held-out accuracy must stay within 1% of the retrained model's.
func incrementalBaseline(p Preset) (*Baseline, error) {
	appendN := max(p.N/10, 1)
	heldN := 4 * p.N
	d := p.DBar * p.M
	ds := dataset.SyntheticClassification(p.N+appendN+heldN, d, p.Classes, 2.0, 99)
	base := sliceDataset(ds, 0, p.N)
	union := sliceDataset(ds, 0, p.N+appendN)
	held := sliceDataset(ds, p.N+appendN, ds.N())

	baseParts, err := dataset.VerticalPartition(base, p.M, 0)
	if err != nil {
		return nil, err
	}
	// Same feature deal over the same d and m, so the appended rows land on
	// the owners that already hold those columns.
	appended, err := dataset.VerticalPartition(sliceDataset(ds, p.N, p.N+appendN), p.M, 0)
	if err != nil {
		return nil, err
	}
	unionParts, err := dataset.VerticalPartition(union, p.M, 0)
	if err != nil {
		return nil, err
	}
	cfg := cfgFor(p, core.Basic, 1)

	// absorb trains kind on the base over a fresh session, absorbs the batch
	// on the live session and reports what the absorb itself cost (stats
	// delta around core.Update).
	absorb := func(kind core.ModelKind, addTrees int) (before, after core.Predictor, cost core.RunStats, err error) {
		sess, err := core.NewSession(baseParts, cfg)
		if err != nil {
			return nil, nil, cost, err
		}
		defer sess.Close()
		if before, err = core.Train(sess, core.TrainSpec{Model: kind}); err != nil {
			return nil, nil, cost, fmt.Errorf("base leg: %w", err)
		}
		pre := sess.Stats()
		if after, err = core.Update(sess, core.UpdateSpec{Model: before, Append: appended, AddTrees: addTrees}); err != nil {
			return nil, nil, cost, fmt.Errorf("absorb leg: %w", err)
		}
		post := sess.Stats()
		cost.MPC.Rounds = post.MPC.Rounds - pre.MPC.Rounds
		cost.Traffic.MsgsSent = post.Traffic.MsgsSent - pre.Traffic.MsgsSent
		cost.Traffic.BytesSent = post.Traffic.BytesSent - pre.Traffic.BytesSent
		return before, after, cost, nil
	}

	// Headline DT leg: absorbing the batch on the live session vs a
	// from-scratch retrain on the union (fresh session, bring-up included —
	// same convention as the recovery bench's retrain leg).
	mdl, upd, dtAbsorb, err := absorb(core.KindDT, 0)
	if err != nil {
		return nil, fmt.Errorf("incremental dt %w", err)
	}
	udt := upd.(*core.Model)
	// The absorb refreshes leaf labels only: the replayed tree's splits
	// are frozen by construction.
	if !sameSplits(mdl.(*core.Model), udt) {
		return nil, fmt.Errorf("incremental bench: the absorb moved a frozen split")
	}
	retrained, dtRetrain, err := core.TrainDecisionTree(union, p.M, cfg)
	if err != nil {
		return nil, fmt.Errorf("incremental retrain leg: %w", err)
	}
	dtAbsorbAcc := accuracyOn(unionParts, held, func(f [][]float64) float64 {
		v, _ := udt.PredictPlain(f)
		return v
	})
	dtRetrainAcc := accuracyOn(unionParts, held, func(f [][]float64) float64 {
		v, _ := retrained.PredictPlain(f)
		return v
	})

	// GBDT leg: warm-start one extra boosting round over the union vs
	// retraining all boost_rounds+1 rounds from scratch.
	_, gupd, gAbsorb, err := absorb(core.KindGBDT, 1)
	if err != nil {
		return nil, fmt.Errorf("incremental gbdt %w", err)
	}
	rcfg := cfg
	rcfg.NumTrees = p.W + 1
	gretrained, gRetrain, _, err := trainKind(union, p.M, rcfg, core.KindGBDT)
	if err != nil {
		return nil, fmt.Errorf("incremental gbdt retrain leg: %w", err)
	}
	gAbsorbAcc := accuracyOn(unionParts, held, func(f [][]float64) float64 {
		return boostPredictPlain(gupd.(*core.BoostModel), f)
	})
	gRetrainAcc := accuracyOn(unionParts, held, func(f [][]float64) float64 {
		return boostPredictPlain(gretrained.(*core.BoostModel), f)
	})

	// The bench enforces its own acceptance bounds so a silent protocol
	// change cannot pass CI just by keeping counters stable.
	dtDelta, gDelta := math.Abs(dtAbsorbAcc-dtRetrainAcc), math.Abs(gAbsorbAcc-gRetrainAcc)
	if 3*dtAbsorb.MPC.Rounds > dtRetrain.MPC.Rounds {
		return nil, fmt.Errorf("incremental bench: absorb cost %d rounds, retrain %d — absorbing +10%% data must be >= 3x cheaper",
			dtAbsorb.MPC.Rounds, dtRetrain.MPC.Rounds)
	}
	if gAbsorb.MPC.Rounds >= gRetrain.MPC.Rounds {
		return nil, fmt.Errorf("incremental bench: gbdt absorb cost %d rounds, retrain %d — the warm start must win",
			gAbsorb.MPC.Rounds, gRetrain.MPC.Rounds)
	}
	if dtDelta > 0.01 {
		return nil, fmt.Errorf("incremental bench: held-out accuracy drifted %.4f from the retrained model (bound 0.01)", dtDelta)
	}
	if gDelta > 0.01 {
		return nil, fmt.Errorf("incremental bench: gbdt held-out accuracy drifted %.4f from the retrained model (bound 0.01)", gDelta)
	}

	b := &Baseline{}
	b.Set("key_bits", p.KeyBits)
	b.Set("n", p.N)
	b.Set("append_n", appendN)
	b.Set("heldout_n", heldN)
	b.Set("m", p.M)
	b.Set("max_depth", p.H)
	b.Set("max_splits", p.B)
	b.Set("classes", p.Classes)
	b.Set("boost_rounds", p.W)
	b.Set("seed", cfg.Seed)
	b.Set("data_seed", 99)
	b.Set("transport", "memory")
	b.Set("absorb_mpc_rounds", dtAbsorb.MPC.Rounds)
	b.Set("retrain_mpc_rounds", dtRetrain.MPC.Rounds)
	b.Set("absorb_msgs_sent", dtAbsorb.Traffic.MsgsSent)
	b.Set("retrain_msgs_sent", dtRetrain.Traffic.MsgsSent)
	b.Set("absorb_bytes_sent", dtAbsorb.Traffic.BytesSent)
	b.Set("retrain_bytes_sent", dtRetrain.Traffic.BytesSent)
	b.Set("structure_kept", true) // checked above: a moved split is an error, not a record
	// Held-out accuracy of the absorbed vs the retrained model (advisory
	// values; the delta bound is enforced above).
	b.Set("absorb_accuracy", dtAbsorbAcc)
	b.Set("retrain_accuracy", dtRetrainAcc)
	b.Set("accuracy_delta", dtDelta)
	b.Set("gbdt_absorb_mpc_rounds", gAbsorb.MPC.Rounds)
	b.Set("gbdt_retrain_mpc_rounds", gRetrain.MPC.Rounds)
	b.Set("gbdt_absorb_msgs_sent", gAbsorb.Traffic.MsgsSent)
	b.Set("gbdt_retrain_msgs_sent", gRetrain.Traffic.MsgsSent)
	b.Set("gbdt_absorb_accuracy", gAbsorbAcc)
	b.Set("gbdt_retrain_accuracy", gRetrainAcc)
	b.Set("gbdt_accuracy_delta", gDelta)
	b.Set("round_reduction_ratio", ratio(float64(dtRetrain.MPC.Rounds), float64(dtAbsorb.MPC.Rounds)))
	b.Set("gbdt_round_reduction_ratio", ratio(float64(gRetrain.MPC.Rounds), float64(gAbsorb.MPC.Rounds)))
	b.Gate("absorb_mpc_rounds", "retrain_mpc_rounds", "absorb_msgs_sent",
		"gbdt_absorb_mpc_rounds", "gbdt_retrain_mpc_rounds")
	return b, nil
}
