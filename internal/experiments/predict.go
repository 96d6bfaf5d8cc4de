package experiments

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// predictBenchSamples is the batch the acceptance criterion is stated
// over: 64 samples through the enhanced protocol.
const predictBenchSamples = 64

// predictSession trains one enhanced-protocol tree on the fixed-seed
// dataset and returns the live session ready for prediction phases.
func predictSession(p Preset, cfg core.Config, n int) (*core.Session, []*dataset.Partition, *core.Model, error) {
	ds := dataset.SyntheticClassification(n, p.DBar*p.M, p.Classes, 2.0, 99)
	parts, err := dataset.VerticalPartition(ds, p.M, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := core.NewSession(parts, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var model *core.Model
	err = s.Each(func(pt *core.Party) error {
		m, err := pt.TrainDT()
		if pt.ID == 0 && err == nil {
			model = m
		}
		return err
	})
	if err != nil {
		s.Close()
		return nil, nil, nil, err
	}
	// Warm the shared-model cache so both prediction paths are measured
	// without the one-off Algorithm-2 model conversion.
	warm, err := warmupParts(parts)
	if err == nil {
		_, err = core.PredictDataset(s, model, warm)
	}
	if err != nil {
		s.Close()
		return nil, nil, nil, err
	}
	return s, parts, model, nil
}

// warmupParts restricts the partitions to their first sample.
func warmupParts(parts []*dataset.Partition) ([]*dataset.Partition, error) {
	out := make([]*dataset.Partition, len(parts))
	for i, pt := range parts {
		sp, err := pt.SelectRows([]int{0})
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// predictBaseline is the baseline for the batched prediction pipeline
// (BENCH_predict.json): MPC rounds, messages and wall time for predicting a
// fixed-seed sample batch under the enhanced protocol, per-sample vs
// batched, plus the same comparison under simulated WAN latency
// (transport.WithLatency) where the round reduction becomes a wall-clock
// speedup.
func predictBaseline(p Preset) (*Baseline, error) {
	cfg := cfgFor(p, core.Enhanced, 1)
	s, parts, model, err := predictSession(p, cfg, predictBenchSamples)
	if err != nil {
		return nil, fmt.Errorf("predict bench session: %w", err)
	}
	defer s.Close()

	before := s.Stats()
	start := time.Now()
	perSample, err := core.PredictDatasetPerSample(s, model, parts)
	if err != nil {
		return nil, fmt.Errorf("per-sample prediction: %w", err)
	}
	perSampleSecs := time.Since(start).Seconds()
	mid := s.Stats()

	start = time.Now()
	batched, err := core.PredictDataset(s, model, parts)
	if err != nil {
		return nil, fmt.Errorf("batched prediction: %w", err)
	}
	batchSecs := time.Since(start).Seconds()
	after := s.Stats()

	if !reflect.DeepEqual(perSample, batched) {
		return nil, fmt.Errorf("batched predictions differ from per-sample output")
	}

	// WAN point: identical protocol over the latency wire.  The per-sample
	// chain pays one delay per round, so a small sample budget keeps the
	// measurement CI-sized while the speedup stays round-dominated.
	const wanSamples = 8
	wanCfg := cfg
	wanCfg.NetDelay = p.NetDelay
	wanCfg.NetJitter = p.NetJitter
	if wanCfg.NetDelay == 0 {
		wanCfg.NetDelay = 2 * time.Millisecond
	}
	if wanCfg.NetJitter == 0 {
		wanCfg.NetJitter = 500 * time.Microsecond
	}
	ws, wparts, wmodel, err := predictSession(p, wanCfg, wanSamples)
	if err != nil {
		return nil, fmt.Errorf("predict bench WAN session: %w", err)
	}
	defer ws.Close()

	start = time.Now()
	if _, err := core.PredictDatasetPerSample(ws, wmodel, wparts); err != nil {
		return nil, fmt.Errorf("per-sample WAN prediction: %w", err)
	}
	perSampleWANSecs := time.Since(start).Seconds()
	start = time.Now()
	if _, err := core.PredictDataset(ws, wmodel, wparts); err != nil {
		return nil, fmt.Errorf("batched WAN prediction: %w", err)
	}
	batchWANSecs := time.Since(start).Seconds()

	perSampleRounds, batchRounds := mid.MPC.Rounds-before.MPC.Rounds, after.MPC.Rounds-mid.MPC.Rounds
	perSampleMsgs, batchMsgs := mid.Traffic.MsgsSent-before.Traffic.MsgsSent, after.Traffic.MsgsSent-mid.Traffic.MsgsSent
	b := &Baseline{}
	b.Set("key_bits", p.KeyBits)
	b.Set("m", p.M)
	b.Set("max_depth", p.H)
	b.Set("samples", predictBenchSamples)
	b.Set("seed", 7)
	b.Set("per_sample_mpc_rounds", perSampleRounds)
	b.Set("batch_mpc_rounds", batchRounds)
	b.Set("round_reduction", ratio(float64(perSampleRounds), float64(batchRounds)))
	b.Set("per_sample_msgs_sent", perSampleMsgs)
	b.Set("batch_msgs_sent", batchMsgs)
	b.Set("msg_reduction", ratio(float64(perSampleMsgs), float64(batchMsgs)))
	b.Set("per_sample_seconds", perSampleSecs)
	b.Set("batch_seconds", batchSecs)
	b.Set("wall_speedup", ratio(perSampleSecs, batchSecs))
	b.Set("wan_samples", wanSamples)
	b.Set("net_delay_ms", msOf(wanCfg.NetDelay))
	b.Set("net_jitter_ms", msOf(wanCfg.NetJitter))
	b.Set("per_sample_wan_seconds", perSampleWANSecs)
	b.Set("batch_wan_seconds", batchWANSecs)
	b.Set("wan_speedup", ratio(perSampleWANSecs, batchWANSecs))
	b.Set("predictions_identical", true) // checked above: a mismatch is an error, not a record
	return b, nil
}
