package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/dataset"
)

// predictBenchSamples is the batch the acceptance criterion is stated
// over: 64 samples through the enhanced protocol.
const predictBenchSamples = 64

// predictSession trains one enhanced-protocol tree on the fixed-seed
// dataset and returns the live session ready for prediction phases.
func predictSession(p Preset, cfg core.Config) (*core.Session, []*dataset.Partition, *core.Model, error) {
	ds := dataset.SyntheticClassification(predictBenchSamples, p.DBar*p.M, p.Classes, 2.0, 99)
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
	// Warm the shared-model cache so both prediction paths are counted
	// without the one-off Algorithm-2 model conversion.
	warm, err := warmupParts(parts)
	if err == nil {
		_, err = core.PredictAll(s, model, warm)
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
// (BENCH_predict.json): MPC rounds and messages for predicting a fixed-seed
// sample batch under the enhanced protocol, per sample (PredictAll at a
// window of one) vs in one batch.
func predictBaseline(p Preset) (*Baseline, error) {
	cfg := cfgFor(p, core.Enhanced, 1)
	s, parts, model, err := predictSession(p, cfg)
	if err != nil {
		return nil, fmt.Errorf("predict bench session: %w", err)
	}
	defer s.Close()

	before := s.Stats()
	perSample, err := predictWindow(s, model, parts, 1)
	if err != nil {
		return nil, fmt.Errorf("per-sample prediction: %w", err)
	}
	mid := s.Stats()
	batched, err := predictWindow(s, model, parts, 0)
	if err != nil {
		return nil, fmt.Errorf("batched prediction: %w", err)
	}
	after := s.Stats()

	if !reflect.DeepEqual(perSample, batched) {
		return nil, fmt.Errorf("batched predictions differ from per-sample output")
	}

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
	b.Set("predictions_identical", true) // checked above: a mismatch is an error, not a record
	return b, nil
}

// predictWindow runs PredictAll one round chain per `window` samples (0 = all
// of them in one).
func predictWindow(s *core.Session, model *core.Model, parts []*dataset.Partition, window int) ([]float64, error) {
	s.Cfg.PredictBatch = window
	return core.PredictAll(s, model, parts)
}
