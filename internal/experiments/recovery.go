package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// modelSHA hashes a released model's rendering for the equality check.
func modelSHA(m *core.Model) string {
	sum := sha256.Sum256([]byte(m.String()))
	return hex.EncodeToString(sum[:])
}

// recoveryBaseline is the baseline for crash recovery (BENCH_recovery.json),
// measured on the in-memory network (deterministic counters).  The workload
// is one fixed-seed decision tree: a chaos-armed run crashes a party a few
// operations into the level after crash_level (i.e. after the
// level-crash_level checkpoint committed), and the resumed session finishes
// training from that checkpoint.  The resumed model must hash identically
// to the fault-free oracle, and resuming must cost fewer MPC rounds,
// messages and bytes than retraining from scratch — those counters are
// deterministic and gated by pivot-benchdiff.
func recoveryBaseline(p Preset) (*Baseline, error) {
	const (
		crashLevel = 2
		crashParty = 1
		chaosSeed  = 11
	)
	cfg := cfgFor(p, core.Basic, 0)
	ds := dataset.SyntheticClassification(p.N, p.DBar*p.M, p.Classes, 2.0, 99)
	parts, err := dataset.VerticalPartition(ds, p.M, 0)
	if err != nil {
		return nil, err
	}

	// Retrain leg — also the fault-free oracle the recovered model must
	// match bit for bit.
	start := time.Now()
	oracle, retrain, err := core.TrainDecisionTree(ds, p.M, cfg)
	retrainSecs := time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("recovery retrain leg: %w", err)
	}

	// Crashed leg: deterministic chaos kills crashParty just after the
	// level-crashLevel checkpoint commits.
	store := &core.CheckpointStore{}
	ccfg := cfg
	ccfg.Checkpoint = store
	ccfg.Chaos = &transport.ChaosConfig{Seed: chaosSeed, CrashAtLevel: crashLevel}
	ccfg.ChaosParty = crashParty
	s, err := core.NewSession(parts, ccfg)
	if err != nil {
		return nil, err
	}
	err = s.Each(func(p *core.Party) error {
		_, err := p.TrainDT()
		return err
	})
	s.Close()
	if err == nil {
		return nil, fmt.Errorf("recovery bench: the armed crash did not abort training")
	}
	if ck := store.Latest(); ck == nil {
		return nil, fmt.Errorf("recovery bench: no checkpoint committed before the crash")
	}

	// Resume leg: rebuild the federation from the checkpoint and finish.
	rcfg := cfg
	rcfg.Checkpoint = store
	rs, err := core.ResumeSession(parts, rcfg)
	if err != nil {
		return nil, fmt.Errorf("recovery resume leg: %w", err)
	}
	defer rs.Close()
	start = time.Now()
	res, err := rs.Resume()
	resumeSecs := time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("recovery resume leg: %w", err)
	}
	resume := rs.Stats()

	oracleSHA, resumeSHA := modelSHA(oracle), modelSHA(res.DT)
	if resumeSHA != oracleSHA || !reflect.DeepEqual(res.DT, oracle) {
		return nil, fmt.Errorf("recovery bench: resumed model differs from the fault-free oracle")
	}
	if resume.MPC.Rounds >= retrain.MPC.Rounds {
		return nil, fmt.Errorf("recovery bench: resume cost %d rounds, retrain %d — resuming must win",
			resume.MPC.Rounds, retrain.MPC.Rounds)
	}

	b := &Baseline{}
	b.Set("key_bits", p.KeyBits)
	b.Set("n", p.N)
	b.Set("m", p.M)
	b.Set("max_depth", p.H)
	b.Set("max_splits", p.B)
	b.Set("classes", p.Classes)
	b.Set("seed", 7)
	b.Set("data_seed", 99)
	b.Set("transport", "memory")
	b.Set("crash_level", crashLevel)
	b.Set("crash_party", crashParty)
	// Bit-identity of the recovered model against the fault-free oracle
	// (checked above: a mismatch is an error, not a record).
	b.Set("model_match", true)
	b.Set("oracle_model_sha256", oracleSHA)
	b.Set("resume_model_sha256", resumeSHA)
	// Gated counters: what a from-scratch retrain costs vs what finishing
	// from the last committed checkpoint costs (the resume figures include
	// the resumed session's bring-up handshakes).
	b.Set("retrain_mpc_rounds", retrain.MPC.Rounds)
	b.Set("resume_mpc_rounds", resume.MPC.Rounds)
	b.Set("retrain_msgs_sent", retrain.Traffic.MsgsSent)
	b.Set("resume_msgs_sent", resume.Traffic.MsgsSent)
	b.Set("retrain_bytes_sent", retrain.Traffic.BytesSent)
	b.Set("resume_bytes_sent", resume.Traffic.BytesSent)
	// Advisory wall-clock figures (timing-noisy, never gated).
	b.Set("retrain_seconds", retrainSecs)
	b.Set("resume_seconds", resumeSecs)
	b.Set("resume_speedup", ratio(retrainSecs, resumeSecs))
	// Resuming must stay cheaper than retraining, and a silently disabled
	// checkpoint path would zero or inflate these counters.
	b.Gate("resume_mpc_rounds", "retrain_mpc_rounds", "resume_msgs_sent", "retrain_msgs_sent")
	return b, nil
}
