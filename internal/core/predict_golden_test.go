package core

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// The prediction schedule's recorded oracle.  testdata/predict_golden.json was
// produced by the per-sample prediction bodies (Party.Predict, PredictRF,
// PredictGBDT and the malicious PredictAll they drove) at the commit before
// they were deleted: each variant's predictions on its training rows, and
// what predicting them one sample at a time cost — MPC rounds, messages,
// encryptions and decryption shares, the model's Algorithm-2 conversion
// included for the enhanced ones.  Every driver of the one prediction body
// that replaced them — PredictAll at a window of one, PredictAll over one
// batch, a PredictOne loop — has to reproduce the predictions bit for bit.
//
// The window-one counters are pinned exactly, as are the one-batch driver's
// rounds and messages (batch_* columns): three runs of the one body agreed
// on each.  Its rounds, encryptions, decryption shares and messages were
// re-recorded from the body when the pins became exact, where they had
// fallen below the per-sample bodies' figures.

func goldenPredictCls() *dataset.Dataset { return smallClassification(16) }
func goldenPredictReg() *dataset.Dataset { return dataset.SyntheticRegression(16, 4, 0.2, 9) }

func goldenMalicious(c *Config) {
	c.Malicious = true
	c.Tree.MaxSplits = 2
}

var predictGoldenVariants = []goldenVariant{
	{"basic-classification", KindDT, goldenPredictCls, func(c *Config) {}},
	{"basic-regression", KindDT, goldenPredictReg, func(c *Config) {}},
	{"enhanced-hide-threshold", KindDT, goldenPredictCls, func(c *Config) { c.Protocol = Enhanced }},
	{"enhanced-hide-feature", KindDT, goldenPredictCls, func(c *Config) { c.Protocol, c.Hide = Enhanced, HideFeature }},
	{"enhanced-hide-client", KindDT, goldenPredictCls, func(c *Config) { c.Protocol, c.Hide = Enhanced, HideClient }},
	{"enhanced-regression", KindDT, goldenPredictReg, func(c *Config) { c.Protocol = Enhanced }},
	{"malicious-basic", KindDT, goldenPredictCls, goldenMalicious},
	{"malicious-enhanced", KindDT, goldenPredictCls, func(c *Config) {
		goldenMalicious(c)
		c.Protocol = Enhanced
	}},
	{"rf-classification", KindRF, goldenPredictCls, goldenEnsemble},
	{"rf-regression", KindRF, goldenPredictReg, goldenEnsemble},
	{"gbdt-classification", KindGBDT, goldenPredictCls, goldenEnsemble},
	{"gbdt-regression", KindGBDT, goldenPredictReg, goldenEnsemble},
}

// predictGoldenEntry is one variant's predictions and what they cost.
type predictGoldenEntry struct {
	Name         string    `json:"name"`
	Predictions  []float64 `json:"predictions"`
	MPCRounds    int64     `json:"mpc_rounds"`
	MessagesSent int64     `json:"messages_sent"`
	Encryptions  int64     `json:"encryptions"`
	DecShares    int64     `json:"dec_shares"`
	// What the one-batch driver, the production path, costs.
	BatchMPCRounds    int64 `json:"batch_mpc_rounds"`
	BatchMessagesSent int64 `json:"batch_messages_sent"`
}

// predictDriver evaluates mdl on every row of parts.
type predictDriver struct {
	name string
	run  func(s *Session, mdl Predictor, parts []*dataset.Partition) ([]float64, error)
}

var predictDrivers = []predictDriver{
	{"PredictAll, window 1", func(s *Session, mdl Predictor, parts []*dataset.Partition) ([]float64, error) {
		s.Cfg.PredictBatch = 1
		defer func() { s.Cfg.PredictBatch = 0 }()
		return PredictAll(s, mdl, parts)
	}},
	{"PredictAll, one batch", func(s *Session, mdl Predictor, parts []*dataset.Partition) ([]float64, error) {
		return PredictAll(s, mdl, parts)
	}},
	{"PredictOne loop", func(s *Session, mdl Predictor, parts []*dataset.Partition) ([]float64, error) {
		X := partsX(parts)
		out := make([]float64, parts[0].N)
		for i := range out {
			v, err := PredictOne(s, mdl, sampleAt(X, i))
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}},
}

// runPredictGolden trains v (2 clients, 256-bit keys, seed 1) and runs every
// driver on its training rows; the first two drivers' costs are the entry's.
func runPredictGolden(t *testing.T, v goldenVariant) (predictGoldenEntry, [][]float64) {
	t.Helper()
	parts, err := dataset.VerticalPartition(v.ds(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Tree.MaxDepth = 2
	v.set(&cfg)
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mdl, err := Train(s, TrainSpec{Model: v.kind})
	if err != nil {
		t.Fatalf("%s: train: %v", v.name, err)
	}
	e := predictGoldenEntry{Name: v.name}
	var preds [][]float64
	for k, d := range predictDrivers {
		before := s.Stats()
		out, err := d.run(s, mdl, parts)
		if err != nil {
			t.Fatalf("%s: %s: %v", v.name, d.name, err)
		}
		preds = append(preds, out)
		cost := statsSince(s, before)
		switch k {
		case 0:
			e.Predictions = out
			e.MPCRounds, e.MessagesSent = cost.MPC.Rounds, cost.MessagesSent
			e.Encryptions, e.DecShares = cost.Encryptions, cost.DecShares
		case 1:
			e.BatchMPCRounds, e.BatchMessagesSent = cost.MPC.Rounds, cost.MessagesSent
		}
	}
	return e, preds
}

func TestPredictScheduleGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/predict_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded []predictGoldenEntry
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]predictGoldenEntry, len(recorded))
	for _, e := range recorded {
		want[e.Name] = e
	}
	if len(want) != len(predictGoldenVariants) {
		t.Errorf("golden file holds %d entries, the test runs %d variants", len(want), len(predictGoldenVariants))
	}
	var got []predictGoldenEntry
	for _, v := range predictGoldenVariants {
		g, preds := runPredictGolden(t, v)
		got = append(got, g)
		w, ok := want[v.name]
		if !ok {
			t.Errorf("%s: no recorded entry", v.name)
			continue
		}
		t.Logf("%-24s rounds %d -> %d msgs %d -> %d enc %d -> %d dec %d -> %d", v.name,
			w.MPCRounds, g.MPCRounds, w.MessagesSent, g.MessagesSent, w.Encryptions, g.Encryptions, w.DecShares, g.DecShares)
		for k, d := range predictDrivers {
			if !reflect.DeepEqual(preds[k], w.Predictions) {
				t.Errorf("%s: %s predicts %v, recorded %v", v.name, d.name, preds[k], w.Predictions)
			}
		}
		for _, c := range []struct {
			what      string
			got, want int64
		}{
			{"MPC rounds", g.MPCRounds, w.MPCRounds},
			{"messages", g.MessagesSent, w.MessagesSent},
			{"encryptions", g.Encryptions, w.Encryptions},
			{"decryption shares", g.DecShares, w.DecShares},
			{"one-batch MPC rounds", g.BatchMPCRounds, w.BatchMPCRounds},
			{"one-batch messages", g.BatchMessagesSent, w.BatchMessagesSent},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s %d, recorded %d", v.name, c.what, c.got, c.want)
			}
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("this tree produces:\n%s", out)
	}
}
