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
// batch, a PredictOne loop — has to reproduce the predictions bit for bit,
// and the window-one schedule, the paper's, may cost no more on any counter.

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
// driver on its training rows; the first driver's costs are the entry's.
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
		if k == 0 {
			after := s.Stats()
			e.Predictions = out
			e.MPCRounds = after.MPC.Rounds - before.MPC.Rounds
			e.MessagesSent = after.MessagesSent - before.MessagesSent
			e.Encryptions = after.Encryptions - before.Encryptions
			e.DecShares = after.DecShares - before.DecShares
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
		} {
			if c.got > c.want {
				t.Errorf("%s: %s %d, recorded %d", v.name, c.what, c.got, c.want)
			}
		}
	}
	if t.Failed() {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("this tree produces:\n%s", out)
	}
}
