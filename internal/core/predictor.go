package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mpc"
)

// The unified model-facing API.  Every trained Pivot model family —
// single tree, random forest, GBDT — satisfies Predictor, and every
// training flow is described by a Trainer; Train / PredictOne /
// PredictAll drive them over a live Session without the caller ever
// naming the concrete model type.  The serving layer (internal/serve)
// stores Predictors in its registry and pivot.Federation's typed
// methods are thin wrappers over these drivers.

// ModelKind tags the model families the unified API dispatches on.
type ModelKind string

const (
	// KindDT is a single Pivot decision tree (Algorithm 3).
	KindDT ModelKind = "dt"
	// KindRF is a Pivot-RF random forest (§7.1).
	KindRF ModelKind = "rf"
	// KindGBDT is a Pivot-GBDT boosted ensemble (§7.2).
	KindGBDT ModelKind = "gbdt"
)

// Predictor is a trained model the federation can evaluate through the
// privacy-preserving prediction protocols.  *Model, *ForestModel and
// *BoostModel satisfy it; the protocol entry point stays unexported so
// every evaluation goes through the Session drivers below, which keep
// the SPMD discipline (all clients run the same call sequence).
type Predictor interface {
	// Kind reports the model family.
	Kind() ModelKind
	// NumClasses returns the number of classes (0 for regression).
	NumClasses() int

	// predictBatch runs the prediction protocol SPMD at party p on a
	// sample batch (X[t] is p's local columns of sample t); a batch of one
	// is the paper's per-sample protocol.
	predictBatch(p *Party, X [][]float64) ([]float64, error)
}

// Trainer produces a trained Predictor over a live Session.  TrainSpec is
// the standard implementation; the interface exists so richer flows
// (hyper-parameter sweeps, warm starts) can plug into Session Train and
// the serving layer unchanged.
type Trainer interface {
	// Kind reports the model family the trainer produces.
	Kind() ModelKind

	// train runs the training protocol SPMD at party p.
	train(p *Party) (Predictor, error)
}

// TrainSpec selects a model family to train and, for oracle runs, the
// schedule; every protocol knob
// (hyper-parameters, ensemble size, protocol, hide level, …) comes from
// the session's Config, exactly as with the typed Train* methods.
type TrainSpec struct {
	// Model picks the family; empty defaults to KindDT.
	Model ModelKind
	// PerNode trains on the paper's Algorithm-3 schedule — depth-first,
	// one round chain per node, GBDT class trees one after another — on
	// the barrier driver.  It grows the same trees as the default
	// level-wise schedule at far more rounds: the equivalence oracle.
	PerNode bool
}

// Kind implements Trainer.
func (t TrainSpec) Kind() ModelKind {
	if t.Model == "" {
		return KindDT
	}
	return t.Model
}

func (t TrainSpec) train(p *Party) (Predictor, error) {
	p.perNode = t.PerNode
	defer func() { p.perNode = false }()
	switch t.Kind() {
	case KindDT:
		m, err := p.TrainDT()
		if err != nil {
			return nil, err
		}
		return m, nil
	case KindRF:
		m, err := p.TrainRF()
		if err != nil {
			return nil, err
		}
		return m, nil
	case KindGBDT:
		m, err := p.TrainGBDT()
		if err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("core: unknown model kind %q", t.Model)
	}
}

// --- Predictor implementations -------------------------------------------

// Kind implements Predictor.
func (m *Model) Kind() ModelKind { return KindDT }

// NumClasses implements Predictor (0 for regression).
func (m *Model) NumClasses() int { return m.Classes }

func (m *Model) predictBatch(p *Party, X [][]float64) ([]float64, error) {
	return p.PredictBatch(m, X)
}

// Kind implements Predictor.
func (fm *ForestModel) Kind() ModelKind { return KindRF }

// NumClasses implements Predictor (0 for regression).
func (fm *ForestModel) NumClasses() int { return fm.Classes }

func (fm *ForestModel) predictBatch(p *Party, X [][]float64) ([]float64, error) {
	return p.PredictRFBatch(fm, X)
}

// Kind implements Predictor.
func (bm *BoostModel) Kind() ModelKind { return KindGBDT }

// NumClasses implements Predictor (0 for regression).
func (bm *BoostModel) NumClasses() int { return bm.Classes }

func (bm *BoostModel) predictBatch(p *Party, X [][]float64) ([]float64, error) {
	return p.PredictGBDTBatch(bm, X)
}

// --- Session drivers ------------------------------------------------------

// Train runs t's training protocol across the session's clients and
// returns the super client's view of the trained model.  A DT or RF that
// Update accepts leaves its leaf totals on the session, so its first
// absorb replays only the appended rows.
func Train(s *Session, t Trainer) (Predictor, error) {
	out := make([]Predictor, s.M)
	tots := make([][][][]mpc.Share, s.M)
	rows := 0
	err := s.Each(func(p *Party) error {
		p.leafTots = nil
		mdl, err := t.train(p)
		if err == nil {
			out[p.ID], tots[p.ID] = mdl, p.leafTots
		}
		if p.ID == 0 {
			rows = p.part.N
		}
		p.leafTots = nil
		return err
	})
	if err != nil {
		return nil, err
	}
	s.keepLeafTotals(out[0], rows, tots)
	return out[0], nil
}

// PredictOne evaluates one out-of-training sample — the prediction body
// on a batch of one; featuresByClient[c] holds client c's columns of the
// sample.
func PredictOne(s *Session, mdl Predictor, featuresByClient [][]float64) (float64, error) {
	X := make([][][]float64, len(featuresByClient))
	for c, x := range featuresByClient {
		X[c] = [][]float64{x}
	}
	preds, _, err := PredictSamples(s, mdl, X)
	if err != nil {
		return 0, err
	}
	return preds[0], nil
}

// PredictAll evaluates mdl on every sample of the vertical partitions, one
// round chain per Cfg.PredictBatch samples: 0 is the whole dataset in one
// batch, 1 the paper's per-sample schedule.
func PredictAll(s *Session, mdl Predictor, parts []*dataset.Partition) ([]float64, error) {
	X := make([][][]float64, len(parts))
	for c, part := range parts {
		if part.N != len(part.X) {
			return nil, fmt.Errorf("core: client %d's partition counts %d samples and holds %d rows", c, part.N, len(part.X))
		}
		X[c] = part.X
	}
	n, err := s.checkSamples(X)
	if err != nil {
		return nil, err
	}
	batch := s.Cfg.PredictBatch
	if batch <= 0 || batch > n {
		batch = n
	}
	out := make([]float64, 0, n)
	window := make([][][]float64, len(X))
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		for c := range X {
			window[c] = X[c][lo:hi]
		}
		preds, _, err := predictPhase(s, mdl, window)
		if err != nil {
			return nil, err
		}
		out = append(out, preds...)
	}
	return out, nil
}

// PredictSamples evaluates a batch of out-of-training samples in one
// batched round chain (the serving layer's entry point): X[c][t] is client
// c's columns of sample t.  The second return value is the number of MPC
// rounds the batch consumed.
func PredictSamples(s *Session, mdl Predictor, X [][][]float64) ([]float64, int64, error) {
	n, err := s.checkSamples(X)
	if err != nil || n == 0 {
		return nil, 0, err
	}
	return predictPhase(s, mdl, X)
}

// checkSamples refuses, before any client starts, an input the clients
// could not predict on — a failed phase tears the session down — and returns
// its sample count: X needs one slice per client, the same number of samples
// in each, and every row of client c as wide as c's partition.
func (s *Session) checkSamples(X [][][]float64) (int, error) {
	if len(X) != s.M {
		return 0, fmt.Errorf("core: input has %d client slices, session has %d clients", len(X), s.M)
	}
	n := len(X[0])
	for c, rows := range X {
		if len(rows) != n {
			return 0, fmt.Errorf("core: client %d holds %d samples, client 0 holds %d", c, len(rows), n)
		}
		for t, row := range rows {
			if len(row) != s.widths[c] {
				return 0, fmt.Errorf("core: client %d's sample %d has %d features, the client holds %d", c, t, len(row), s.widths[c])
			}
		}
	}
	return n, nil
}

// predictPhase runs one batch through mdl's prediction body at every client
// and returns the super client's predictions and the MPC rounds the batch
// consumed, measured at the super client inside the phase itself, so
// concurrent session users' phases are never miscounted into it.
func predictPhase(s *Session, mdl Predictor, X [][][]float64) ([]float64, int64, error) {
	var preds []float64
	var rounds int64
	err := s.Each(func(p *Party) error {
		r0 := p.Stats.MPC.Rounds
		ps, err := mdl.predictBatch(p, X[p.ID])
		if p.ID == 0 {
			preds, rounds = ps, p.Stats.MPC.Rounds-r0
		}
		return err
	})
	if err != nil {
		return nil, rounds, err
	}
	return preds, rounds, nil
}

// EvictShared drops every party's cached secret-shared conversion of
// mdl's trees, and the leaf totals the session keeps for it.  The serving
// layer calls it when a registry entry is replaced, so a long-lived session
// doesn't accumulate dead models' share vectors; a request already in
// flight with the old model simply re-converts (and re-caches) on its next
// use, and an Update of it replays the union.
func (s *Session) EvictShared(mdl Predictor) {
	var trees []*Model
	switch m := mdl.(type) {
	case *Model:
		trees = []*Model{m}
	case *ForestModel:
		trees = m.Trees
	case *BoostModel:
		for _, f := range m.Forests {
			trees = append(trees, f...)
		}
	}
	s.phaseMu.Lock()
	defer s.phaseMu.Unlock()
	delete(s.kept, mdl)
	for _, p := range s.parties {
		if p == nil {
			continue
		}
		for _, t := range trees {
			delete(p.shared, t)
		}
	}
}
