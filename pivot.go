// Package pivot is the public API of this reproduction of "Privacy
// Preserving Vertical Federated Learning for Tree-based Models" (Wu et al.,
// PVLDB 2020).  It wraps the protocol engine in internal/core with a small
// surface for the common flows:
//
//	ds := pivot.SyntheticClassification(1000, 12, 2, 2.0, 1)
//	cfg := pivot.DefaultConfig()
//	fed, _ := pivot.NewFederation(ds, 3, cfg)   // 3 clients, client 0 has labels
//	defer fed.Close()
//	mdl, _ := fed.Train(pivot.TrainSpec{Model: pivot.KindDT})
//	preds, _ := fed.PredictAll(mdl)             // privacy-preserving prediction
//
// Train returns a Predictor; TrainSpec{Model: KindRF} / {Model: KindGBDT}
// train the §7 ensembles through the same call, and PredictOne /
// PredictAt / PredictAll evaluate any Predictor.  For a deployment that
// keeps answering queries after training, cmd/pivot-serve runs a
// long-lived daemon (internal/serve) reachable with pivot.Dial.
//
// A Federation simulates the m clients of the paper's LAN deployment as
// goroutines over an in-memory transport; every protocol message, threshold
// decryption and secure computation is executed exactly as specified in the
// paper (see DESIGN.md for the substitution notes).
package pivot

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/psi"
	"repro/internal/serve"
	"repro/internal/transport"
)

// Re-exported configuration and model types.
type (
	// Config collects every protocol knob (see internal/core).
	Config = core.Config
	// TreeHyper are the CART hyper-parameters.
	TreeHyper = core.TreeHyper
	// DPConfig enables differentially private training (§9.2).
	DPConfig = core.DPConfig
	// Model is a trained Pivot decision tree.
	Model = core.Model
	// ForestModel is a trained Pivot random forest (§7.1).
	ForestModel = core.ForestModel
	// BoostModel is a trained Pivot GBDT (§7.2).
	BoostModel = core.BoostModel
	// RunStats aggregates protocol statistics for a run.
	RunStats = core.RunStats
	// Dataset is a dense labelled table.
	Dataset = dataset.Dataset
	// Partition is one client's vertical slice of a Dataset.
	Partition = dataset.Partition
	// Protocol selects the basic or enhanced protocol.
	Protocol = core.Protocol
	// HideLevel selects what the enhanced protocol conceals (§5.2).
	HideLevel = core.HideLevel
	// SplitCriterion selects gini or entropy classification gains.
	SplitCriterion = core.SplitCriterion
	// Predictor is any trained model a federation can evaluate: *Model,
	// *ForestModel and *BoostModel all satisfy it.
	Predictor = core.Predictor
	// Trainer describes a training flow for Federation.Train; TrainSpec
	// is the standard implementation.
	Trainer = core.Trainer
	// TrainSpec selects the model family to train (hyper-parameters come
	// from the federation Config).
	TrainSpec = core.TrainSpec
	// ModelKind tags the trained model families ("dt", "rf", "gbdt").
	ModelKind = core.ModelKind
)

// Model kinds for TrainSpec and Predictor.Kind.
const (
	KindDT   = core.KindDT
	KindRF   = core.KindRF
	KindGBDT = core.KindGBDT
)

// Protocol values.
const (
	Basic    = core.Basic
	Enhanced = core.Enhanced
)

// Hide levels for the enhanced protocol (each extends the previous).
const (
	HideThreshold = core.HideThreshold
	HideFeature   = core.HideFeature
	HideClient    = core.HideClient
)

// Split criteria.
const (
	Gini      = core.Gini
	Entropy   = core.Entropy
	GainRatio = core.GainRatio
)

// DefaultConfig returns the paper's protocol parameters at laptop scale.
func DefaultConfig() Config { return core.DefaultConfig() }

// Dataset constructors (stand-ins for the paper's evaluation data).
var (
	SyntheticClassification = dataset.SyntheticClassification
	SyntheticRegression     = dataset.SyntheticRegression
	BankMarketing           = dataset.BankMarketing
	CreditCard              = dataset.CreditCard
	AppliancesEnergy        = dataset.AppliancesEnergy
	Split                   = dataset.Split
	LoadCSVFile             = dataset.LoadCSVFile
	SaveCSVFile             = dataset.SaveCSVFile
	VerticalPartition       = dataset.VerticalPartition
)

// Federation is a live m-client session: data vertically partitioned,
// threshold keys dealt, clients connected.
type Federation struct {
	session *Session
	parts   []*Partition
}

// Session is the lower-level SPMD session (advanced use).
type Session = core.Session

// NewFederation vertically partitions ds across m clients (labels at
// client 0, the super client) and brings the federation up.
func NewFederation(ds *Dataset, m int, cfg Config) (*Federation, error) {
	parts, err := dataset.VerticalPartition(ds, m, 0)
	if err != nil {
		return nil, err
	}
	return NewFederationFromPartitions(parts, cfg)
}

// NewFederationFromPartitions starts a federation over pre-built vertical
// partitions (e.g. loaded from per-client CSV files).
func NewFederationFromPartitions(parts []*Partition, cfg Config) (*Federation, error) {
	s, err := core.NewSession(parts, cfg)
	if err != nil {
		return nil, err
	}
	return &Federation{session: s, parts: parts}, nil
}

// PSIGroup is the algebraic group the private-set-intersection alignment
// runs in (see internal/psi).
type PSIGroup = psi.Group

// PSI group constructors: DefaultPSIGroup is the 1024-bit production group,
// TestPSIGroup the fast 512-bit group for tests and demos.
var (
	DefaultPSIGroup = psi.DefaultGroup
	TestPSIGroup    = psi.TestGroup
)

// NewAlignedFederation performs the paper's initialization stage (§3.1) and
// then brings the federation up: the m clients hold partitions whose rows
// are keyed by ids[c] (arbitrary order, possibly different subsets of
// users), run the DDH-based private set intersection protocol to find their
// common samples without revealing ids outside the intersection, restrict
// and reorder their local rows to the agreed order, and start the session.
// The returned id list is the aligned sample order shared by all clients.
func NewAlignedFederation(parts []*Partition, ids [][]string, g *PSIGroup, cfg Config) (*Federation, []string, error) {
	if len(parts) != len(ids) {
		return nil, nil, fmt.Errorf("pivot: %d partitions but %d id lists", len(parts), len(ids))
	}
	for c, p := range parts {
		if len(ids[c]) != len(p.X) {
			return nil, nil, fmt.Errorf("pivot: client %d has %d rows but %d ids", c, len(p.X), len(ids[c]))
		}
	}
	if g == nil {
		g = psi.DefaultGroup()
	}
	common, rows, err := psi.AlignAll(g, ids)
	if err != nil {
		return nil, nil, err
	}
	if len(common) == 0 {
		return nil, nil, fmt.Errorf("pivot: the clients share no common samples")
	}
	aligned := make([]*Partition, len(parts))
	for c, p := range parts {
		ap, err := p.SelectRows(rows[c])
		if err != nil {
			return nil, nil, fmt.Errorf("pivot: client %d alignment: %w", c, err)
		}
		aligned[c] = ap
	}
	fed, err := NewFederationFromPartitions(aligned, cfg)
	if err != nil {
		return nil, nil, err
	}
	return fed, common, nil
}

// Close tears the federation down.  It is idempotent and safe under
// concurrent callers: the first caller performs the teardown (after any
// in-flight protocol phase completes), the rest block until it is done.
func (f *Federation) Close() { f.session.Close() }

// Parts returns the vertical partitions (client i's view of the data).
func (f *Federation) Parts() []*Partition { return f.parts }

// Stats returns aggregated protocol statistics across all clients.
func (f *Federation) Stats() RunStats { return f.session.Stats() }

// Session exposes the SPMD session for advanced orchestration.
func (f *Federation) Session() *Session { return f.session }

// Train runs t's training flow over the federation and returns the
// trained model as a Predictor.  TrainSpec is the standard Trainer:
//
//	mdl, err := fed.Train(pivot.TrainSpec{Model: pivot.KindRF})
//	preds, err := fed.PredictAll(mdl)
//
// Type-assert the result (*pivot.Model, *pivot.ForestModel,
// *pivot.BoostModel) when the concrete type is needed (Save, rendering).
func (f *Federation) Train(t Trainer) (Predictor, error) {
	return core.Train(f.session, t)
}

// PredictOne runs the privacy-preserving prediction protocol for one
// out-of-training sample whose features are already split per client
// (featuresByClient[c] is client c's columns), for any model family.
func (f *Federation) PredictOne(mdl Predictor, featuresByClient [][]float64) (float64, error) {
	if len(featuresByClient) != len(f.parts) {
		return 0, fmt.Errorf("pivot: sample has %d client slices, federation has %d", len(featuresByClient), len(f.parts))
	}
	return core.PredictOne(f.session, mdl, featuresByClient)
}

// PredictAt runs the prediction protocol for training sample index i, for
// any model family (round-robin under the basic protocol, secret-shared
// under the enhanced protocol).
func (f *Federation) PredictAt(mdl Predictor, i int) (float64, error) {
	if i < 0 || i >= f.parts[0].N {
		return 0, fmt.Errorf("pivot: sample index %d out of range", i)
	}
	by := make([][]float64, len(f.parts))
	for c, p := range f.parts {
		by[c] = p.X[i]
	}
	return core.PredictOne(f.session, mdl, by)
}

// PredictAll evaluates any model on every sample of the federation's
// partitions through the batched prediction pipeline: one MPC round chain
// per Config.PredictBatch samples (0 = the whole dataset in one batch, 1 =
// the paper's per-sample schedule).
func (f *Federation) PredictAll(mdl Predictor) ([]float64, error) {
	return core.PredictAll(f.session, mdl, f.parts)
}

// Update absorbs a batch of appended aligned samples (global column
// order, labels included) into a trained model without a full retrain:
// the clients extend their vertical partitions with the new rows, the
// released trees are replayed over the union with zero MPC rounds — over
// the new rows only for a DT/RF this federation released, whose leaf
// totals it keeps as shares — and only the leaf refinement (DT/RF) or the
// addTrees extra boosting rounds
// (GBDT; <= 0 selects 1, at most core.MaxAddTrees) run secure computation.  The absorbed rows also
// join the federation's partitions, so PredictAll and later absorbs see
// the union.  Basic protocol only: a warm start replays released
// plaintext trees, which the enhanced protocol never discloses.
func (f *Federation) Update(mdl Predictor, appended *Dataset, addTrees int) (Predictor, error) {
	if appended == nil || appended.N() == 0 {
		return nil, fmt.Errorf("pivot: update carries no samples")
	}
	width := 0
	for _, p := range f.parts {
		width += len(p.Features)
	}
	if appended.D() != width {
		return nil, fmt.Errorf("pivot: appended samples have %d features, federation has %d", appended.D(), width)
	}
	if len(appended.Y) != appended.N() {
		return nil, fmt.Errorf("pivot: %d appended samples but %d labels", appended.N(), len(appended.Y))
	}
	ap := make([]*Partition, len(f.parts))
	for c, p := range f.parts {
		np := &Partition{
			Client:   p.Client,
			Features: p.Features,
			Classes:  p.Classes,
			N:        appended.N(),
			X:        make([][]float64, appended.N()),
			// Labels ride every slice; only the super client reads them.
			Y: append([]float64(nil), appended.Y...),
		}
		for t, row := range appended.X {
			local := make([]float64, len(p.Features))
			for j, g := range p.Features {
				local[j] = row[g]
			}
			np.X[t] = local
		}
		ap[c] = np
	}
	out, err := core.Update(f.session, core.UpdateSpec{Model: mdl, Append: ap, AddTrees: addTrees})
	if err != nil {
		return nil, err
	}
	// Grow the federation's own view copy-on-append too: the original
	// partition structs may still back other sessions or callers.
	for c, p := range f.parts {
		merged := &Partition{
			Client:   p.Client,
			Features: p.Features,
			Classes:  p.Classes,
			N:        p.N + ap[c].N,
			X:        append(append(make([][]float64, 0, p.N+ap[c].N), p.X...), ap[c].X...),
		}
		if p.Y != nil {
			merged.Y = append(append(make([]float64, 0, merged.N), p.Y...), appended.Y...)
		}
		f.parts[c] = merged
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Serving (see internal/serve and cmd/pivot-serve)

// ServeClient is a connection to a running pivot-serve daemon.
type ServeClient = serve.Client

// ServeModelInfo describes one entry of a daemon's model registry.
type ServeModelInfo = serve.Info

// Dial connects to a pivot-serve prediction daemon:
//
//	cli, err := pivot.Dial("127.0.0.1:9100")
//	preds, err := cli.Predict("dt", samples)   // rows in global column order
//
// A client serializes its own requests; open several clients for
// concurrent load — the daemon coalesces their samples into shared MPC
// round chains.  Refused connections are retried with a capped
// full-jitter backoff for up to 5 seconds, riding out daemon restarts;
// DialTimeout tunes that window.
func Dial(addr string) (*ServeClient, error) { return serve.Dial(addr) }

// DialTimeout is Dial with an explicit connection-retry window
// (timeout <= 0 attempts exactly once).
func DialTimeout(addr string, timeout time.Duration) (*ServeClient, error) {
	return serve.DialTimeout(addr, timeout)
}

// ServeDialOptions tunes Dial: TLS on the wire, the daemon's shared auth
// token, and the connect retry window.
type ServeDialOptions = serve.DialOptions

// DialOpts is Dial with transport security, matching a daemon started
// with -tls-cert/-tls-key and/or -auth:
//
//	tlsCfg, _ := pivot.LoadClientTLS("ca.pem", "", false)
//	cli, _ := pivot.DialOpts(addr, pivot.ServeDialOptions{TLS: tlsCfg, AuthToken: tok})
func DialOpts(addr string, opts ServeDialOptions) (*ServeClient, error) {
	return serve.DialOpts(addr, opts)
}

// TLS config builders for the serving wire (see internal/transport):
// LoadServerTLS reads a PEM cert/key pair for the daemon, LoadClientTLS
// builds the client side (custom CA bundle, server-name override, or
// insecure test mode), and SelfSignedTLS mints an ephemeral matched
// server/client pair for tests and loopback rigs.
var (
	LoadServerTLS = transport.LoadServerTLS
	LoadClientTLS = transport.LoadClientTLS
	SelfSignedTLS = transport.SelfSignedTLS
)

// ErrServeUnavailable matches (errors.Is) predictions a daemon refused
// because its serving session died and is being rebuilt; the concrete
// *serve.UnavailableError carries a RetryAfter back-off hint.
var ErrServeUnavailable = serve.ErrUnavailable

// LRModel is the §7.3 vertical logistic regression model.
type LRModel = core.LRModel

// LRConfig are the logistic regression hyper-parameters.
type LRConfig = core.LRConfig

// TrainLogisticRegression trains the §7.3 vertical logistic regression
// extension (binary labels) over the federation.
func (f *Federation) TrainLogisticRegression(cfg LRConfig) (*LRModel, error) {
	models := make([]*LRModel, len(f.parts))
	err := f.session.Each(func(p *core.Party) error {
		m, err := p.TrainLR(cfg)
		if err == nil {
			models[p.ID] = m
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return models[0], nil
}
