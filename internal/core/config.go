// Package core implements Pivot, the paper's primary contribution: privacy
// preserving vertical federated training and prediction of tree-based
// models, using the hybrid TPHE + MPC framework of §3–§5.
//
// Every protocol function in this package is single-program-multiple-data:
// all m clients run the same function on their own Party context, exchanging
// messages through the transport layer.  Client 0 is the super client (it
// holds the labels).
package core

import (
	"math"
	"runtime"
	"time"

	"repro/internal/mpc"
	"repro/internal/transport"
)

// Protocol selects between the paper's two releases of the trained model.
type Protocol int

const (
	// Basic releases the whole tree in plaintext (§4).
	Basic Protocol = iota
	// Enhanced conceals split thresholds and leaf labels (§5).
	Enhanced
)

func (p Protocol) String() string {
	if p == Enhanced {
		return "enhanced"
	}
	return "basic"
}

// SplitCriterion selects the classification impurity measure computed under
// MPC.  Gini is the paper's CART metric (Eqn 4); Entropy is the ID3/C4.5
// information-gain variant the paper notes "can be easily generalized"
// (§2.3), built on the engine's secure logarithm.  Regression always uses
// label variance (Eqn 6).
type SplitCriterion int

const (
	// Gini impurity (the paper's default).
	Gini SplitCriterion = iota
	// Entropy / information gain (ID3).
	Entropy
	// GainRatio: information gain normalized by the split information
	// −(w_l·ln w_l + w_r·ln w_r), the C4.5 variant, computed with a secure
	// logarithm and a secure division per candidate split.
	GainRatio
)

func (c SplitCriterion) String() string {
	switch c {
	case Entropy:
		return "entropy"
	case GainRatio:
		return "gain-ratio"
	default:
		return "gini"
	}
}

// TreeHyper are the CART hyper-parameters (Table 4 of the paper).
type TreeHyper struct {
	MaxDepth        int // h
	MaxSplits       int // b
	MinSamplesSplit int
	// Criterion selects gini (default) or entropy gains for classification.
	Criterion SplitCriterion
	// LeafOnZeroGain stops splitting when the best gain is non-positive
	// (the open of this one condition bit is public, like the pruning
	// conditions in Algorithm 3).
	LeafOnZeroGain bool
}

// DefaultTreeHyper matches the evaluation defaults (h=4, b=8).
func DefaultTreeHyper() TreeHyper {
	return TreeHyper{MaxDepth: 4, MaxSplits: 8, MinSamplesSplit: 2, LeafOnZeroGain: true}
}

// HideLevel selects how much of the released model the enhanced protocol
// conceals (§5.2 "Discussion": a privacy / efficiency+interpretability
// trade-off).  Each level strictly extends the previous one.
type HideLevel int

const (
	// HideThreshold is the paper's enhanced protocol: the split threshold of
	// every internal node and every leaf label are concealed; the owner i*
	// and feature j* of each internal node stay public.
	HideThreshold HideLevel = iota
	// HideFeature additionally conceals the split feature j*: the PIR
	// selection runs over all of the owner's splits, so colluders learn only
	// which client owns each internal node.
	HideFeature
	// HideClient additionally conceals the owning client i*: the PIR
	// selection runs over all db splits of all clients, so the released
	// model reveals nothing but the tree shape.
	HideClient
)

func (h HideLevel) String() string {
	switch h {
	case HideFeature:
		return "hide-feature"
	case HideClient:
		return "hide-client"
	default:
		return "hide-threshold"
	}
}

// DPConfig enables differentially private training (§9.2).
type DPConfig struct {
	// Epsilon is the per-query budget ε; the whole run satisfies
	// 2ε(h+1)-DP (Friedman & Schuster composition, as cited in §9.2).
	Epsilon float64
}

// The fixed-point and masking parameters are the same in every session.
const (
	// FracBits is the number of fixed-point fractional bits f.
	FracBits uint = 16
	// Kappa is the statistical masking parameter κ.
	Kappa uint = 40
)

// Config collects all protocol knobs.
type Config struct {
	Protocol Protocol
	Tree     TreeHyper

	// KeyBits is the threshold Paillier modulus size (paper: 1024 for the
	// efficiency study, 512 for the accuracy study).
	KeyBits int
	// LabelBits bounds |label| < 2^LabelBits (public hyper-parameter needed
	// to size the statistical masks for regression label sums); the super
	// client refuses a label outside it with an ErrLabelRange.
	LabelBits uint

	// Workers > 1 parallelizes threshold decryption, encryption and the
	// homomorphic vector operations — the paper's "-PP" variants (6 cores
	// in §8.3).  0 means runtime.NumCPU(); set 1 to force the sequential
	// baseline.
	Workers int

	// PoolCapacity sizes the Paillier randomness pool: the number of
	// r^N mod N² obfuscators precomputed ahead of the encryption hot path
	// by background workers (0 = default 1024; negative disables the pool
	// so every encryption pays a full modular exponentiation, the seed
	// behavior).
	PoolCapacity int
	// PoolWorkers is the number of background obfuscator generator
	// goroutines (0 = 1).
	PoolWorkers int

	// Hide selects what the enhanced protocol conceals (ignored under the
	// basic protocol): the paper's default conceals thresholds and leaf
	// labels; HideFeature / HideClient implement the §5.2 discussion's
	// stronger levels at higher cost.
	Hide HideLevel

	// Malicious enables the §9.1 extension: authenticated MPC shares plus
	// zero-knowledge proofs on the HE-side messages.  It packs exactly like
	// a semi-honest run: packed openings carry their MACs, and the mask
	// proofs of a conversion cover its packed ciphertexts.
	Malicious bool

	// DP, if non-nil, enables the §9.2 differential privacy extension.
	DP *DPConfig

	// PredictBatch caps how many samples PredictAll amortizes one MPC round
	// chain over: 0 = the whole dataset in one batch, 1 = the paper's
	// per-sample schedule.  Every window runs the same prediction body.
	PredictBatch int

	// NetDelay / NetJitter enable the WAN latency simulation: every
	// protocol message is delivered NetDelay + U[0, NetJitter) after it was
	// sent, on an asynchronous FIFO wire (transport.WithLatency), so round
	// reductions translate into wall-clock speedups without real network
	// hardware.  Zero disables the wrapper.
	NetDelay  time.Duration
	NetJitter time.Duration

	// TCPLoopback runs the session's parties over a real TCP mesh on
	// 127.0.0.1 (transport.NewLoopbackTCPNetwork) instead of the in-memory
	// channel network.  Messages then pay genuine framing, serialization
	// and kernel socket costs, so per-message overhead is represented in
	// wall-clock measurements.  Composable with NetDelay (the latency
	// wrapper stacks on top).  Either one gives rounds a real cost, which
	// selects the pipelined driver (Config.pipelineActive).
	TCPLoopback bool

	// Ensemble parameters (§7).
	NumTrees     int     // W
	LearningRate float64 // GBDT shrinkage
	Subsample    float64 // RF bootstrap fraction

	// Seed drives all deterministic randomness (dealer, data order).
	Seed int64

	// Checkpoint, when non-nil, enables phase-boundary crash recovery: at
	// every completed tree level each party snapshots its recoverable state
	// into the store, and ResumeSession rebuilds a crashed federation from
	// the last checkpoint all parties committed (recovery.go).  Both drivers
	// checkpoint at the level join; under a store, random-forest trees train
	// one after another instead of on concurrent lanes.  DP runs resume
	// bit-identical (their noise is dealer material, which the snapshots
	// capture); malicious sessions are refused with ErrNotRecoverable.
	Checkpoint *CheckpointStore

	// Chaos, when non-nil, wraps party ChaosParty's endpoint with the
	// deterministic fault injector (transport.WithChaos): seeded drops,
	// resets, delays and crash-at-round/level schedules for recovery tests.
	Chaos      *transport.ChaosConfig
	ChaosParty int
}

// DefaultConfig returns a laptop-scale configuration with the paper's
// protocol parameters.
func DefaultConfig() Config {
	return Config{
		Protocol:     Basic,
		Tree:         DefaultTreeHyper(),
		KeyBits:      512,
		LabelBits:    8,
		Workers:      runtime.NumCPU(),
		NumTrees:     4,
		LearningRate: 0.1,
		Subsample:    1.0,
	}
}

func (c Config) withDefaults() Config {
	if c.KeyBits == 0 {
		c.KeyBits = 512
	}
	if c.LabelBits == 0 {
		c.LabelBits = 8
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Tree.MaxDepth == 0 {
		c.Tree = DefaultTreeHyper()
	}
	if c.NumTrees == 0 {
		c.NumTrees = 4
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.Subsample == 0 {
		c.Subsample = 1.0
	}
	return c
}

// pipelineActive reports whether this configuration runs the overlapped
// level-wise driver (pipeline.go): only when rounds cost real time (loopback
// TCP or a simulated WAN delay).  On the in-memory network a round is one
// channel send and the per-lane dealer top-ups would exceed what the overlap
// hides, so the same Config there is the barrier oracle.  The variants
// without an overlapped implementation stay barrier on every transport:
//   - malicious (§9.1): the speculative-gamma pass broadcasts γ without its
//     POPCM proofs, and a lane fork's openings never reach the main engine's
//     CheckMACs;
//   - DP (§9.2): the dealer serves lane material in arrival order, so noise
//     drawn under overlap would not be a function of the seed.
func (c Config) pipelineActive() bool {
	realRounds := c.TCPLoopback || c.NetDelay > 0 || c.NetJitter > 0
	return realRounds && !c.Malicious && c.DP == nil
}

// mpcConfig derives the engine configuration.
func (c Config) mpcConfig() mpc.Config {
	return mpc.Config{
		F:             FracBits,
		Kappa:         Kappa,
		Authenticated: c.Malicious,
		Seed:          c.Seed,
		BatchSize:     512,
		Workers:       c.Workers,
	}
}

// widths derives the bit-width parameters from the sample count.
type widths struct {
	count uint // bound on sample counts (log2 n + slack)
	stat  uint // bound on any converted statistic
	gain  uint // bound on f-scaled gain values
	value uint // bound on f-scaled feature/label values
}

func (c Config) widths(n int) widths {
	logn := uint(math.Ceil(math.Log2(float64(n+2)))) + 2
	w := widths{
		count: logn,
		stat:  logn + 2*(c.LabelBits+FracBits) + 2,
		gain:  2*c.LabelBits + FracBits + 4,
		value: c.LabelBits + FracBits + 4,
	}
	return w
}

// PhaseStats records wall time per protocol phase, mirroring the cost
// decomposition of Table 2.  Each phase additionally splits out WireWait:
// the portion of its wall time the party spent blocked in transport
// receives waiting for frames that had not arrived yet — the "dead air"
// the pipelined driver exists to fill.  Phase − Wire ≈ compute.  Under the
// pipelined driver concurrent lanes share the endpoint's wait counter, so
// the per-phase attribution is approximate there; in barrier mode it is
// exact.
type PhaseStats struct {
	LocalComputation time.Duration // encrypted statistics via TPHE
	Conversion       time.Duration // Algorithm 2 (threshold decryptions, C_d)
	MPCComputation   time.Duration // secure gain + argmax (C_s, C_c)
	ModelUpdate      time.Duration // mask vector updates

	LocalComputationWire time.Duration
	ConversionWire       time.Duration
	MPCComputationWire   time.Duration
	ModelUpdateWire      time.Duration
}

// Add accumulates other into s.
func (s *PhaseStats) Add(other PhaseStats) {
	s.LocalComputation += other.LocalComputation
	s.Conversion += other.Conversion
	s.MPCComputation += other.MPCComputation
	s.ModelUpdate += other.ModelUpdate
	s.LocalComputationWire += other.LocalComputationWire
	s.ConversionWire += other.ConversionWire
	s.MPCComputationWire += other.MPCComputationWire
	s.ModelUpdateWire += other.ModelUpdateWire
}

// Total returns the summed phase time.
func (s *PhaseStats) Total() time.Duration {
	return s.LocalComputation + s.Conversion + s.MPCComputation + s.ModelUpdate
}

// WireTotal returns the summed per-phase wire wait.
func (s *PhaseStats) WireTotal() time.Duration {
	return s.LocalComputationWire + s.ConversionWire + s.MPCComputationWire + s.ModelUpdateWire
}

// RunStats aggregates everything a training/prediction run produced.
type RunStats struct {
	Phases       PhaseStats
	Wall         time.Duration
	Encryptions  int64
	DecShares    int64 // partial decryptions performed (C_d events)
	HEOps        int64 // homomorphic mults/adds on ciphertexts
	MPC          mpc.OpStats
	BytesSent    int64
	MessagesSent int64
	TreesTrained int
	NodesTrained int
	NodesDerived int // split nodes whose statistics were their parent's minus their sibling's

	// UpdateRounds counts the synchronous MPC open rounds spent inside the
	// model-update phase alone (the EQZ ladders, conversions and Eqn-10
	// chains), so round-structure claims about the batched update are
	// testable separately from the rest of the training chain.
	UpdateRounds int64

	// InFlightPeak is the highest number of simultaneously in-flight open
	// rounds observed across the party's engine and all its lanes: 1 on
	// the barrier path, ≥ 2 when the pipelined driver really overlapped
	// rounds.
	InFlightPeak int64

	// Traffic is the endpoint's full traffic breakdown (messages and bytes,
	// sent and received, totals plus per-peer), surfaced next to the MPC op
	// counters so round-reduction claims are measurable on both the memory
	// and TCP transports.  BytesSent/MessagesSent above are the same
	// counters without the dealer link's row.
	Traffic transport.TrafficSnapshot

	// Serve carries the serving-layer counters when the session is owned
	// by an internal/serve Service (nil otherwise).
	Serve *ServeStats `json:",omitempty"`
}

// ServeHistBuckets are the upper bounds (inclusive) of the serving
// histograms' buckets; each histogram carries one extra overflow bucket.
// Batch-size and rounds-per-batch histograms use the values as counts,
// the latency histogram as milliseconds.
var ServeHistBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// ServeHist is a fixed-bucket histogram over ServeHistBuckets (the last
// bucket counts observations above the largest bound).
type ServeHist struct {
	Counts [11]int64 // len(ServeHistBuckets) buckets + overflow
}

// Observe counts v into its bucket.
func (h *ServeHist) Observe(v int64) {
	for i, ub := range ServeHistBuckets {
		if v <= ub {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(ServeHistBuckets)]++
}

// Total returns the number of observations.
func (h *ServeHist) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// ServeStats are the prediction-serving counters (queue, admission,
// micro-batching) a Service surfaces through RunStats.Serve.
type ServeStats struct {
	// Admission and queue counters.
	Requests   int64 // samples accepted into the queue
	Rejected   int64 // samples refused by admission control (queue full / draining)
	Expired    int64 // samples dropped because their deadline passed in the queue
	QueueDepth int   // samples queued right now (gauge)

	// Micro-batching counters: one "batch" is one coalesced MPC round
	// chain; Coalesced sums the samples those chains served.
	Batches   int64
	Coalesced int64
	MaxBatch  int

	// Degradation counters: Unavailable counts samples refused or failed
	// because the serving session was dead, Rebuilds counts successful
	// session replacements behind the registry.
	Unavailable int64
	Rebuilds    int64

	// Requeued counts samples re-admitted after their lane died mid-batch
	// (the batch migrates to a surviving lane instead of failing; with one
	// lane there is none, and it reads 0).
	Requeued int64

	// Updates counts incremental absorbs installed through the serving
	// layer (each one bumped a registry entry to version+1).
	Updates int64

	// Per-lane health and load, populated by serve.Service at every width
	// (one entry for a one-lane service).  LanesHealthy is the number of
	// lanes currently accepting batches.
	LanesHealthy int         `json:",omitempty"`
	Lanes        []LaneStats `json:",omitempty"`

	// Histograms: coalesced batch sizes (samples), MPC rounds per batch,
	// and request latency in milliseconds (queue wait + round chain).
	BatchSizes ServeHist
	Rounds     ServeHist
	LatencyMs  ServeHist
}

// LaneStats is one serving lane's health and load snapshot (ServeStats.Lanes).
type LaneStats struct {
	Lane     int   `json:"lane"`
	Healthy  bool  `json:"healthy"`
	Batches  int64 `json:"batches"`
	Samples  int64 `json:"samples"`
	Rounds   int64 `json:"lane_mpc_rounds"`
	Rebuilds int64 `json:"rebuilds"`
}
