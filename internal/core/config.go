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

// TrainMode selects the schedule on which the one set of training kernels
// (trainLevel and the functions it calls) visits a tree's nodes.
type TrainMode int

const (
	// LevelWise (the default) trains breadth-first: all frontier nodes at a
	// tree depth share one batched Paillier pass, one Algorithm-2 MPC
	// conversion, one gain batch and one grouped oblivious argmax, so the
	// synchronous MPC round cost scales with tree depth instead of node
	// count.  It produces exactly the same tree as PerNode (same splits,
	// same leaves) under fixed seeds.
	LevelWise TrainMode = iota
	// PerNode is the paper's Algorithm-3 schedule: depth-first, every node a
	// frontier of one, so each pays its own conversion → gains → comparison
	// → argmax round chain.  It is the equivalence-test reference, and the
	// malicious (§9.1) and DP (§9.2) extensions always run on it because
	// their proof and noise sub-protocols are specified per node.
	PerNode
)

func (m TrainMode) String() string {
	if m == PerNode {
		return "per-node"
	}
	return "level-wise"
}

// PipelineMode gates the overlapped (pipelined) level-wise execution.
type PipelineMode int

const (
	// PipelineAuto (the default) enables pipelining whenever the
	// configuration supports it — packing enabled, the level-wise schedule
	// (so neither malicious nor DP), no Checkpoint store — AND the transport
	// has real per-round cost (loopback TCP or simulated WAN latency).  On the
	// ideal in-memory network a round costs one channel send, so the
	// overlap's fixed overhead (per-lane dealer top-ups) would dominate;
	// Auto keeps the barrier driver there.  Anything unsupported falls
	// back to the barrier-synchronous driver, which stays the equivalence
	// oracle.
	PipelineAuto PipelineMode = iota
	// PipelineOff forces the barrier-synchronous path.
	PipelineOff
	// PipelineOn requests the overlapped driver on any transport,
	// including the in-memory network; it still falls back when the
	// protocol variant has no overlapped implementation.
	PipelineOn
)

func (p PipelineMode) String() string {
	switch p {
	case PipelineOff:
		return "off"
	case PipelineOn:
		return "on"
	default:
		return "auto"
	}
}

// DPConfig enables differentially private training (§9.2).
type DPConfig struct {
	// Epsilon is the per-query budget ε; the whole run satisfies
	// 2ε(h+1)-DP (Friedman & Schuster composition, as cited in §9.2).
	Epsilon float64
}

// Config collects all protocol knobs.
type Config struct {
	Protocol Protocol
	Tree     TreeHyper

	// KeyBits is the threshold Paillier modulus size (paper: 1024 for the
	// efficiency study, 512 for the accuracy study).
	KeyBits int
	// F is the number of fixed-point fractional bits.
	F uint
	// Kappa is the statistical masking parameter.
	Kappa uint
	// LabelBits bounds |label| < 2^LabelBits (public hyper-parameter needed
	// to size the statistical masks for regression label sums).
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
	// zero-knowledge proofs on the HE-side messages.
	Malicious bool

	// DP, if non-nil, enables the §9.2 differential privacy extension.
	DP *DPConfig

	// NoPack disables ciphertext and opened-value packing: conversions fall
	// back to one value per ciphertext (the per-value Algorithm-2 oracle)
	// and the MPC engine opens one value per field element.  Malicious runs
	// are always unpacked — the per-value proofs and MACs need per-value
	// objects.  The packed and unpacked paths produce identical models
	// (equivalence-tested); the knob exists for oracle comparisons and
	// byte-accounting experiments.
	NoPack bool

	// TrainMode selects the level-wise schedule (default) or the paper's
	// per-node one.  Malicious and DP runs always train per-node regardless
	// of this setting (Config.perNode).
	TrainMode TrainMode

	// Pipeline gates the overlapped level-wise execution: local Paillier
	// passes for the next phase start while the current phase's openings
	// are on the wire, independent chains (leaf construction vs model
	// update, random-forest trees) run concurrently on tag-multiplexed
	// transport lanes, and the winner opening is issued early.  Default
	// auto/on; NoPack, the per-node schedule (so malicious and DP too) and
	// a non-nil Checkpoint fall back to the barrier path (under
	// PipelineOn too), which stays the equivalence oracle.
	Pipeline PipelineMode

	// PredictBatch caps how many samples the batched prediction pipeline
	// amortizes one MPC round chain over (0 = the whole dataset in one
	// batch).  The per-sample protocol stays in use for malicious mode and
	// as the equivalence oracle (PredictDatasetPerSample).
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
	// wall-clock measurements — the update benchmark enables this for its
	// timed legs.  Mutually composable with NetDelay (the latency wrapper
	// stacks on top).
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
	// the last checkpoint all parties committed (recovery.go).  Only the
	// barrier-synchronous path checkpoints, so a non-nil store selects it
	// on every transport and under every Pipeline setting; malicious and
	// DP runs leave the store untouched.
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
		F:            16,
		Kappa:        40,
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
	if c.F == 0 {
		c.F = 16
	}
	if c.Kappa == 0 {
		c.Kappa = 40
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

// perNode reports whether trees are trained on Algorithm 3's schedule — one
// node per round chain, depth-first — instead of one chain per level.  The
// malicious (§9.1) and DP (§9.2) sub-protocols are specified per node, so
// they always are.
func (c Config) perNode() bool {
	return c.TrainMode == PerNode || c.Malicious || c.DP != nil
}

// pipelineActive reports whether this configuration runs the overlapped
// level-wise driver.  The variants without an overlapped implementation —
// NoPack (the per-value Algorithm-2 oracle), the per-node schedule (a
// frontier of one leaves nothing to overlap; malicious and DP with it) and
// level checkpointing (a Checkpoint store: pipelined lanes have no level
// barrier to snapshot at) — use the barrier path.  In Auto mode, so does the
// zero-latency in-memory network, where rounds are nearly free and the
// overlap's fixed overhead would cost more than it hides.
func (c Config) pipelineActive() bool {
	if c.Pipeline == PipelineOff {
		return false
	}
	if c.Pipeline == PipelineAuto && !c.TCPLoopback && c.NetDelay == 0 && c.NetJitter == 0 {
		return false
	}
	return !c.NoPack && c.Checkpoint == nil && !c.perNode()
}

// mpcConfig derives the engine configuration.
func (c Config) mpcConfig() mpc.Config {
	return mpc.Config{
		F:             c.F,
		Kappa:         c.Kappa,
		Authenticated: c.Malicious,
		Seed:          c.Seed,
		BatchSize:     512,
		Workers:       c.Workers,
		NoPack:        c.NoPack,
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
		stat:  logn + 2*(c.LabelBits+c.F) + 2,
		gain:  2*c.LabelBits + c.F + 4,
		value: c.LabelBits + c.F + 4,
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
	// and TCP transports.  BytesSent/MessagesSent above are kept as the
	// legacy aggregate view of the same counters.
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
