package core

import (
	"crypto/rand"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// Session hosts an m-client federation in one process: an in-memory network
// with a dealer endpoint, the threshold key material, and one long-lived
// goroutine per client.  Protocol phases are submitted with Each, which runs
// the same function SPMD on every client — exactly how the paper's clients
// execute on their LAN machines, minus the physical network (DESIGN.md,
// "Substitutions").
type Session struct {
	M       int
	Cfg     Config
	PK      *paillier.PublicKey
	parties []*Party
	eps     []transport.Endpoint
	cmds    []chan func(*Party)
	wg      sync.WaitGroup
	abort   sync.Once
	dead    atomic.Bool // set by abortNetwork and Close; read by Healthy
	widths  []int       // each client's local feature count (checkSamples)

	// phaseMu serializes protocol phases: Each holds it for the whole
	// phase, so concurrent callers (e.g. the serving layer's queue
	// workers) interleave at phase granularity instead of corrupting the
	// SPMD message schedule.  Close takes it too, so shutdown waits for
	// the in-flight phase and no phase can start on a closed session.
	phaseMu   sync.Mutex
	closed    bool
	closeOnce sync.Once

	// resumeCk is the checkpoint a ResumeSession was built from (nil for a
	// fresh session); Resume re-enters training from it.
	resumeCk *Checkpoint

	// kept holds the leaf totals of the DT/RF models released since the
	// last append, keyed by the Predictor Train or Update returned
	// (incremental.go).  Guarded by phaseMu; never checkpointed or saved.
	kept map[Predictor]*leafTotals
}

// ErrSessionClosed is returned by Each (and everything built on it) once
// Close has begun.
var ErrSessionClosed = fmt.Errorf("core: session closed")

// ErrNotRecoverable refuses, before any key generation, a Checkpoint store
// on a malicious session: the SPDZ MAC transcript cannot be snapshotted
// (mpc.EngineState), so the store could never be written.
var ErrNotRecoverable = fmt.Errorf("core: malicious sessions cannot checkpoint")

// NewSession builds the federation over vertical partitions (one per
// client; partition i must have Client == i, labels only at client 0).
func NewSession(parts []*dataset.Partition, cfg Config) (*Session, error) {
	return newSession(parts, cfg, nil)
}

// NewSessions brings up n independent federations over the same vertical
// partitions — the serving pool's lane-factory plumbing.  Each session is a
// complete federation of its own: its own transport mesh, its own dealer
// stream and its own threshold key material, so the sessions can run
// protocol phases fully concurrently (basic-protocol models are plaintext
// and servable on any of them).  Lane i's seed is offset by i so the dealer
// PRGs are distinct; the synchronous round structure of any given phase is
// seed-independent, so per-lane round and message counters stay identical
// across lanes.  The sessions are constructed concurrently (key generation
// dominates); on any failure the already-built sessions are closed.
func NewSessions(parts []*dataset.Partition, cfg Config, n int) ([]*Session, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one session, got %d", n)
	}
	sessions := make([]*Session, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			laneCfg := cfg
			laneCfg.Seed = cfg.Seed + int64(i)
			sessions[i], errs[i] = NewSession(parts, laneCfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, s := range sessions {
				if s != nil {
					s.Close()
				}
			}
			return nil, err
		}
	}
	return sessions, nil
}

// ResumeSession rebuilds a crashed federation from the latest committed
// checkpoint in cfg.Checkpoint: the threshold key material captured at the
// original session's creation is reused (checkpointed ciphertexts must stay
// decryptable), the dealer restarts at its snapshotted PRG cursor, and
// Resume re-enters training at the checkpointed level barrier.
func ResumeSession(parts []*dataset.Partition, cfg Config) (*Session, error) {
	if cfg.Checkpoint == nil {
		return nil, fmt.Errorf("core: ResumeSession needs cfg.Checkpoint")
	}
	ck := cfg.Checkpoint.Latest()
	if ck == nil {
		return nil, fmt.Errorf("core: no committed checkpoint to resume from")
	}
	if len(ck.parties) != len(parts) {
		return nil, fmt.Errorf("core: checkpoint has %d parties, resume has %d", len(ck.parties), len(parts))
	}
	return newSession(parts, cfg, ck)
}

func newSession(parts []*dataset.Partition, cfg Config, resume *Checkpoint) (*Session, error) {
	cfg = cfg.withDefaults()
	m := len(parts)
	if m < 1 {
		return nil, fmt.Errorf("core: need at least one client")
	}
	if cfg.Malicious && cfg.Checkpoint != nil {
		return nil, ErrNotRecoverable
	}
	s := &Session{M: m, Cfg: cfg, widths: make([]int, m)}
	for i, part := range parts {
		s.widths[i] = len(part.Features)
	}
	if cfg.TCPLoopback {
		eps, err := transport.NewLoopbackTCPNetwork(m+1, transport.TCPConfig{})
		if err != nil {
			return nil, err
		}
		s.eps = eps
	} else {
		s.eps = transport.NewMemoryNetwork(m+1, 8192)
	}

	// WAN latency simulation: every endpoint's sends ride an asynchronous
	// FIFO wire with the configured delay and jitter, so the protocols'
	// synchronous round counts become measurable wall-clock latency.
	if cfg.NetDelay > 0 || cfg.NetJitter > 0 {
		for i := range s.eps {
			s.eps[i] = transport.WithLatency(s.eps[i], cfg.NetDelay, cfg.NetJitter, cfg.Seed+int64(i)+1)
		}
	}

	// Pipelined level execution rides tag-multiplexed endpoints so the
	// in-flight rounds of concurrent lanes cannot cross-deliver.  The mux
	// is the outermost wrapper (tags must survive the latency queue), and
	// the dealer endpoint gets one too — RunDealer serves every lane.
	if cfg.pipelineActive() {
		for i := range s.eps {
			s.eps[i] = transport.NewTagMux(s.eps[i])
		}
	}

	// Deterministic fault injection: the chaos party's endpoint gets the
	// outermost wrapper, so drops, delays and armed crashes hit exactly the
	// frames the protocol would otherwise deliver (WithChaos preserves the
	// tagged-lane interface when the mux is underneath).
	if cfg.Chaos != nil {
		i := cfg.ChaosParty
		if i < 0 || i >= m {
			s.shutdown()
			return nil, fmt.Errorf("core: ChaosParty %d out of range (have %d clients)", i, m)
		}
		s.eps[i] = transport.WithChaos(s.eps[i], *cfg.Chaos)
	}

	// Offline dealer (its traffic is excluded from measured phases).  With
	// checkpointing enabled it snapshots into the store on request; on
	// resume it restarts at the snapshotted PRG cursor so the material
	// stream continues exactly where the checkpoint left it.
	dealerCfg := mpc.DealerConfig{Seed: cfg.Seed, Authenticated: cfg.Malicious}
	if cfg.Checkpoint != nil {
		dealerCfg.Store = cfg.Checkpoint.dealerStore()
	}
	if resume != nil {
		dealerCfg.Resume = resume.dealer
	}
	go func() {
		_ = mpc.RunDealer(s.eps[m], dealerCfg)
	}()

	// Initialization stage (§3.4): threshold key generation.  The paper
	// assumes a DKG ceremony; the dealer split happens here, outside all
	// measured phases.  A resumed session reuses the crashed federation's
	// key material — KeyGen draws from crypto/rand, so regenerating would
	// orphan every checkpointed ciphertext.
	var pk *paillier.PublicKey
	var pkeys []*paillier.PartialKey
	if resume != nil {
		pk, pkeys = cfg.Checkpoint.keys()
		if pk == nil || len(pkeys) != m {
			s.shutdown()
			return nil, fmt.Errorf("core: checkpoint store holds no key material for %d clients", m)
		}
	} else {
		var err error
		pk, _, pkeys, err = paillier.KeyGen(rand.Reader, cfg.KeyBits, m)
		if err != nil {
			s.shutdown()
			return nil, err
		}
		if cfg.Checkpoint != nil {
			cfg.Checkpoint.setKeys(pk, pkeys)
		}
	}
	s.PK = pk

	// Attach the shared randomness pool: the key is held by reference at
	// every party, so one set of background workers precomputes the
	// r^N mod N² obfuscators for the whole federation.
	if cfg.PoolCapacity >= 0 {
		if _, err := pk.EnablePool(paillier.PoolConfig{
			Workers:  cfg.PoolWorkers,
			Capacity: cfg.PoolCapacity,
		}); err != nil {
			s.shutdown()
			return nil, err
		}
	}

	// Bring up the clients concurrently (their constructors handshake).  A
	// client that refuses its partition closes the network, so the others
	// stop waiting for its split counts; its error is the one returned.
	s.parties = make([]*Party, m)
	var first error
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := NewParty(s.eps[i], parts[i], pk, pkeys[i], m, cfg)
			s.parties[i] = p
			if err != nil {
				once.Do(func() { first = err })
				s.abortNetwork()
			}
		}(i)
	}
	wg.Wait()
	if first != nil {
		s.shutdown()
		return nil, first
	}

	// Fault-tolerance hooks: the checkpoint store (only runLevels
	// checkpoints, at level joins) and the chaos injector's level marker on
	// the faulty party.
	if cfg.Checkpoint != nil {
		cfg.Checkpoint.beginAttempt()
		for _, p := range s.parties {
			p.ck = cfg.Checkpoint
		}
	}
	if cfg.Chaos != nil {
		if lm, ok := s.eps[cfg.ChaosParty].(transport.LevelMarker); ok {
			s.parties[cfg.ChaosParty].onLevel = lm.AdvanceLevel
		}
	}
	s.resumeCk = resume

	// Client goroutines consuming submitted phases.
	s.cmds = make([]chan func(*Party), m)
	for i := 0; i < m; i++ {
		s.cmds[i] = make(chan func(*Party))
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			for fn := range s.cmds[i] {
				fn(s.parties[i])
			}
		}(i)
	}
	return s, nil
}

// Each runs fn concurrently as every client and waits; it returns the first
// error.  fn must follow the SPMD discipline (same call sequence at every
// client).
//
// Fault containment: if any client errors or panics mid-phase, the session
// network is torn down so the other clients — possibly blocked on a Recv
// from the failed one — fail fast instead of hanging.  A session that has
// aborted this way cannot run further phases.
//
// Each is safe for concurrent use: phases from concurrent callers are
// serialized (whole-phase granularity), and Each on a closed session
// returns ErrSessionClosed instead of panicking.
func (s *Session) Each(fn func(*Party) error) error {
	s.phaseMu.Lock()
	defer s.phaseMu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	errs := make([]error, s.M)
	var wg sync.WaitGroup
	for i := 0; i < s.M; i++ {
		wg.Add(1)
		i := i
		s.cmds[i] <- func(p *Party) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("client %d panicked: %v\n%s", i, r, debug.Stack())
				}
				if errs[i] != nil {
					s.abortNetwork()
				}
			}()
			errs[i] = fn(p)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// abortNetwork closes every endpoint exactly once, releasing clients blocked
// on a peer that has failed.
func (s *Session) abortNetwork() {
	s.abort.Do(func() {
		s.dead.Store(true)
		for _, ep := range s.eps {
			_ = ep.Close()
		}
	})
}

// Healthy reports whether the session can still run protocol phases: it
// turns false once Close begins or a failed phase aborts the network.
// It never blocks, so the serving layer can use it as a liveness probe
// even while a phase is in flight.
func (s *Session) Healthy() bool { return !s.dead.Load() }

// Party returns client i's context (for inspecting stats).
func (s *Session) Party(i int) *Party { return s.parties[i] }

// Stats aggregates all clients' run statistics.  It serializes against
// protocol phases (a phase's parties bump their counters lock-free), so
// a caller racing an in-flight phase blocks until the phase completes
// rather than reading torn counters.
func (s *Session) Stats() RunStats {
	s.phaseMu.Lock()
	defer s.phaseMu.Unlock()
	var total RunStats
	for _, p := range s.parties {
		if p == nil {
			continue
		}
		total.Encryptions += p.Stats.Encryptions
		total.DecShares += p.Stats.DecShares
		total.HEOps += p.Stats.HEOps
		total.BytesSent += p.Stats.BytesSent
		total.MessagesSent += p.Stats.MessagesSent
		total.Traffic.Accumulate(p.Stats.Traffic)
		total.MPC.Mults += p.Stats.MPC.Mults
		total.MPC.Opens += p.Stats.MPC.Opens
		total.MPC.OpenValues += p.Stats.MPC.OpenValues
		total.MPC.Comparisons += p.Stats.MPC.Comparisons
		total.MPC.Divisions += p.Stats.MPC.Divisions
	}
	if s.parties[0] != nil {
		total.Phases = s.parties[0].Stats.Phases
		total.Wall = s.parties[0].Stats.Wall
		total.MPC.Rounds = s.parties[0].Stats.MPC.Rounds
		// Every engine counts its requests, but only party 0 sends them.
		total.MPC.DealerReqs = s.parties[0].Stats.MPC.DealerReqs
		total.UpdateRounds = s.parties[0].Stats.UpdateRounds
		total.TreesTrained = s.parties[0].Stats.TreesTrained
		total.NodesTrained = s.parties[0].Stats.NodesTrained
		total.NodesDerived = s.parties[0].Stats.NodesDerived
		total.InFlightPeak = s.parties[0].Stats.InFlightPeak
	}
	return total
}

// Close stops the client goroutines, the dealer and the network.  It is
// idempotent and safe under concurrent callers (a daemon's shutdown path
// double-closes): the first caller tears the session down after any
// in-flight phase finishes, every other caller blocks until that teardown
// has completed and then returns.
func (s *Session) Close() {
	s.closeOnce.Do(func() {
		s.dead.Store(true)
		s.phaseMu.Lock()
		s.closed = true
		for i := range s.cmds {
			close(s.cmds[i])
		}
		s.phaseMu.Unlock()
		s.wg.Wait()
		s.shutdown()
	})
}

func (s *Session) shutdown() {
	if s.parties != nil && s.parties[0] != nil {
		s.parties[0].Close()
	}
	for _, ep := range s.eps {
		_ = ep.Close()
	}
	if s.PK != nil {
		s.PK.DisablePool()
	}
}

// ---------------------------------------------------------------------------
// Convenience one-shot drivers (used by the facade, examples and benches)

// TrainDecisionTree partitions ds across m clients, trains one Pivot tree
// and returns the model plus aggregate statistics.
func TrainDecisionTree(ds *dataset.Dataset, m int, cfg Config) (*Model, RunStats, error) {
	parts, err := dataset.VerticalPartition(ds, m, 0)
	if err != nil {
		return nil, RunStats{}, err
	}
	s, err := NewSession(parts, cfg)
	if err != nil {
		return nil, RunStats{}, err
	}
	defer s.Close()
	models := make([]*Model, m)
	err = s.Each(func(p *Party) error {
		mod, err := p.TrainDT()
		if err == nil {
			models[p.ID] = mod
		}
		return err
	})
	if err != nil {
		return nil, RunStats{}, err
	}
	return models[0], s.Stats(), nil
}
