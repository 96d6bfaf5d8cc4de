package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Config tunes the serving queue.
type Config struct {
	// Window is the micro-batch coalescing window, measured from the head
	// request's enqueue time: a model's queue is held back until its oldest
	// request is Window old, so requests arriving within it ride the same
	// MPC round chain.  A full batch (MaxBatch queued) and a batch requeued
	// by a failover never wait.  0 (the zero value) dispatches as soon as a
	// lane is idle — coalescing then still happens for whatever queued
	// while the lanes were busy.  cmd/pivot-serve defaults -window to 2ms.
	Window time.Duration
	// MaxBatch caps the samples coalesced into one round chain
	// (default 256).
	MaxBatch int
	// MaxQueue is the admission bound: samples queued beyond it are
	// rejected with ErrOverloaded (default 1024).
	MaxQueue int
	// DefaultDeadline applies to requests that carry none (0 = no
	// deadline).
	DefaultDeadline time.Duration
	// Rebuild is New's lane factory: after a protocol failure kills the
	// adopted session, the service fails what it cannot serve with
	// UnavailableError, keeps refusing new samples with the RetryAfter
	// hint, and a background goroutine calls Rebuild (retrying with a
	// capped backoff) and swaps the fresh session in, restoring service
	// without a daemon restart.  Basic-protocol models in the registry
	// survive the swap unchanged; enhanced models hold ciphertexts bound to
	// the dead session's key material and stay servable only if the factory
	// reuses it (e.g. core.ResumeSession over the same CheckpointStore).
	// Nil disables the restart: the service stays unavailable until closed.
	// NewSharded takes its LaneFactory instead and rejects a Rebuild.
	Rebuild func() (*core.Session, error)
	// RetryAfter is the back-off hint attached to UnavailableError while
	// no lane is live (default 2s).
	RetryAfter time.Duration
	// Journal, when set, is called with each entry installed by an
	// incremental Update (version+1 installs), so a daemon can persist
	// absorbs the way it persists initial registrations.  Called outside
	// the serving locks; it must not call back into the engine.
	Journal func(*Entry)
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 1024
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 2 * time.Second
	}
	return c
}

// ConfigError reports a nonsensical serving-configuration knob combination,
// rejected at construction (New / NewSharded) instead of silently clamped
// deep in the scheduler.  errors.As-able for callers that want the field.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("serve: invalid config: %s %s", e.Field, e.Reason)
}

// Validate checks the configuration after defaults are resolved: zero
// values select defaults and are always valid; explicit values must make
// sense together.
func (c Config) Validate() error {
	if c.Window < 0 {
		return &ConfigError{Field: "Window", Reason: "must not be negative"}
	}
	if c.MaxBatch < 0 {
		return &ConfigError{Field: "MaxBatch", Reason: "must not be negative (0 selects the default)"}
	}
	if c.MaxQueue < 0 {
		return &ConfigError{Field: "MaxQueue", Reason: "must not be negative (0 selects the default)"}
	}
	if c.DefaultDeadline < 0 {
		return &ConfigError{Field: "DefaultDeadline", Reason: "must not be negative"}
	}
	if c.RetryAfter < 0 {
		return &ConfigError{Field: "RetryAfter", Reason: "must not be negative"}
	}
	d := c.withDefaults()
	if d.MaxBatch > d.MaxQueue {
		return &ConfigError{Field: "MaxBatch",
			Reason: fmt.Sprintf("(%d) exceeds MaxQueue (%d): a full batch could never be admitted", d.MaxBatch, d.MaxQueue)}
	}
	return nil
}

// Serving errors.
var (
	// ErrOverloaded is returned when admission control refuses a sample.
	ErrOverloaded = fmt.Errorf("serve: queue full")
	// ErrDraining is returned for samples submitted after Drain/Close.
	ErrDraining = fmt.Errorf("serve: service draining")
	// ErrDeadline is returned when a sample's deadline passes before its
	// round chain ran.
	ErrDeadline = fmt.Errorf("serve: deadline exceeded")
	// ErrUnavailable matches (errors.Is) samples refused or failed
	// because every serving session is dead; the concrete error is an
	// *UnavailableError carrying the retry-after hint.
	ErrUnavailable = fmt.Errorf("serve: session unavailable")
)

// UnavailableError reports that no serving session is live, together with
// the configured client back-off hint.  errors.Is(err, ErrUnavailable)
// matches it.
type UnavailableError struct {
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("serve: session unavailable (retry after %v)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrUnavailable) match.
func (e *UnavailableError) Is(target error) bool { return target == ErrUnavailable }

type result struct {
	pred float64
	err  error
}

// request is one queued sample.
type request struct {
	entry    *Entry
	row      []float64 // flat feature row, global column order
	enq      time.Time
	deadline time.Time // zero = none
	attempts int       // dispatches so far (bumped when a lane dies mid-batch)
	res      chan result
}

// LaneFactory builds the session behind one lane.  Each lane owns an
// independent federated mesh (its own transport endpoints, dealer state,
// randomness pool), so the factory is also the lane's rebuild path: when a
// lane's session dies the service calls the factory again, with the same
// lane index, until it yields a replacement.  Factories are invoked
// concurrently (construction spawns all lanes at once), so they must not
// share mutable state without their own locking.
type LaneFactory func(lane int) (*core.Session, error)

// lane is one serving session plus its scheduling state, guarded by
// Service.mu.  sess is only swapped by rebuildLane while the lane is marked
// unhealthy, so a dispatched batch can use its session without the lock.
type lane struct {
	id      int
	sess    *core.Session
	healthy bool
	busy    bool

	batches  int64
	samples  int64
	rounds   int64
	rebuilds int64
}

// modelQueue is one model's FIFO of pending requests.
type modelQueue struct {
	name string
	reqs []*request
}

// Service is the serving engine: S lanes (each a full federated session;
// S = 1 for New) behind one registry and one cross-model fair scheduler.
// Requests queue per model; a single scheduler goroutine round-robins over
// the model queues and hands each micro-batch to the least-loaded idle live
// lane, where a per-batch goroutine runs the MPC round chain (protocol
// phases on one session are serialized by construction: a lane runs one
// batch at a time).  Lanes fail independently: a dead lane degrades the
// service to S-1 lanes, its batch is requeued at the front (bounded by an
// attempts counter), and a background goroutine rebuilds the lane from the
// factory.  Only when every lane is dead does the service refuse work with
// UnavailableError + retry-after.
type Service struct {
	*Registry

	feats   [][]int // per-client global feature indices
	width   int     // total feature count
	cfg     Config
	factory LaneFactory // nil: dead lanes stay dead

	mu       sync.Mutex
	lanes    []*lane
	queues   map[string]*modelQueue
	order    []*modelQueue // round-robin order over queues
	rr       int
	stats    core.ServeStats
	draining bool
	// appends logs every absorbed batch (in order): a rebuilt lane starts
	// from the factory's original data and replays these before serving, so
	// later absorbs see the same union.
	appends [][]*dataset.Partition
	// reserving counts Update callers parked in reserveLane; laneFree wakes
	// them whenever a lane may have become available.
	reserving int
	laneFree  *sync.Cond

	wake chan struct{}
	done chan struct{}

	runWG     sync.WaitGroup // in-flight batches + lane rebuilds
	closeOnce sync.Once
}

// New builds a one-lane Service over a live session; parts are the
// session's vertical partitions (the per-client feature layout tells the
// service how to slice flat sample rows).  The Service takes ownership of
// the session: Close tears it down.  cfg.Rebuild, when set, respawns the
// lane after its session dies.
func New(sess *core.Session, parts []*dataset.Partition, cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var factory LaneFactory
	if cfg.Rebuild != nil {
		factory = func(int) (*core.Session, error) { return cfg.Rebuild() }
	}
	return newService([]*core.Session{sess}, parts, factory, cfg)
}

// NewSharded spawns lanes sessions from the factory (concurrently) and
// serves from all of them: each lane runs whole micro-batches, so
// throughput scales with lanes while per-batch latency stays that of a
// single round chain.  The factory is also every lane's rebuild path.  The
// service owns every lane session: Close tears them all down.
func NewSharded(parts []*dataset.Partition, lanes int, factory LaneFactory, cfg Config) (*Service, error) {
	if lanes < 1 {
		return nil, &ConfigError{Field: "lanes", Reason: fmt.Sprintf("must be at least 1, got %d", lanes)}
	}
	if factory == nil {
		return nil, &ConfigError{Field: "factory", Reason: "must be set"}
	}
	if cfg.Rebuild != nil {
		return nil, &ConfigError{Field: "Rebuild", Reason: "must be nil: the LaneFactory is the rebuild path"}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sessions := make([]*core.Session, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i], errs[i] = factory(i)
		}(i)
	}
	wg.Wait()
	var s *Service
	err := errors.Join(errs...)
	if err != nil {
		err = fmt.Errorf("serve: lane spawn: %w", err)
	} else {
		s, err = newService(sessions, parts, factory, cfg)
	}
	if err != nil {
		for _, sess := range sessions {
			if sess != nil {
				sess.Close()
			}
		}
		return nil, err
	}
	return s, nil
}

// newService wires validated configuration and live sessions (one per
// lane) into a running engine.
func newService(sessions []*core.Session, parts []*dataset.Partition, factory LaneFactory, cfg Config) (*Service, error) {
	for i, sess := range sessions {
		if sess.M != len(parts) {
			return nil, fmt.Errorf("serve: lane %d has %d clients, %d partitions", i, sess.M, len(parts))
		}
	}
	s := &Service{
		Registry: NewRegistry(),
		cfg:      cfg.withDefaults(),
		factory:  factory,
		queues:   make(map[string]*modelQueue),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	s.laneFree = sync.NewCond(&s.mu)
	s.feats = make([][]int, len(parts))
	for c, p := range parts {
		s.feats[c] = p.Features
		for _, f := range p.Features {
			if f+1 > s.width {
				s.width = f + 1
			}
		}
	}
	s.lanes = make([]*lane, len(sessions))
	for i, sess := range sessions {
		s.lanes[i] = &lane{id: i, sess: sess, healthy: true}
	}
	go s.schedule()
	return s, nil
}

// Width returns the flat feature-row width requests must carry.
func (s *Service) Width() int { return s.width }

// LaneSession exposes lane i's current session (training against the
// serving federation, fault injection in tests and the serve-scale kill
// leg).  A rebuild may swap it, so callers must not cache the pointer
// across a degradation event.
func (s *Service) LaneSession(i int) *core.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lanes[i].sess
}

// sessions snapshots every lane's current session.  Callers use them
// outside the service lock: session calls serialize against protocol
// phases, and a lane can hold its phase lock for a whole round chain.
func (s *Service) sessions() []*core.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.Session, len(s.lanes))
	for i, ln := range s.lanes {
		out[i] = ln.sess
	}
	return out
}

// Register installs mdl under name (see Registry.Register) and evicts the
// replaced model's cached secret-shared conversion from every lane, so
// periodic retraining in a long-lived daemon doesn't grow the per-party
// SharedModel caches without bound.
func (s *Service) Register(name string, mdl core.Predictor) (*Entry, error) {
	old, _ := s.Registry.Lookup(name)
	e, err := s.Registry.Register(name, mdl)
	if err == nil && old != nil && old.Model != mdl {
		for _, sess := range s.sessions() {
			sess.EvictShared(old.Model)
		}
	}
	return e, err
}

// Predict serves one sample (row in global column order) from the named
// model, waiting for its micro-batch to run.  Safe for concurrent use;
// concurrent callers of the same model coalesce into shared round chains.
func (s *Service) Predict(model string, row []float64) (float64, error) {
	return s.PredictDeadline(model, row, time.Time{})
}

// PredictDeadline is Predict with an explicit deadline (zero = none):
// the sample is dropped with ErrDeadline if its chain hasn't started by
// then.
func (s *Service) PredictDeadline(model string, row []float64, deadline time.Time) (float64, error) {
	preds, err := s.PredictMany(model, [][]float64{row}, deadline)
	if err != nil {
		return 0, err
	}
	return preds[0], nil
}

// PredictMany serves a multi-sample request: the samples are enqueued
// individually (so they coalesce with every other caller's) and gathered.
func (s *Service) PredictMany(model string, rows [][]float64, deadline time.Time) ([]float64, error) {
	entry, err := s.Lookup(model)
	if err != nil {
		return nil, err
	}
	return s.PredictManyEntry(entry, rows, deadline)
}

// PredictManyEntry is PredictMany pinned to a resolved registry entry:
// the caller is guaranteed that exactly entry.Model serves the samples,
// even if the name is re-registered concurrently.
func (s *Service) PredictManyEntry(entry *Entry, rows [][]float64, deadline time.Time) ([]float64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	reqs, err := s.submitEntry(entry, rows, deadline)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(reqs))
	for i, rq := range reqs {
		r := <-rq.res
		if r.err != nil {
			return nil, r.err
		}
		out[i] = r.pred
	}
	return out, nil
}

// submitEntry admits rows into the entry's model queue (all or nothing),
// applying the configured DefaultDeadline to requests that carry none.
func (s *Service) submitEntry(entry *Entry, rows [][]float64, deadline time.Time) ([]*request, error) {
	for _, row := range rows {
		if len(row) != s.width {
			return nil, fmt.Errorf("serve: sample has %d features, federation has %d", len(row), s.width)
		}
	}
	now := time.Now()
	if deadline.IsZero() && s.cfg.DefaultDeadline > 0 {
		deadline = now.Add(s.cfg.DefaultDeadline)
	}
	reqs := make([]*request, len(rows))
	for i, row := range rows {
		reqs[i] = &request{entry: entry, row: row, enq: now, deadline: deadline, res: make(chan result, 1)}
	}

	s.mu.Lock()
	if s.draining {
		s.stats.Rejected += int64(len(rows))
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if s.reapLocked() == 0 {
		s.stats.Rejected += int64(len(rows))
		s.stats.Unavailable += int64(len(rows))
		s.mu.Unlock()
		return nil, &UnavailableError{RetryAfter: s.cfg.RetryAfter}
	}
	if s.queuedLocked()+len(rows) > s.cfg.MaxQueue {
		s.stats.Rejected += int64(len(rows))
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	q := s.queueLocked(entry.Name)
	q.reqs = append(q.reqs, reqs...)
	s.stats.Requests += int64(len(rows))
	s.mu.Unlock()

	s.kick()
	return reqs, nil
}

// queueLocked returns (creating on first use) the model's queue.
func (s *Service) queueLocked(name string) *modelQueue {
	q, ok := s.queues[name]
	if !ok {
		q = &modelQueue{name: name}
		s.queues[name] = q
		s.order = append(s.order, q)
	}
	return q
}

func (s *Service) queuedLocked() int {
	n := 0
	for _, q := range s.order {
		n += len(q.reqs)
	}
	return n
}

// laneDiedLocked retires ln after its session sess died: the lane is
// marked dead and — given a factory, and unless the service is draining
// (Close tears the corpse down anyway) — handed to a background rebuild.
// A lane already retired, or already rebuilt onto a newer session, is left
// alone, so each death starts exactly one rebuild.
func (s *Service) laneDiedLocked(ln *lane, sess *core.Session) {
	if !ln.healthy || ln.sess != sess {
		return
	}
	ln.healthy = false
	if s.factory != nil && !s.draining {
		s.runWG.Add(1)
		go s.rebuildLane(ln)
	}
}

// reapLocked returns the live lane count after folding every session's own
// liveness flag in: a lane whose session died between batches is retired
// here exactly as one that died mid-batch, so it reads unhealthy and is
// rebuilt before any request trips over it.  With no lane left, everything
// queued fails with the retry-after hint — nothing can serve it until a
// rebuild lands, and without a factory nothing ever will.  A draining
// service stops probing: the sessions it closes itself are not casualties
// (a batch that trips over a corpse mid-drain still retires its lane).
func (s *Service) reapLocked() int {
	live := 0
	for _, ln := range s.lanes {
		if !s.draining && !ln.sess.Healthy() {
			s.laneDiedLocked(ln, ln.sess)
		}
		if ln.healthy {
			live++
		}
	}
	if live == 0 {
		uerr := &UnavailableError{RetryAfter: s.cfg.RetryAfter}
		for _, q := range s.order {
			for _, rq := range q.reqs {
				rq.res <- result{err: uerr}
			}
			s.stats.Unavailable += int64(len(q.reqs))
			q.reqs = nil
		}
	}
	return live
}

// dispatchableLocked reports whether q's head batch should run now: the
// coalescing window has elapsed (or doesn't apply), a full batch is
// waiting, the head is a requeued retry (a failover must not re-wait the
// window), or the service is draining.
func (s *Service) dispatchableLocked(q *modelQueue, now time.Time) bool {
	if len(q.reqs) == 0 {
		return false
	}
	if s.draining || s.cfg.Window <= 0 || len(q.reqs) >= s.cfg.MaxBatch || q.reqs[0].attempts > 0 {
		return true
	}
	return now.Sub(q.reqs[0].enq) >= s.cfg.Window
}

// idleLaneLocked picks the least-loaded dispatch target: among live idle
// lanes (as of the caller's reapLocked), the one that has served the
// fewest samples.
func (s *Service) idleLaneLocked() *lane {
	var best *lane
	for _, ln := range s.lanes {
		if !ln.healthy || ln.busy {
			continue
		}
		if best == nil || ln.samples < best.samples {
			best = ln
		}
	}
	return best
}

// nextQueueLocked is one round-robin step over the model queues: the first
// dispatchable queue after the previous winner, so one hot model cannot
// starve the rest of the registry — a queue that becomes dispatchable runs
// within one rotation.
func (s *Service) nextQueueLocked(now time.Time) *modelQueue {
	n := len(s.order)
	for i := 0; i < n; i++ {
		if q := s.order[(s.rr+i)%n]; s.dispatchableLocked(q, now) {
			s.rr = (s.rr + i + 1) % n
			return q
		}
	}
	return nil
}

// takeBatchLocked pops the longest same-entry prefix (up to MaxBatch) off
// q, dropping expired requests as it scans.  FIFO order within the model
// queue is preserved: a version swap mid-queue ends the batch rather than
// pulling later same-version requests ahead of the swap point.
func (s *Service) takeBatchLocked(q *modelQueue, now time.Time) []*request {
	var batch []*request
	rest := q.reqs[:0]
	var entry *Entry
	for _, rq := range q.reqs {
		switch {
		case !rq.deadline.IsZero() && now.After(rq.deadline):
			s.stats.Expired++
			rq.res <- result{err: ErrDeadline}
		case len(rest) == 0 && (entry == nil || rq.entry == entry) && len(batch) < s.cfg.MaxBatch:
			entry = rq.entry
			batch = append(batch, rq)
		default:
			rest = append(rest, rq)
		}
	}
	q.reqs = rest
	return batch
}

// nextWindowLocked returns how long until the earliest pending coalescing
// window expires (0 = nothing to time out on; just wait for a wake).
func (s *Service) nextWindowLocked(now time.Time) time.Duration {
	if s.cfg.Window <= 0 || s.idleLaneLocked() == nil {
		return 0
	}
	var wait time.Duration
	for _, q := range s.order {
		if len(q.reqs) == 0 || s.dispatchableLocked(q, now) {
			continue
		}
		d := s.cfg.Window - now.Sub(q.reqs[0].enq)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		if wait == 0 || d < wait {
			wait = d
		}
	}
	return wait
}

// schedule is the single scheduler goroutine: pair dispatchable model
// queues (round-robin) with idle lanes (least-loaded) until one side runs
// out, then sleep until a wake (submit, batch completion, lane rebuild,
// drain) or the next coalescing-window expiry.  While an Update is parked
// waiting for a lane it dispatches nothing, so the update takes the next
// lane to free instead of racing a standing backlog for it.
func (s *Service) schedule() {
	defer close(s.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		now := time.Now()
		s.mu.Lock()
		s.reapLocked()
		for s.reserving == 0 {
			ln := s.idleLaneLocked()
			if ln == nil {
				break
			}
			q := s.nextQueueLocked(now)
			if q == nil {
				break
			}
			batch := s.takeBatchLocked(q, now)
			if len(batch) == 0 {
				continue // everything scanned had expired
			}
			ln.busy = true
			s.runWG.Add(1)
			go s.runBatch(ln, ln.sess, batch)
		}
		stop := s.draining && s.queuedLocked() == 0 && !s.anyBusyLocked()
		wait := s.nextWindowLocked(now)
		s.mu.Unlock()
		if stop {
			return
		}
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-s.wake:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
			}
		} else {
			<-s.wake
		}
	}
}

func (s *Service) anyBusyLocked() bool {
	for _, ln := range s.lanes {
		if ln.busy {
			return true
		}
	}
	return false
}

func (s *Service) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// runBatch runs one micro-batch's MPC round chain on its assigned lane.
func (s *Service) runBatch(ln *lane, sess *core.Session, batch []*request) {
	defer s.runWG.Done()
	entry := batch[0].entry

	rows := make([][]float64, len(batch))
	for t, rq := range batch {
		rows[t] = rq.row
	}
	X := make([][][]float64, len(s.feats))
	for c, feats := range s.feats {
		X[c] = localRows(feats, rows)
	}
	preds, rounds, err := core.PredictSamples(sess, entry.Model, X)

	// A protocol failure that killed the lane's session (a crashed peer, an
	// aborted network) fails over: the batch goes back to the front of its
	// queue for another lane, and this lane rebuilds in the background.
	// Errors on a healthy session (e.g. a model the protocol cannot
	// evaluate) fail only their own batch.
	if err != nil && !sess.Healthy() {
		s.laneFailed(ln, sess, batch)
		return
	}

	// A batch admitted under a replaced registry entry re-caches the old
	// model's secret-shared conversion on this lane; evict it again once
	// served, so retraining cycles racing in-flight requests don't leak
	// conversions for the session's lifetime.
	if cur, lookupErr := s.Lookup(entry.Name); lookupErr != nil || cur != entry {
		sess.EvictShared(entry.Model)
	}

	done := time.Now()
	s.mu.Lock()
	ln.busy = false
	s.laneFree.Broadcast()
	ln.batches++
	ln.samples += int64(len(batch))
	ln.rounds += rounds
	s.stats.Batches++
	s.stats.Coalesced += int64(len(batch))
	if len(batch) > s.stats.MaxBatch {
		s.stats.MaxBatch = len(batch)
	}
	s.stats.BatchSizes.Observe(int64(len(batch)))
	s.stats.Rounds.Observe(rounds)
	for _, rq := range batch {
		s.stats.LatencyMs.Observe(done.Sub(rq.enq).Milliseconds())
	}
	s.mu.Unlock()
	s.kick()

	for t, rq := range batch {
		if err != nil {
			rq.res <- result{err: err}
		} else {
			rq.res <- result{pred: preds[t]}
		}
	}
}

// laneFailed handles a lane death mid-batch: the lane is retired and the
// batch is requeued at the front of its model queue for the surviving
// lanes.  A request that has already been dispatched len(lanes) times
// fails with the retry-after hint rather than cycling forever; when the
// last lane dies, everything queued fails the same way (reapLocked) and
// admission refuses new work until a rebuild lands.
func (s *Service) laneFailed(ln *lane, sess *core.Session, batch []*request) {
	uerr := &UnavailableError{RetryAfter: s.cfg.RetryAfter}
	s.mu.Lock()
	ln.busy = false
	s.laneFree.Broadcast()
	s.laneDiedLocked(ln, sess)
	var retry []*request
	for _, rq := range batch {
		if rq.attempts++; rq.attempts >= len(s.lanes) {
			s.stats.Unavailable++
			rq.res <- result{err: uerr}
		} else {
			retry = append(retry, rq)
		}
	}
	if len(retry) > 0 {
		q := s.queueLocked(batch[0].entry.Name)
		q.reqs = append(retry, q.reqs...)
	}
	if s.reapLocked() > 0 { // else the outage just failed the retries too
		s.stats.Requeued += int64(len(retry))
	}
	s.mu.Unlock()
	s.kick()
}

// rebuildLane replaces a dead lane's session: the corpse is torn down
// first (its endpoints and randomness pool release before the
// replacement's come up), then the factory is retried with a capped
// backoff until it yields a session or the service starts draining.
func (s *Service) rebuildLane(ln *lane) {
	defer s.runWG.Done()
	s.mu.Lock()
	dead := ln.sess
	s.mu.Unlock()
	dead.Close()
	for delay := 50 * time.Millisecond; ; delay = min(2*delay, time.Second) {
		s.mu.Lock()
		stop := s.draining
		s.mu.Unlock()
		if stop {
			return
		}
		ns, err := s.factory(ln.id)
		// Replay every absorbed batch: the factory rebuilt from the
		// original data, and the registry's models were refined over the
		// union.  The log can grow while a replay runs — an Update on a
		// surviving lane appends to it and skips this still-unhealthy lane
		// in its sync — so the lane is installed only in a critical section
		// that finds nothing left to replay.  A failed replay restarts the
		// factory loop.
		for replayed := 0; err == nil; {
			s.mu.Lock()
			if s.draining {
				// Lost the race with Close: the service owns no live
				// session for this lane anymore, so tear the fresh one
				// down here.
				s.mu.Unlock()
				ns.Close()
				return
			}
			tail := append([][]*dataset.Partition(nil), s.appends[replayed:]...)
			if len(tail) == 0 {
				ln.sess = ns
				ln.healthy = true
				ln.rebuilds++
				s.stats.Rebuilds++
				s.laneFree.Broadcast()
				s.mu.Unlock()
				s.kick()
				return
			}
			s.mu.Unlock()
			for _, ap := range tail {
				if err = core.AppendSamples(ns, ap); err != nil {
					ns.Close()
					break
				}
			}
			replayed += len(tail)
		}
		time.Sleep(delay)
	}
}

// Health is the service's liveness snapshot (served over the wire as
// opHealth): Healthy is false while every lane is dead (rebuilds pending)
// or the service is draining, and RetryAfterMs then carries the back-off
// hint.  Lanes / LanesHealthy are the total and live lane counts.
type Health struct {
	Healthy      bool  `json:"healthy"`
	Draining     bool  `json:"draining,omitempty"`
	QueueDepth   int   `json:"queue_depth"`
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	Lanes        int   `json:"lanes,omitempty"`
	LanesHealthy int   `json:"lanes_healthy,omitempty"`
}

// Health probes the service: healthy while at least one lane lives.  Each
// session's own liveness flag is folded in (reapLocked), so a session
// killed between batches reads unhealthy before any request trips over it.
func (s *Service) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.reapLocked()
	h := Health{
		Healthy:      !s.draining && live > 0,
		Draining:     s.draining,
		QueueDepth:   s.queuedLocked(),
		Lanes:        len(s.lanes),
		LanesHealthy: live,
	}
	if !h.Healthy && !s.draining {
		h.RetryAfterMs = s.cfg.RetryAfter.Milliseconds()
	}
	return h
}

// Stats returns one live lane's protocol statistics (a representative
// mesh: every lane runs the same protocol) with the service-wide serving
// counters and the per-lane breakdown attached (RunStats.Serve).
func (s *Service) Stats() core.RunStats {
	s.mu.Lock()
	s.reapLocked()
	base := s.lanes[0].sess
	for _, ln := range s.lanes {
		if ln.healthy {
			base = ln.sess
			break
		}
	}
	s.mu.Unlock()
	rs := base.Stats()
	s.mu.Lock()
	sv := s.stats
	sv.QueueDepth = s.queuedLocked()
	sv.Lanes = make([]core.LaneStats, len(s.lanes))
	for i, ln := range s.lanes {
		if ln.healthy {
			sv.LanesHealthy++
		}
		sv.Lanes[i] = core.LaneStats{
			Lane: ln.id, Healthy: ln.healthy,
			Batches: ln.batches, Samples: ln.samples, Rounds: ln.rounds, Rebuilds: ln.rebuilds,
		}
	}
	s.mu.Unlock()
	rs.Serve = &sv
	return rs
}

// Drain stops admitting new samples and blocks until every queued sample
// has been served (or failed) and every in-flight batch and rebuild has
// finished.  Safe to call more than once and concurrently.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.laneFree.Broadcast()
	s.mu.Unlock()
	s.kick()
	<-s.done
	s.runWG.Wait()
}

// Close drains the queues and tears every lane session down.  Idempotent
// and safe under concurrent callers.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.Drain()
		for _, sess := range s.sessions() {
			sess.Close()
		}
	})
}
