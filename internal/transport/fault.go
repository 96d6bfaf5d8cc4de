package transport

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection: test infrastructure for exercising the protocols'
// failure-handling and recovery paths.  ChaosEndpoint is a seeded,
// deterministic injector — probabilistic drops, resets and delays plus
// crash-after-N-sends, crash-after-N-recvs and crash-at-level-N schedules.
// The same seed always yields the same fault trajectory, so chaos tests are
// reproducible bit for bit.  The wrapper forwards the TaggedEndpoint
// interface when the wrapped endpoint is tag-multiplexed, so the pipelined
// path's lane traffic passes through the same schedule instead of silently
// bypassing injection.

// ErrCrashed is returned by a ChaosEndpoint whose crash schedule has fired:
// the simulated party is dead and every further operation fails.
var ErrCrashed = errors.New("transport: injected crash")

// LevelMarker is implemented by fault injectors whose schedules key off
// protocol-level barriers; the training drivers mark each completed tree
// level so crash-at-level-N schedules can fire mid-protocol.
type LevelMarker interface {
	AdvanceLevel()
}

// ChaosConfig describes a deterministic fault schedule.  All probabilistic
// decisions are drawn from one PCG stream seeded by Seed, so a fixed seed
// over a deterministic protocol trace yields a reproducible fault
// trajectory.
type ChaosConfig struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// DropProb silently discards a Send with this probability.  Only
	// meaningful over transports with retransmission (the reliable link);
	// on a bare endpoint a dropped protocol frame wedges the peer.
	DropProb float64
	// ResetProb crashes the endpoint with this probability per operation,
	// simulating a connection reset without a schedule.
	ResetProb float64
	// DelayProb delays an operation with this probability, by a uniform
	// duration in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected delays (default 1ms when DelayProb > 0).
	MaxDelay time.Duration
	// CrashAfterSends crashes the endpoint after this many successful
	// sends (0 = no send schedule).
	CrashAfterSends int64
	// CrashAfterRecvs crashes the endpoint after this many successful
	// recvs (0 = no recv schedule).
	CrashAfterRecvs int64
	// CrashAtLevel crashes the endpoint a few operations into the level
	// AFTER this many AdvanceLevel marks (1-based; 0 = no level
	// schedule).  The training drivers mark each completed tree level, so
	// CrashAtLevel = k kills the party mid-level-k+1 — after the level-k
	// checkpoint has committed.
	CrashAtLevel int
}

// ChaosEndpoint injects the configured chaos schedule around an Endpoint.
type ChaosEndpoint struct {
	Endpoint
	cfg    ChaosConfig
	tagged TaggedEndpoint // non-nil when the inner endpoint routes lanes

	mu     sync.Mutex
	rng    *rand.Rand
	levels int
	armed  int64 // >0: operations left until a level-scheduled crash

	sends     atomic.Int64
	recvs     atomic.Int64
	crashed   atomic.Bool
	crashOnce sync.Once
}

// WithChaos wraps ep in the chaos injector.  If ep is tag-multiplexed the
// wrapper forwards lanes and tagged receives through the same schedule.
func WithChaos(ep Endpoint, cfg ChaosConfig) Endpoint {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	c := &ChaosEndpoint{
		Endpoint: ep,
		cfg:      cfg,
		rng:      rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(cfg.Seed)^0x9e3779b97f4a7c15)),
	}
	if te, ok := ep.(TaggedEndpoint); ok {
		c.tagged = te
		return &TaggedChaosEndpoint{ChaosEndpoint: c}
	}
	return c
}

// Crashed reports whether the crash schedule has fired.
func (c *ChaosEndpoint) Crashed() bool { return c.crashed.Load() }

// AdvanceLevel marks one completed protocol level, arming the
// crash-at-level schedule when its level is reached.
func (c *ChaosEndpoint) AdvanceLevel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.levels++
	if c.cfg.CrashAtLevel > 0 && c.levels == c.cfg.CrashAtLevel {
		// A few operations into the next level, so the crash lands
		// mid-protocol rather than exactly on the barrier.
		c.armed = 1 + c.rng.Int64N(8)
	}
}

// crash transitions to the dead state and severs the underlying endpoint,
// so peers blocked on this party fail fast — the in-process equivalent of
// the party's process dying.
func (c *ChaosEndpoint) crash() error {
	c.crashOnce.Do(func() {
		c.crashed.Store(true)
		_ = c.Endpoint.Close()
	})
	return ErrCrashed
}

// step runs the shared per-operation schedule; it returns a non-nil error
// when the operation must fail, and reports whether a send should be
// silently dropped.
func (c *ChaosEndpoint) step(isSend bool) (drop bool, err error) {
	if c.crashed.Load() {
		return false, ErrCrashed
	}
	c.mu.Lock()
	if c.armed > 0 {
		c.armed--
		if c.armed == 0 {
			c.mu.Unlock()
			return false, c.crash()
		}
	}
	var delay time.Duration
	if c.cfg.DelayProb > 0 && c.rng.Float64() < c.cfg.DelayProb {
		delay = time.Duration(1 + c.rng.Int64N(int64(c.cfg.MaxDelay)))
	}
	if c.cfg.ResetProb > 0 && c.rng.Float64() < c.cfg.ResetProb {
		c.mu.Unlock()
		return false, c.crash()
	}
	if isSend && c.cfg.DropProb > 0 && c.rng.Float64() < c.cfg.DropProb {
		drop = true
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if isSend {
		if n := c.sends.Add(1); c.cfg.CrashAfterSends > 0 && n > c.cfg.CrashAfterSends {
			return false, c.crash()
		}
	} else {
		if n := c.recvs.Add(1); c.cfg.CrashAfterRecvs > 0 && n > c.cfg.CrashAfterRecvs {
			return false, c.crash()
		}
	}
	return drop, nil
}

// Send runs the chaos schedule, then delegates (or silently drops).
func (c *ChaosEndpoint) Send(to int, b []byte) error {
	drop, err := c.step(true)
	if err != nil {
		return err
	}
	if drop {
		return nil
	}
	return c.Endpoint.Send(to, b)
}

// Recv runs the chaos schedule, then delegates.
func (c *ChaosEndpoint) Recv(from int) ([]byte, error) {
	if _, err := c.step(false); err != nil {
		return nil, err
	}
	return c.Endpoint.Recv(from)
}

// TaggedChaosEndpoint is WithChaos over a tag-multiplexed endpoint: lanes
// and tagged receives run the same seeded schedule, so the pipelined path
// sees chaos too.
type TaggedChaosEndpoint struct {
	*ChaosEndpoint
}

// Lane returns a lane view whose operations run the shared chaos schedule.
func (c *TaggedChaosEndpoint) Lane(tag uint32) Endpoint {
	return &chaosLane{c: c.ChaosEndpoint, lane: c.tagged.Lane(tag)}
}

// RecvTagged runs the chaos schedule, then delegates.
func (c *TaggedChaosEndpoint) RecvTagged(from int) (uint32, []byte, error) {
	if _, err := c.step(false); err != nil {
		return 0, nil, err
	}
	return c.tagged.RecvTagged(from)
}

// chaosLane is one lane's view through the shared chaos schedule.
type chaosLane struct {
	c    *ChaosEndpoint
	lane Endpoint
}

func (l *chaosLane) ID() int       { return l.lane.ID() }
func (l *chaosLane) N() int        { return l.lane.N() }
func (l *chaosLane) Stats() *Stats { return l.lane.Stats() }
func (l *chaosLane) Close() error  { return l.lane.Close() }

func (l *chaosLane) Send(to int, b []byte) error {
	drop, err := l.c.step(true)
	if err != nil {
		return err
	}
	if drop {
		return nil
	}
	return l.lane.Send(to, b)
}

func (l *chaosLane) Recv(from int) ([]byte, error) {
	if _, err := l.c.step(false); err != nil {
		return nil, err
	}
	return l.lane.Recv(from)
}
