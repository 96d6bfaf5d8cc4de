package paillier

import (
	"crypto/rand"
	"math/big"
	"sync"
	"sync/atomic"
)

// Randomness pool.  Every Paillier encryption and rerandomization needs a
// fresh obfuscator r^N mod N² — a full modular exponentiation that dominates
// the cost of the operation (the g^m part is free because g = N+1).  The
// pool moves that exponentiation off the hot path twice over:
//
//  1. Obfuscators are generated ahead of time by background workers, so a
//     hot-path Encrypt usually pops a ready pair and performs one mulmod.
//  2. Generation itself uses the classic fixed-base shortcut (Damgård–Jurik
//     §4.2): fix a random unit ρ, precompute a windowed table for
//     h = ρ^N mod N², and produce each obfuscator as h^e mod N² for a fresh
//     short exponent e.  One table walk replaces a full N-bit
//     exponentiation; the hiding assumption is that h^e is indistinguishable
//     from a uniform N-th power (see DESIGN.md, "Acceleration layer").
//
// A pooled pair is (e, h^e).  Encryption and rerandomization consume only
// h^e; the nonce r = ρ^e mod N, which only the zero-knowledge proofs read, is
// derived from the stored exponent when Obfuscator is called, through a
// second table built on first use.  Each pooled pair is consumed exactly
// once.

const (
	// poolWindow is the fixed-base window width: 43 products per obfuscator
	// from a 0.7 MB table at 1024-bit keys.  Window 8 (32 products, 2.4 MB)
	// was measured on train-he and bought nothing (3.1–3.2 s per train
	// against 2.8–3.2 s): the larger table falls out of cache.
	poolWindow = 6
	// poolExpBits is the short-exponent width, the floor the hiding
	// assumption is calibrated for.
	poolExpBits = 256
)

// PoolConfig tunes the randomness pool.
type PoolConfig struct {
	// Workers is the number of background generator goroutines
	// (default 1; generation is already ~10x cheaper than plain Exp).
	Workers int
	// Capacity is the number of obfuscator pairs buffered ahead of demand
	// (default 1024).
	Capacity int
	// MaxReserve caps how many pairs a single Reserve call may buffer
	// ahead (default 65536).  Frontier-wide training batches announce
	// nodes·channels·samples consumptions at once — unbounded at paper
	// scale — so reservations beyond the cap generate inline instead of
	// holding gigabytes of obfuscators in memory.
	MaxReserve int
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.MaxReserve <= 0 {
		c.MaxReserve = 1 << 16
	}
	return c
}

// obf is one precomputed obfuscator rn = h^e = (ρ^e)^N mod N² with the
// exponent it came from; e is as secret as the nonce ρ^e it stands for.
type obf struct {
	e, rn *big.Int
}

// Pool precomputes encryption obfuscators for one public key.  It is safe
// for concurrent use by any number of consumers.
type Pool struct {
	pk     *PublicKey
	cfg    PoolConfig
	rho    *big.Int
	tblN2  *FixedBaseTable // (ρ^N)^e mod N²  (the obfuscator)
	ch     chan obf
	stop   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once
	expMax *big.Int

	// tblN serves ρ^e mod N (the nonce) and is built by the first
	// Obfuscator call; semi-honest training never makes one.
	tblNOnce sync.Once
	tblN     *FixedBaseTable

	// extra is the overflow buffer filled by Reserve for batches larger
	// than the channel capacity; it is drained before the channel.
	extraMu sync.Mutex
	extra   []obf

	// Hits counts hot-path requests served from the buffer; Misses counts
	// requests that had to generate inline (still fixed-base, still fast).
	Hits, Misses atomic.Int64
}

// NewPool builds the fixed-base tables and starts the generator workers.
// Callers must Close the pool to release the workers.
func NewPool(pk *PublicKey, cfg PoolConfig) (*Pool, error) {
	cfg = cfg.withDefaults()
	rho, err := pk.randomUnit(rand.Reader)
	if err != nil {
		return nil, err
	}
	h := new(big.Int).Exp(rho, pk.N, pk.N2)
	p := &Pool{
		pk:     pk,
		cfg:    cfg,
		rho:    rho,
		tblN2:  NewFixedBaseTable(h, pk.N2, poolWindow, poolExpBits),
		ch:     make(chan obf, cfg.Capacity),
		stop:   make(chan struct{}),
		expMax: new(big.Int).Lsh(big.NewInt(1), poolExpBits),
	}
	for w := 0; w < cfg.Workers; w++ {
		p.wg.Add(1)
		go p.fill()
	}
	return p, nil
}

// fill keeps the buffer topped up until the pool is closed.
func (p *Pool) fill() {
	defer p.wg.Done()
	for {
		o, err := p.generate()
		if err != nil {
			return // crypto/rand failure; consumers fall back inline
		}
		select {
		case p.ch <- o:
		case <-p.stop:
			return
		}
	}
}

// generate produces one obfuscator pair via the fixed-base table.
func (p *Pool) generate() (obf, error) {
	e, err := rand.Int(rand.Reader, p.expMax)
	if err != nil {
		return obf{}, err
	}
	// e = 0 would give the identity obfuscator (no hiding); skew to 1.
	if e.Sign() == 0 {
		e.SetInt64(1)
	}
	return obf{e: e, rn: p.tblN2.Exp(e)}, nil
}

// take returns a fresh pair: reserved if available, then buffered, then
// generated inline through the fixed-base table.
func (p *Pool) take() (obf, error) {
	if o, ok := p.takeExtra(); ok {
		p.Hits.Add(1)
		return o, nil
	}
	select {
	case o := <-p.ch:
		p.Hits.Add(1)
		return o, nil
	default:
	}
	p.Misses.Add(1)
	return p.generate()
}

// Obfuscator returns a fresh (r, r^N mod N²) pair, deriving the nonce
// r = ρ^e mod N from the pair's exponent.
func (p *Pool) Obfuscator() (*big.Int, *big.Int, error) {
	o, err := p.take()
	if err != nil {
		return nil, nil, err
	}
	p.tblNOnce.Do(func() {
		p.tblN = NewFixedBaseTable(p.rho, p.pk.N, poolWindow, poolExpBits)
	})
	return p.tblN.Exp(o.e), o.rn, nil
}

func (p *Pool) takeExtra() (obf, bool) {
	p.extraMu.Lock()
	defer p.extraMu.Unlock()
	if len(p.extra) == 0 {
		return obf{}, false
	}
	o := p.extra[len(p.extra)-1]
	p.extra = p.extra[:len(p.extra)-1]
	return o, true
}

// Reserve pre-generates obfuscator pairs for an imminent batch of `size`
// consumptions, using up to `workers` goroutines.  The steady-state channel
// capacity is sized for per-node traffic; a level-wise training batch needs
// size ≈ nodes·channels·samples pairs at once, so callers announce the
// batch and the cost is amortized across all cores instead of being paid
// inline, one miss at a time.  Pairs already buffered count toward the
// target; surplus pairs are kept for later batches; reservations are
// clamped to cfg.MaxReserve so a frontier-wide announcement at paper scale
// bounds memory (the overflow generates inline, still via the fixed-base
// tables).
func (p *Pool) Reserve(size, workers int) {
	if size > p.cfg.MaxReserve {
		size = p.cfg.MaxReserve
	}
	p.extraMu.Lock()
	need := size - len(p.extra) - len(p.ch)
	p.extraMu.Unlock()
	if need <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	fresh := make([]obf, need)
	var wg sync.WaitGroup
	chunk := (need + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > need {
			hi = need
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				o, err := p.generate()
				if err != nil {
					return // crypto/rand failure; consumers fall back inline
				}
				fresh[i] = o
			}
		}(lo, hi)
	}
	wg.Wait()
	p.extraMu.Lock()
	for _, o := range fresh {
		if o.rn != nil {
			p.extra = append(p.extra, o)
		}
	}
	p.extraMu.Unlock()
}

// Buffered reports how many obfuscator pairs are currently ready.
func (p *Pool) Buffered() int { return len(p.ch) }

// Close stops the generator workers.  Idempotent.
func (p *Pool) Close() {
	p.closed.Do(func() {
		close(p.stop)
		p.wg.Wait()
	})
}

// ---------------------------------------------------------------------------
// PublicKey attachment

// EnablePool attaches a randomness pool to the key: Encrypt, Rerandomize and
// the vector APIs consult it automatically.  Any previously attached pool is
// closed.  The returned pool is also owned by the key; DisablePool (or
// enabling a new pool) closes it.
func (pk *PublicKey) EnablePool(cfg PoolConfig) (*Pool, error) {
	p, err := NewPool(pk, cfg)
	if err != nil {
		return nil, err
	}
	if old := pk.pool.Swap(p); old != nil {
		old.Close()
	}
	return p, nil
}

// Pool returns the attached randomness pool, or nil.
func (pk *PublicKey) Pool() *Pool { return pk.pool.Load() }

// DisablePool detaches and closes the attached pool, if any.
func (pk *PublicKey) DisablePool() {
	if old := pk.pool.Swap(nil); old != nil {
		old.Close()
	}
}
