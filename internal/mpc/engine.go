package mpc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/transport"
)

// Config configures a party's MPC engine.
type Config struct {
	// F is the number of fractional bits for fixed-point values.
	F uint
	// Kappa is the statistical security parameter for masked openings.
	Kappa uint
	// Authenticated enables SPDZ MAC checking (malicious model, §9.1).
	// Packed bounded openings stay packed: the MACs follow the linear
	// packing (pack.go).
	Authenticated bool
	// Seed feeds this party's local randomness (commit-reveal nonces etc.).
	Seed int64
	// BatchSize is the minimum dealer request size of the triple, bounded-
	// triple and bit streams (masks use a quarter); it amortizes round trips
	// and caps how far ahead a stream prefetches (material.go).
	BatchSize int
	// Workers > 1 parallelizes the local (communication-free) arithmetic of
	// the batched primitives across goroutines.
	Workers int
}

// DefaultConfig returns the parameters used throughout the evaluation:
// f = 16 fractional bits, κ = 40, semi-honest.
func DefaultConfig() Config {
	return Config{F: 16, Kappa: 40, BatchSize: 512}
}

// OpStats counts the MPC operations a party performed.  Rounds counts
// synchronous open rounds, the right proxy for latency-bound cost.
type OpStats struct {
	Mults       int64
	Opens       int64
	OpenValues  int64
	Rounds      int64
	Comparisons int64
	Divisions   int64
	DealerReqs  int64
}

// Engine is one compute party's handle on the MPC protocol.  It is not safe
// for concurrent use; each party goroutine owns one engine.
type Engine struct {
	ep     transport.Endpoint
	id, n  int // this party, number of compute parties
	dealer int // dealer party index

	cfg        Config
	alphaShare Elem
	local      *prg

	material                // dealt-material queues (material.go)
	fetches  []pendingFetch // dealer requests whose responses are unread, FIFO

	pendingA []Elem // opened values awaiting MAC check
	pendingM []Elem // this party's MAC shares for them

	gauge *RoundGauge // in-flight rounds across this engine and forks

	wbuf []byte // outgoing frame under construction (Send does not retain it)

	Stats OpStats
}

// NewEngine attaches a party to the network.  ep must have n+1 endpoints,
// with the dealer at index n already running RunDealer.  It performs the
// hello handshake (receiving the MAC key share).
func NewEngine(ep transport.Endpoint, cfg Config) (*Engine, error) {
	if cfg.F == 0 {
		cfg.F = 16
	}
	if cfg.Kappa == 0 {
		cfg.Kappa = 40
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 512
	}
	e := &Engine{
		ep:       ep,
		id:       ep.ID(),
		n:        ep.N() - 1,
		dealer:   ep.N() - 1,
		cfg:      cfg,
		local:    newPRG([]byte(fmt.Sprintf("pivot-party-%d-%d", ep.ID(), cfg.Seed))),
		material: newMaterial(cfg.BatchSize),
		gauge:    &RoundGauge{},
	}
	frame, err := ep.Recv(e.dealer)
	if err != nil {
		return nil, fmt.Errorf("mpc: dealer hello: %w", err)
	}
	hello, err := parseElemsN(frame, 1)
	if err != nil {
		return nil, fmt.Errorf("mpc: dealer hello: %w", err)
	}
	e.alphaShare = hello[0]
	return e, nil
}

// Shutdown tells the dealer to exit.  Only party 0's call sends the message;
// all parties may call it.  Prefetched responses still in flight are left
// unread: Shutdown never receives, so it is safe on a network a failure has
// already closed.
func (e *Engine) Shutdown() {
	if e.id == 0 {
		_ = e.ep.Send(e.dealer, appendRequest(nil, reqShutdown))
	}
}

// PartyID returns this party's index.
func (e *Engine) PartyID() int { return e.id }

// Parties returns the number of compute parties.
func (e *Engine) Parties() int { return e.n }

// broadcast sends b to every compute party except this one (never to the
// dealer).
func (e *Engine) broadcast(b []byte) error {
	for p := 0; p < e.n; p++ {
		if p == e.id {
			continue
		}
		if err := e.ep.Send(p, b); err != nil {
			return err
		}
	}
	return nil
}

// F returns the fixed-point fractional bit count.
func (e *Engine) F() uint { return e.cfg.F }

// Authenticated reports whether MACs are in use.
func (e *Engine) Authenticated() bool { return e.cfg.Authenticated }

// ---------------------------------------------------------------------------
// Dealer material

// appendRequest encodes a dealer request: the kind and its arguments as a
// vector of small non-negative integers.
func appendRequest(dst []byte, kind int, args ...int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(1+len(args)))
	dst = appendElem(dst, Elem{uint64(kind)})
	for _, a := range args {
		dst = appendElem(dst, Elem{uint64(a)})
	}
	return dst
}

func (e *Engine) request(kind int, args ...int64) {
	if e.id == 0 {
		e.wbuf = appendRequest(e.wbuf[:0], kind, args...)
		if err := e.ep.Send(e.dealer, e.wbuf); err != nil {
			panic(fmt.Sprintf("mpc: dealer request: %v", err))
		}
	}
	e.Stats.DealerReqs++
}

func (e *Engine) recvDealer() []byte {
	b, err := e.ep.Recv(e.dealer)
	if err != nil {
		panic(fmt.Sprintf("mpc: dealer response: %v", err))
	}
	return b
}

// shareStride is the number of field elements a dealt share occupies on the
// wire: the value, and with MACs its MAC share.
func shareStride(authenticated bool) int {
	if authenticated {
		return 2
	}
	return 1
}

func (e *Engine) stride() int { return shareStride(e.cfg.Authenticated) }

// dealerVector opens a dealer response as a vector that must hold exactly
// want elements.
func dealerVector(frame []byte, want int) elemReader {
	r, err := readElemsN(frame, want)
	if err != nil {
		panic(fmt.Sprintf("mpc: dealer response: %v", err))
	}
	return r
}

// nextElem reads one element of a dealer response.
func nextElem(r *elemReader) Elem {
	x, err := r.next()
	if err != nil {
		panic(fmt.Sprintf("mpc: dealer response: %v", err))
	}
	return x
}

// nextShare reads one dealt share (value, then MAC share if authenticated).
func (e *Engine) nextShare(r *elemReader) Share {
	s := Share{V: nextElem(r)}
	if e.cfg.Authenticated {
		s.M = nextElem(r)
	}
	return s
}

// ---------------------------------------------------------------------------
// Linear (local) share algebra

// constElem returns a sharing of the public field element c: party 0 holds
// c, the rest hold 0, and every party holds α_i·c as MAC share.
func (e *Engine) constElem(c Elem) Share {
	var s Share
	if e.id == 0 {
		s.V = c
	}
	if e.cfg.Authenticated {
		s.M = e.alphaShare.Mul(c)
	}
	return s
}

// Const returns a sharing of the public constant c.
func (e *Engine) Const(c *big.Int) Share { return e.constElem(ElemFromBig(c)) }

// ConstInt64 is Const for small constants.
func (e *Engine) ConstInt64(c int64) Share { return e.constElem(elemFromInt64(c)) }

// Add returns x + y.
func (e *Engine) Add(x, y Share) Share {
	s := Share{V: x.V.Add(y.V)}
	if e.cfg.Authenticated {
		s.M = x.M.Add(y.M)
	}
	return s
}

// Sub returns x - y.
func (e *Engine) Sub(x, y Share) Share {
	s := Share{V: x.V.Sub(y.V)}
	if e.cfg.Authenticated {
		s.M = x.M.Sub(y.M)
	}
	return s
}

// Neg returns -x.
func (e *Engine) Neg(x Share) Share {
	s := Share{V: x.V.Neg()}
	if e.cfg.Authenticated {
		s.M = x.M.Neg()
	}
	return s
}

// addElem returns x + c for a public field element c.
func (e *Engine) addElem(x Share, c Elem) Share {
	if e.id == 0 {
		x.V = x.V.Add(c)
	}
	if e.cfg.Authenticated {
		x.M = x.M.Add(e.alphaShare.Mul(c))
	}
	return x
}

// mulElem returns c·x for a public field element c.
func (e *Engine) mulElem(x Share, c Elem) Share {
	s := Share{V: x.V.Mul(c)}
	if e.cfg.Authenticated {
		s.M = x.M.Mul(c)
	}
	return s
}

// lsh returns 2^n·x.
func (e *Engine) lsh(x Share, n uint) Share {
	s := Share{V: x.V.Lsh(n)}
	if e.cfg.Authenticated {
		s.M = x.M.Lsh(n)
	}
	return s
}

// AddConst returns x + c for public c.
func (e *Engine) AddConst(x Share, c *big.Int) Share { return e.addElem(x, ElemFromBig(c)) }

// MulPub returns c·x for public c.
func (e *Engine) MulPub(x Share, c *big.Int) Share { return e.mulElem(x, ElemFromBig(c)) }

// Sum returns the sum of shares.
func (e *Engine) Sum(xs []Share) Share {
	var acc Share
	for _, x := range xs {
		acc = e.Add(acc, x)
	}
	return acc
}

// Select returns b + s·(a-b), i.e. a if s==1 else b (one multiplication).
// s must be a sharing of 0 or 1.
func (e *Engine) Select(s, a, b Share) Share {
	d := e.MulVec([]Share{s}, []Share{e.Sub(a, b)})[0]
	return e.Add(b, d)
}

// SelectVec applies the same selector bit to each (a, b) pair in one round.
func (e *Engine) SelectVec(s Share, as, bs []Share) []Share {
	sel := make([]Share, len(as))
	for i := range sel {
		sel[i] = s
	}
	return e.selectPairwise(sel, as, bs)
}

// ---------------------------------------------------------------------------
// Interactive primitives

// OpenVec reconstructs values: every party broadcasts its shares and sums
// the contributions.  One synchronous round for the whole batch.  With MACs
// the opened values are queued for CheckMACs.
func (e *Engine) OpenVec(xs []Share) []*big.Int {
	return elemsToBig(e.openElems(xs))
}

// openElems is OpenVec for callers inside the package: the opened values
// stay field elements.
func (e *Engine) openElems(xs []Share) []Elem {
	e.Stats.Opens++
	e.Stats.OpenValues += int64(len(xs))
	e.Stats.Rounds++
	if e.gauge != nil {
		e.gauge.enter()
		defer e.gauge.leave()
	}
	sum := make([]Elem, len(xs))
	e.wbuf = binary.AppendUvarint(e.wbuf[:0], uint64(len(xs)))
	for i := range xs {
		sum[i] = xs[i].V
		e.wbuf = appendElem(e.wbuf, xs[i].V)
	}
	if err := e.broadcast(e.wbuf); err != nil {
		panic(fmt.Sprintf("mpc: open broadcast: %v", err))
	}
	for p := 0; p < e.n; p++ {
		if p == e.id {
			continue
		}
		frame, err := e.ep.Recv(p)
		if err == nil {
			err = addElems(sum, frame)
		}
		if err != nil {
			panic(fmt.Sprintf("mpc: open recv from party %d: %v", p, err))
		}
	}
	if e.cfg.Authenticated {
		e.pendingA = append(e.pendingA, sum...)
		for i := range xs {
			e.pendingM = append(e.pendingM, xs[i].M)
		}
	}
	return sum
}

// Open reconstructs a single value.
func (e *Engine) Open(x Share) *big.Int {
	return e.openElems([]Share{x})[0].Big()
}

// OpenSigned reconstructs a value and decodes it as signed.
func (e *Engine) OpenSigned(x Share) *big.Int {
	return Signed(e.Open(x))
}

// InputVec secret-shares values held by owner: the dealer supplies random
// masks ⟨r⟩ with r revealed to the owner, the owner broadcasts δ = x - r,
// and everyone computes ⟨x⟩ = ⟨r⟩ + δ.  The owner knows len(xs); the other
// parties pass a slice of the same length (they know it from protocol
// context), whose contents are ignored.
func (e *Engine) InputVec(owner int, xs []*big.Int) []Share {
	count := len(xs)
	masks := take(e, e.inputMaskQueue(owner), count)
	var deltas []Elem
	if e.id == owner {
		deltas = make([]Elem, count)
		for i := range deltas {
			deltas[i] = ElemFromBig(xs[i]).Sub(masks[i].plain)
		}
		e.wbuf = appendElems(e.wbuf[:0], deltas)
		if err := e.broadcast(e.wbuf); err != nil {
			panic(fmt.Sprintf("mpc: input broadcast: %v", err))
		}
	} else {
		frame, err := e.ep.Recv(owner)
		if err == nil {
			deltas, err = parseElemsN(frame, count)
		}
		if err != nil {
			panic(fmt.Sprintf("mpc: input recv: %v", err))
		}
	}
	e.Stats.Rounds++
	out := make([]Share, count)
	for i := range out {
		out[i] = e.addElem(masks[i].share, deltas[i])
	}
	return out
}

// Input secret-shares one value held by owner.  Non-owners pass nil.
func (e *Engine) Input(owner int, x *big.Int) Share {
	return e.InputVec(owner, []*big.Int{x})[0]
}

// beaver recombines one Beaver product from its triple and the opened
// differences d = x − a, f = y − b: ⟨xy⟩ = ⟨c⟩ + d·⟨b⟩ + f·⟨a⟩ + d·f.
func (e *Engine) beaver(t *triple, d, f Elem) Share {
	df := d.Mul(f)
	z := Share{V: t.c.V.Add(t.b.V.Mul(d)).Add(t.a.V.Mul(f))}
	if e.id == 0 {
		z.V = z.V.Add(df)
	}
	if e.cfg.Authenticated {
		z.M = t.c.M.Add(t.b.M.Mul(d)).Add(t.a.M.Mul(f)).Add(e.alphaShare.Mul(df))
	}
	return z
}

// MulVec multiplies pairwise with Beaver triples: one open round per batch.
func (e *Engine) MulVec(xs, ys []Share) []Share {
	if len(xs) != len(ys) {
		panic("mpc: MulVec length mismatch")
	}
	if len(xs) == 0 {
		return nil
	}
	e.Stats.Mults += int64(len(xs))
	ts := take(e, e.triples, len(xs))
	opens := make([]Share, 2*len(xs))
	for i := range xs {
		opens[2*i] = e.Sub(xs[i], ts[i].a)
		opens[2*i+1] = e.Sub(ys[i], ts[i].b)
	}
	df := e.openElems(opens)
	out := make([]Share, len(xs))
	// Beaver recombination is communication-free and touches only immutable
	// engine state, so it parallelizes across the configured workers.
	parallelFor(len(xs), e.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = e.beaver(&ts[i], df[2*i], df[2*i+1])
		}
	})
	return out
}

// Mul multiplies two shared values.
func (e *Engine) Mul(x, y Share) Share {
	return e.MulVec([]Share{x}, []Share{y})[0]
}

// ---------------------------------------------------------------------------
// MAC checking (malicious model)

// ErrBadReveal is returned (wrapped, naming the peer) when a peer's half of
// a commit-reveal exchange is malformed or does not match its commitment.
var ErrBadReveal = errors.New("mpc: bad commit-reveal message")

// CheckMACs runs the SPDZ batched MAC check over every value opened since
// the last check.  It returns an error if the MAC relation fails, meaning
// some party tampered with a share.
func (e *Engine) CheckMACs() error {
	if !e.cfg.Authenticated {
		return nil
	}
	if len(e.pendingA) == 0 {
		return nil
	}
	// Jointly derive public coefficients by commit-reveal of per-party seeds.
	var seed [32]byte
	copy(seed[:], e.local.read(32))
	combined, err := e.commitReveal(seed[:])
	if err != nil {
		return err
	}
	coeffs := coinCoeffs(combined, len(e.pendingA))
	// σ_i = Σ ρ_j·m_ij − α_i·(Σ ρ_j·a_j)
	var aCombo, mCombo Elem
	for j := range e.pendingA {
		aCombo = aCombo.Add(coeffs[j].Mul(e.pendingA[j]))
		mCombo = mCombo.Add(coeffs[j].Mul(e.pendingM[j]))
	}
	sigma := mCombo.Sub(e.alphaShare.Mul(aCombo))
	e.pendingA = e.pendingA[:0]
	e.pendingM = e.pendingM[:0]

	// Commit-reveal σ shares, then check they sum to zero.
	sigmas, err := e.commitRevealValues([]Elem{sigma})
	if err != nil {
		return err
	}
	var total Elem
	for _, s := range sigmas {
		total = total.Add(s)
	}
	if !total.IsZero() {
		return fmt.Errorf("mpc: MAC check failed (party %d)", e.id)
	}
	return nil
}

// exchangeCommitted broadcasts H(msg), collects every peer's commitment,
// broadcasts msg, and returns every peer's opened message (nil at this
// party's own index) after checking it against the commitment.
func (e *Engine) exchangeCommitted(msg []byte) ([][]byte, error) {
	h := sha256.Sum256(msg)
	if err := e.broadcast(h[:]); err != nil {
		return nil, err
	}
	commits := make([][]byte, e.n)
	for p := 0; p < e.n; p++ {
		if p == e.id {
			continue
		}
		c, err := e.ep.Recv(p)
		if err != nil {
			return nil, err
		}
		commits[p] = c
	}
	if err := e.broadcast(msg); err != nil {
		return nil, err
	}
	opened := make([][]byte, e.n)
	for p := 0; p < e.n; p++ {
		if p == e.id {
			continue
		}
		m, err := e.ep.Recv(p)
		if err != nil {
			return nil, err
		}
		hh := sha256.Sum256(m)
		if !bytes.Equal(hh[:], commits[p]) {
			return nil, fmt.Errorf("%w: party %d broke its commitment", ErrBadReveal, p)
		}
		opened[p] = m
	}
	e.Stats.Rounds += 2
	return opened, nil
}

// commitReveal commit-reveals one 32-byte seed per party and returns the XOR
// of all seeds.
func (e *Engine) commitReveal(seed []byte) ([]byte, error) {
	opened, err := e.exchangeCommitted(seed)
	if err != nil {
		return nil, err
	}
	combined := append([]byte(nil), seed...)
	for p, s := range opened {
		if p == e.id {
			continue
		}
		if len(s) != len(seed) {
			return nil, fmt.Errorf("%w: party %d revealed a %d-byte coin seed, want %d", ErrBadReveal, p, len(s), len(seed))
		}
		for i := range combined {
			combined[i] ^= s[i]
		}
	}
	return combined, nil
}

// revealNonceLen is the length of the hiding nonce appended to committed
// values.
const revealNonceLen = 16

// commitRevealValues commit-reveals len(vals) field elements per party and
// returns all parties' values in party order (own values included).
func (e *Engine) commitRevealValues(vals []Elem) ([]Elem, error) {
	blob := appendElems(nil, vals)
	blob = append(blob, e.local.read(revealNonceLen)...)
	opened, err := e.exchangeCommitted(blob)
	if err != nil {
		return nil, err
	}
	out := make([]Elem, 0, e.n*len(vals))
	for p, b := range opened {
		if p == e.id {
			out = append(out, vals...)
			continue
		}
		if len(b) < revealNonceLen {
			return nil, fmt.Errorf("%w: party %d revealed %d bytes, shorter than the nonce", ErrBadReveal, p, len(b))
		}
		theirs, err := parseElemsN(b[:len(b)-revealNonceLen], len(vals))
		if err != nil {
			return nil, fmt.Errorf("%w: party %d: %v", ErrBadReveal, p, err)
		}
		out = append(out, theirs...)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Offline material exposed to the protocol layer

// EncMask pairs this party's plain integer piece R_i with its field share of
// R = Σ R_i.  The HE↔MPC bridges (core package) use these to convert shared
// values into threshold-Paillier ciphertexts without leaving the integers,
// so Plain is an integer — its width is the caller's and may exceed the
// field's — and is never modified once dealt.
type EncMask struct {
	Plain *big.Int
	Share Share
}

// EncMasks returns count encryption masks of the given bit width per piece.
func (e *Engine) EncMasks(count int, width uint) []EncMask {
	return take(e, e.encMaskQueue(width), count)
}
