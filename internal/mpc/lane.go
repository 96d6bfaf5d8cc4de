package mpc

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"sync/atomic"

	"repro/internal/transport"
)

// Pipelined execution support: the level-wise drivers overlap independent
// round chains by running each on its own engine "lane" (Fork) over a
// tag-multiplexed transport lane, and by splitting openings into an issue
// half (broadcast now) and an await half (collect later) so purely-local
// work slots into the wire round trip (OpenVecIssue / PendingOpen.Await).

// RoundGauge tracks how many open rounds are in flight at once across an
// engine and all its forks.  Peak > 1 is direct evidence that the
// pipelined driver really overlapped rounds.
type RoundGauge struct {
	cur, peak atomic.Int64
}

func (g *RoundGauge) enter() {
	c := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if c <= p || g.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

func (g *RoundGauge) leave() { g.cur.Add(-1) }

// Peak returns the highest number of simultaneously in-flight open rounds
// observed.
func (g *RoundGauge) Peak() int64 { return g.peak.Load() }

// InFlightPeak reports the peak in-flight round count across this engine
// and every fork sharing its gauge.
func (e *Engine) InFlightPeak() int64 {
	if e.gauge == nil {
		return 0
	}
	return e.gauge.Peak()
}

// Fork creates a child engine on a separate transport lane.  The child
// shares the parent's identity, configuration, MAC key share and in-flight
// gauge, but has its own dealer-material buffers, pending-open queue and
// statistics, so it may run a round chain concurrently with the parent —
// provided ep is a lane of a tag-multiplexed endpoint, so the two chains
// cannot cross-deliver.  No dealer hello is performed: the MAC key share
// is inherited.  Merge the child's counters back with MergeStats when the
// lane retires.
func (e *Engine) Fork(ep transport.Endpoint, lane uint32) *Engine {
	return &Engine{
		ep:         ep,
		id:         e.id,
		n:          e.n,
		dealer:     e.dealer,
		cfg:        e.cfg,
		alphaShare: e.alphaShare,
		local:      newPRG([]byte(fmt.Sprintf("pivot-party-%d-%d-lane-%d", e.id, e.cfg.Seed, lane))),
		bndTriples: make(map[twidth][]triple),
		masks:      make(map[uint][]Share),
		inputMasks: make(map[int][]inputMask),
		encMasks:   make(map[uint][]EncMask),
		gauge:      e.gauge,
	}
}

// MergeStats folds a retired fork's operation counters into this engine's,
// so per-party totals cover all lanes.
func (e *Engine) MergeStats(child *Engine) {
	e.Stats.Mults += child.Stats.Mults
	e.Stats.Opens += child.Stats.Opens
	e.Stats.OpenValues += child.Stats.OpenValues
	e.Stats.Rounds += child.Stats.Rounds
	e.Stats.Comparisons += child.Stats.Comparisons
	e.Stats.Divisions += child.Stats.Divisions
	e.Stats.DealerReqs += child.Stats.DealerReqs
}

// PendingOpen is the await half of a split opening: the broadcast has been
// sent, the peers' contributions have not yet been collected.  Pending
// opens on one engine resolve strictly in issue order (the transport is
// FIFO per pair), so Await drains every earlier ticket first.
type PendingOpen struct {
	e    *Engine
	sum  []Elem // this party's shares, then the running reconstruction
	macs []Elem // this party's MAC shares (authenticated mode only)
	done bool
}

// OpenVecIssue starts an opening: this party's shares are broadcast
// immediately and a ticket for the pending round is returned.  Until the
// ticket is awaited, the engine must perform no other peer receive — only
// purely local work, dealer traffic, or further issues — or frames would
// cross-deliver.  (Engine primitives enforce this by draining pending
// opens before any peer receive.)  The shares are copied out of xs, which
// the caller may reuse at once.
func (e *Engine) OpenVecIssue(xs []Share) *PendingOpen {
	e.Stats.Opens++
	e.Stats.OpenValues += int64(len(xs))
	e.Stats.Rounds++
	if e.gauge != nil {
		e.gauge.enter()
	}
	po := &PendingOpen{e: e, sum: make([]Elem, len(xs))}
	if e.cfg.Authenticated {
		po.macs = make([]Elem, len(xs))
	}
	e.wbuf = binary.AppendUvarint(e.wbuf[:0], uint64(len(xs)))
	for i := range xs {
		po.sum[i] = xs[i].V
		if po.macs != nil {
			po.macs[i] = xs[i].M
		}
		e.wbuf = appendElem(e.wbuf, xs[i].V)
	}
	if err := e.broadcast(e.wbuf); err != nil {
		panic(fmt.Sprintf("mpc: open broadcast: %v", err))
	}
	e.pendingOpens = append(e.pendingOpens, po)
	return po
}

// Await blocks until this opening's round completes and returns the
// reconstructed values.  Safe to call once per ticket, on the engine's
// owning goroutine.
func (po *PendingOpen) Await() []*big.Int {
	return elemsToBig(po.await())
}

// await is Await without the conversion to integers.
func (po *PendingOpen) await() []Elem {
	for !po.done {
		po.e.drainOneOpen()
	}
	return po.sum
}

// drainOneOpen completes the oldest pending open: receives every peer's
// contribution, reconstructs, and (with MACs) queues the values for
// CheckMACs.
func (e *Engine) drainOneOpen() {
	if len(e.pendingOpens) == 0 {
		panic("mpc: no pending open to drain")
	}
	po := e.pendingOpens[0]
	e.pendingOpens = e.pendingOpens[1:]
	for p := 0; p < e.n; p++ {
		if p == e.id {
			continue
		}
		frame, err := e.ep.Recv(p)
		if err == nil {
			err = addElems(po.sum, frame)
		}
		if err != nil {
			panic(fmt.Sprintf("mpc: open recv from party %d: %v", p, err))
		}
	}
	if e.cfg.Authenticated {
		e.pendingA = append(e.pendingA, po.sum...)
		e.pendingM = append(e.pendingM, po.macs...)
	}
	if e.gauge != nil {
		e.gauge.leave()
	}
	po.done = true
}

// addElems adds the encoded vector in frame, which must hold exactly
// len(acc) elements, into acc.
func addElems(acc []Elem, frame []byte) error {
	r, err := readElemsN(frame, len(acc))
	if err != nil {
		return err
	}
	for i := range acc {
		x, err := r.next()
		if err != nil {
			return err
		}
		acc[i] = acc[i].Add(x)
	}
	return nil
}

// drainPendingOpens resolves every outstanding issued opening.  Engine
// primitives that receive from peers outside the open path call it first,
// so an issued-but-unawaited round can never cross-deliver with them.
func (e *Engine) drainPendingOpens() {
	for len(e.pendingOpens) > 0 {
		e.drainOneOpen()
	}
}
