package mpc

import (
	"fmt"
	"slices"

	"repro/internal/transport"
)

// Dealer material arrives ahead of need.  Every stream of dealt material —
// triples, bounded triples per width pair, bits, masks per width, input masks
// per owner, encryption masks per width — is a queue, and every request the
// engine has sent whose response it has not read waits in one FIFO: the
// dealer answers a lane in the order party 0 asked, so responses are read in
// request order, each into its own queue.  A take blocks only when its
// queue, counting what is already in flight for it, cannot cover the take.
// After every take the queue is topped up toward the largest take it has
// served, so the next take of that size finds its material read or on the
// wire, and the dealer's round trip overlaps the online rounds instead of
// stalling them.
//
// The top-up is a function of the sequence of takes alone, never of timing
// or of which responses have arrived: every party runs the same program, so
// every party records the same request at the same point and reads the same
// response next.  That is the invariant party 0's requests on everyone's
// behalf already relied on.

// prefetchCap caps a queue's prefetch target at this many batches.  A queue
// whose largest take is bigger still blocks on that take, but it never asks
// ahead for more: what a queue holds stays within a few batches whatever its
// takes.
const prefetchCap = 2

// queue is one stream of dealt material.
type queue[T any] struct {
	items    []T // read, not yet taken
	inflight int // requested, response not yet read
	maxTake  int // the largest single take served: the prefetch target
	batch    int // the smallest request
	kind     int // the request kind, and its arguments after the count
	args     []int64
	parse    func(e *Engine, frame []byte, count int, q []T) []T
}

// pendingFetch is a request whose response has not been read: the queue it
// fills and the item count it asked for.
type pendingFetch struct {
	q     filler
	count int
}

// filler is a queue as the FIFO sees it.
type filler interface {
	fill(e *Engine, frame []byte, count int)
}

func (q *queue[T]) fill(e *Engine, frame []byte, count int) {
	q.items = q.parse(e, frame, count, q.items)
	q.inflight -= count
}

func (q *queue[T]) clone() *queue[T] {
	c := *q
	c.items = slices.Clone(q.items)
	return &c
}

// take serves count items from q, asking for at least a batch if q cannot
// cover it, then tops q up toward the largest take it has served, at most
// prefetchCap batches.  A top-up asks for a batch, or for two largest takes
// if that is less: a stream whose takes are small and rare would otherwise
// hold a batch it may never spend, and a dozen such streams per engine are
// what a full batch ahead costs in memory.
func take[T any](e *Engine, q *queue[T], count int) []T {
	q.maxTake = max(q.maxTake, count)
	if short := count - len(q.items) - q.inflight; short > 0 {
		fetch(e, q, max(short, q.batch))
	}
	for len(q.items) < count {
		e.readFetch()
	}
	out := q.items[:count:count]
	q.items = q.items[count:]
	if short := min(q.maxTake, prefetchCap*q.batch) - len(q.items) - q.inflight; short > 0 {
		fetch(e, q, max(short, min(q.batch, 2*q.maxTake)))
	}
	return out
}

// fetch asks the dealer for count more items of q's stream.  Party 0 sends
// the request on everyone's behalf; every party records it.
func fetch[T any](e *Engine, q *queue[T], count int) {
	e.request(q.kind, append([]int64{int64(count)}, q.args...)...)
	q.inflight += count
	e.fetches = append(e.fetches, pendingFetch{q, count})
}

// readFetch reads the oldest outstanding response into its queue.
func (e *Engine) readFetch() {
	f := e.fetches[0]
	e.fetches = e.fetches[1:]
	f.q.fill(e, e.recvDealer(), f.count)
}

// drainFetches reads every outstanding response.
func (e *Engine) drainFetches() {
	for len(e.fetches) > 0 {
		e.readFetch()
	}
}

// Retire reads a fork's outstanding dealer responses.  Lane tags are reused
// (every level's leaf lane is slot 1), so a response left unread would be
// parsed by the next fork on the tag as its own material.  Call it on the
// fork's goroutine once its chain has succeeded: after a failure the session
// is torn down, and a party that ran ahead must not wait for a response to a
// request party 0 never reached.
func (e *Engine) Retire() { e.drainFetches() }

// material is an engine's dealt-material queues.
type material struct {
	triples    *queue[triple]
	bits       *queue[Share]
	bndTriples map[twidth]*queue[triple]
	masks      map[uint]*queue[Share]
	inputMasks map[int]*queue[inputMask]
	encMasks   map[uint]*queue[EncMask]
}

func newMaterial(batch int) material {
	return material{
		triples:    &queue[triple]{batch: batch, kind: reqTriples, parse: parseTriples},
		bits:       &queue[Share]{batch: batch, kind: reqBits, parse: parseShares},
		bndTriples: make(map[twidth]*queue[triple]),
		masks:      make(map[uint]*queue[Share]),
		inputMasks: make(map[int]*queue[inputMask]),
		encMasks:   make(map[uint]*queue[EncMask]),
	}
}

// cloneQueues copies a map of queues, items included.
func cloneQueues[K comparable, T any](m map[K]*queue[T]) map[K]*queue[T] {
	out := make(map[K]*queue[T], len(m))
	for k, q := range m {
		out[k] = q.clone()
	}
	return out
}

func (m material) clone() material {
	return material{
		triples:    m.triples.clone(),
		bits:       m.bits.clone(),
		bndTriples: cloneQueues(m.bndTriples),
		masks:      cloneQueues(m.masks),
		inputMasks: cloneQueues(m.inputMasks),
		encMasks:   cloneQueues(m.encMasks),
	}
}

// queueOf returns m's queue for k, made by mk on first use.
func queueOf[K comparable, T any](m map[K]*queue[T], k K, mk func() *queue[T]) *queue[T] {
	q := m[k]
	if q == nil {
		q = mk()
		m[k] = q
	}
	return q
}

// boundedQueue is the stream of triples with masks below 2^wa and 2^wb.
func (e *Engine) boundedQueue(wa, wb uint) *queue[triple] {
	return queueOf(e.bndTriples, twidth{wa, wb}, func() *queue[triple] {
		return &queue[triple]{batch: e.cfg.BatchSize, kind: reqBoundedTriples, args: []int64{int64(wa), int64(wb)}, parse: parseTriples}
	})
}

// maskQueue is the stream of statistical masks of one width.  It asks a
// quarter of BatchSize at a time: a ladder spends one mask per instance where
// it spends a triple per bit, and the dozen widths a training run uses each
// hold their own queue.
func (e *Engine) maskQueue(width uint) *queue[Share] {
	return queueOf(e.masks, width, func() *queue[Share] {
		return &queue[Share]{batch: e.cfg.BatchSize / 4, kind: reqMasks, args: []int64{int64(width)}, parse: parseShares}
	})
}

// inputMaskQueue is the stream of input masks for owner's values.
func (e *Engine) inputMaskQueue(owner int) *queue[inputMask] {
	return queueOf(e.inputMasks, owner, func() *queue[inputMask] {
		return &queue[inputMask]{batch: 64, kind: reqInputMasks, args: []int64{int64(owner)}, parse: parseInputMasks(owner)}
	})
}

// encMaskQueue is the stream of encryption masks of one piece width.
func (e *Engine) encMaskQueue(width uint) *queue[EncMask] {
	return queueOf(e.encMasks, width, func() *queue[EncMask] {
		return &queue[EncMask]{batch: 64, kind: reqEncMasks, args: []int64{int64(width)}, parse: parseEncMasks}
	})
}

// parseTriples appends count dealt triples to q.
func parseTriples(e *Engine, frame []byte, count int, q []triple) []triple {
	r := dealerVector(frame, 3*count*e.stride())
	q = slices.Grow(q, count)
	for i := 0; i < count; i++ {
		q = append(q, triple{a: e.nextShare(&r), b: e.nextShare(&r), c: e.nextShare(&r)})
	}
	return q
}

// parseShares appends count dealt single shares (bits, masks) to q.
func parseShares(e *Engine, frame []byte, count int, q []Share) []Share {
	r := dealerVector(frame, count*e.stride())
	q = slices.Grow(q, count)
	for i := 0; i < count; i++ {
		q = append(q, e.nextShare(&r))
	}
	return q
}

// parseInputMasks parses input masks for owner's values: the shares, and at
// the owner the plain masks after them.
func parseInputMasks(owner int) func(e *Engine, frame []byte, count int, q []inputMask) []inputMask {
	return func(e *Engine, frame []byte, count int, q []inputMask) []inputMask {
		want := count * e.stride()
		if e.id == owner {
			want += count
		}
		r := dealerVector(frame, want)
		first := len(q)
		q = slices.Grow(q, count)
		for i := 0; i < count; i++ {
			q = append(q, inputMask{share: e.nextShare(&r)})
		}
		if e.id == owner {
			for i := first; i < len(q); i++ {
				q[i].plain = nextElem(&r)
			}
		}
		return q
	}
}

// parseEncMasks appends count encryption masks to q.  Their pieces are
// integers of the caller's width, which may exceed the field's, so the frame
// is a general integer vector.
func parseEncMasks(e *Engine, frame []byte, count int, q []EncMask) []EncMask {
	stride := e.stride()
	payload, err := transport.DecodeInts(frame)
	if err == nil && len(payload) != count*stride {
		err = fmt.Errorf("%d integers, want %d", len(payload), count*stride)
	}
	if err != nil {
		panic(fmt.Sprintf("mpc: dealer response: %v", err))
	}
	q = slices.Grow(q, count)
	for i := 0; i < count; i++ {
		// The field share of R is the piece itself, reduced.
		m := EncMask{Plain: payload[i*stride]}
		m.Share.V = ElemFromBig(m.Plain)
		if e.cfg.Authenticated {
			m.Share.M = ElemFromBig(payload[i*stride+1])
		}
		q = append(q, m)
	}
	return q
}
