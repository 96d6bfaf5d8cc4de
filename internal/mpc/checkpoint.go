package mpc

import (
	"fmt"
	"slices"
	"sync"
)

// Phase-boundary checkpointing: at a level barrier every party snapshots
// the consumable state of its Engine — the dealer-material buffers
// (triples, bits, masks) and the local PRG cursor — while party 0 asks the
// dealer to snapshot its own PRG cursor and MAC key material.  Because the
// dealer serves material from one PRG in request-arrival order and every
// request originates from party 0, a checkpoint taken after the dealer has
// acknowledged is globally consistent: restoring every engine and the
// dealer from the same checkpoint replays the exact material stream the
// fault-free run would have seen, so a resumed session is bit-identical.
//
// Not recoverable: authenticated (malicious-mode) sessions.  The SPDZ MAC
// check folds the entire transcript of opened values into one deferred
// verification; a restarted party has lost the pendingA/pendingM
// transcript, so a checkpoint cannot vouch for openings that happened
// before it.  Snapshot refuses authenticated engines.

// PRGState is a resumable snapshot of a deterministic PRG cursor.
type PRGState struct {
	Key [32]byte
	Ctr uint64
	Buf []byte
}

func (st PRGState) clone() PRGState {
	st.Buf = slices.Clone(st.Buf)
	return st
}

// state snapshots the PRG (deep copy).
func (p *prg) state() PRGState {
	return PRGState{Key: p.key, Ctr: p.ctr, Buf: p.buf}.clone()
}

// prgFromState rebuilds a PRG at the snapshotted cursor.
func prgFromState(st PRGState) *prg {
	buf := slices.Clone(st.Buf)
	return &prg{key: st.Key, ctr: st.Ctr, buf: buf, store: buf}
}

// EngineState is one party's snapshot of its engine's consumable state.
// Shares are values, so copying the buffers copies the material; the plain
// integers of encryption masks are shared, which is safe because nothing
// modifies them once dealt.  A snapshot is immutable once taken: Restore
// copies out of it, so the same snapshot can seed several recovery attempts.
type EngineState struct {
	alphaShare Elem
	local      PRGState
	triples    []triple
	bndTriples map[twidth][]triple
	bits       []Share
	masks      map[uint][]Share
	inputMasks map[int][]inputMask
	encMasks   map[uint][]EncMask
}

// cloneQueues copies a map of material queues, slices included.
func cloneQueues[K comparable, T any](m map[K][]T) map[K][]T {
	out := make(map[K][]T, len(m))
	for k, q := range m {
		out[k] = slices.Clone(q)
	}
	return out
}

// clone copies the snapshot's buffers.
func (st *EngineState) clone() *EngineState {
	return &EngineState{
		alphaShare: st.alphaShare,
		local:      st.local.clone(),
		triples:    slices.Clone(st.triples),
		bndTriples: cloneQueues(st.bndTriples),
		bits:       slices.Clone(st.bits),
		masks:      cloneQueues(st.masks),
		inputMasks: cloneQueues(st.inputMasks),
		encMasks:   cloneQueues(st.encMasks),
	}
}

// quiescent reports why the engine cannot be snapshotted or restored now.
func (e *Engine) quiescent(verb string) error {
	if e.cfg.Authenticated {
		return fmt.Errorf("mpc: cannot %s an authenticated session (the MAC transcript cannot be replayed)", verb)
	}
	if len(e.pendingOpens) > 0 {
		return fmt.Errorf("mpc: cannot %s with %d opens in flight", verb, len(e.pendingOpens))
	}
	return nil
}

// Snapshot copies the engine's consumable state.  The engine must be
// quiescent (no pending opens) and semi-honest.
func (e *Engine) Snapshot() (*EngineState, error) {
	if err := e.quiescent("snapshot"); err != nil {
		return nil, err
	}
	live := EngineState{
		alphaShare: e.alphaShare,
		local:      e.local.state(),
		triples:    e.triples,
		bndTriples: e.bndTriples,
		bits:       e.bits,
		masks:      e.masks,
		inputMasks: e.inputMasks,
		encMasks:   e.encMasks,
	}
	return live.clone(), nil
}

// Restore overwrites the engine's consumable state from a snapshot (by copy
// — the snapshot stays reusable).  The engine keeps its endpoint and
// identity; only material buffers, the local PRG cursor and the MAC key
// share are rewound.
func (e *Engine) Restore(st *EngineState) error {
	if err := e.quiescent("restore"); err != nil {
		return err
	}
	c := st.clone()
	e.alphaShare = c.alphaShare
	e.local = prgFromState(c.local)
	e.triples = c.triples
	e.bndTriples = c.bndTriples
	e.bits = c.bits
	e.masks = c.masks
	e.inputMasks = c.inputMasks
	e.encMasks = c.encMasks
	return nil
}

// DealerCheckpoint triggers and synchronizes a dealer-side snapshot: party
// 0 sends the checkpoint request (like all dealer traffic) and every party
// waits for the dealer's acknowledgement, so material requested before the
// barrier is guaranteed served — and therefore captured by the engines'
// own snapshots — before the dealer's PRG cursor is recorded.
func (e *Engine) DealerCheckpoint() error {
	e.request(reqCheckpoint)
	ack := e.dealerVector(1)
	if nextElem(&ack).IsZero() {
		return fmt.Errorf("mpc: dealer refused checkpoint (no store configured?)")
	}
	return nil
}

// DealerState is the dealer's resumable snapshot: the MAC key and its
// shares exactly as dealt at startup (so a resumed hello replays the saved
// values without advancing the PRG) plus the PRG cursor after the last
// served request.
type DealerState struct {
	Alpha       Elem
	AlphaShares []Elem
	PRG         PRGState
}

func (st *DealerState) clone() *DealerState {
	return &DealerState{Alpha: st.Alpha, AlphaShares: slices.Clone(st.AlphaShares), PRG: st.PRG.clone()}
}

// DealerCheckpointStore is the in-process mailbox the dealer writes its
// snapshots into; the recovery driver reads the latest when rebuilding a
// session.
type DealerCheckpointStore struct {
	mu sync.Mutex
	st *DealerState
}

// put records the latest dealer snapshot.
func (s *DealerCheckpointStore) put(st *DealerState) {
	s.mu.Lock()
	s.st = st
	s.mu.Unlock()
}

// State returns a deep copy of the latest dealer snapshot (nil if no
// checkpoint has committed).
func (s *DealerCheckpointStore) State() *DealerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return nil
	}
	return s.st.clone()
}
