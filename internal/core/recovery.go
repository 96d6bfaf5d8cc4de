package core

import (
	"fmt"
	"sync"

	"repro/internal/mpc"
	"repro/internal/paillier"
)

// Phase-boundary crash recovery.  Training is an interactive MPC: a party
// that dies mid-level takes the whole SPMD phase down with it (the other
// parties block on its messages and the session aborts).  The recovery
// model is therefore rewind-to-barrier: at every completed tree level each
// party snapshots its recoverable state into a shared CheckpointStore, the
// dealer snapshots its PRG cursor (mpc.DealerCheckpoint), and a restarted
// federation resumes from the last checkpoint that ALL parties committed —
// producing a model bit-identical to the fault-free run, because every
// protocol value downstream of the barrier is a deterministic function of
// the checkpointed PRG cursors and buffers (Paillier encryption randomness
// affects only ciphertext bytes, never decrypted plaintexts, and the
// Algorithm-2 conversion masks cancel exactly).
//
// What a checkpoint holds, per party: the MPC engine's consumable state
// (dealer-material buffers + local PRG cursor), the level frontier, the
// model built so far, and the training driver's unit context (completed RF
// trees, or the GBDT boosting state: rounds so far, residual/score
// ciphertexts, one-hot target shares).  The threshold key material is
// captured once at session creation — a resumed session MUST reuse it, or
// every checkpointed ciphertext becomes undecryptable.
//
// DP runs recover like any other: their Laplace and exponential-mechanism
// noise is dealer material, so DealerCheckpoint + Snapshot capture it, and a
// resumed run replays the same draws — the privacy-safe choice, since fresh
// draws after a crash would answer the same queries a second time.
//
// Pipelined sessions checkpoint too: every chain trainLevel forks is joined
// before it returns, and lanes never checkpoint (rfTrees trains its trees in
// turn, on the party itself, under a store).
//
// What is NOT recoverable: malicious-mode sessions (the SPDZ MAC transcript
// cannot be replayed — see mpc.EngineState; newSession refuses a store with
// ErrNotRecoverable) and the per-node oracle (it has no level join).

// trainKind tags which training driver produced a checkpoint.
type trainKind int

const (
	kindDT trainKind = iota
	kindRF
	kindGBDT
)

func (k trainKind) String() string {
	return [...]string{"dt", "rf", "gbdt"}[k]
}

// outerSnap is the training driver's unit-level context: everything beyond
// the current tree level that the driver needs to finish the interrupted
// unit and run the remaining ones.  All referenced objects are stable at
// unit start (slices are reassigned, never mutated in place), so the snap
// shares them.
type outerSnap struct {
	kind trainKind
	unit int // tree index (RF) or boosting round (GBDT)

	trees []*Model  // RF: trees completed before this unit
	boost *boosting // GBDT: the boosting state at unit start
}

// taskSnap deep-copies a treeTask (its model is mutated level by level).
type taskSnap struct {
	model      *Model
	capture    bool
	leafAlphas [][]*paillier.Ciphertext
}

// partySnap is one party's checkpoint at a level barrier.
type partySnap struct {
	eng      *mpc.EngineState
	depth    int // next depth to train
	frontier []frontierNode
	tasks    []*taskSnap
	outer    *outerSnap
}

// Checkpoint is one committed barrier: every party's snapshot plus the
// dealer's, keyed by (unit, depth).
type Checkpoint struct {
	Unit    int
	Depth   int
	parties []*partySnap
	dealer  *mpc.DealerState
}

// Kind reports which training driver the checkpoint belongs to.
func (c *Checkpoint) Kind() string { return c.parties[0].outer.kind.String() }

type ckKey struct{ unit, depth int }

// CheckpointStore is the in-process mailbox a session checkpoints into.
// Create one, put it in Config.Checkpoint, and keep it across the crash:
// ResumeSession reads the latest committed checkpoint (and the captured
// key material) back out of it.
type CheckpointStore struct {
	mu      sync.Mutex
	pk      *paillier.PublicKey
	pkeys   []*paillier.PartialKey
	pending map[ckKey]*Checkpoint
	latest  *Checkpoint
	dealer  mpc.DealerCheckpointStore
}

// setKeys captures the federation key material at first session creation.
func (s *CheckpointStore) setKeys(pk *paillier.PublicKey, pkeys []*paillier.PartialKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pk == nil {
		s.pk = pk
		s.pkeys = pkeys
	}
}

func (s *CheckpointStore) keys() (*paillier.PublicKey, []*paillier.PartialKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pk, s.pkeys
}

// dealerStore exposes the dealer-side snapshot mailbox.
func (s *CheckpointStore) dealerStore() *mpc.DealerCheckpointStore { return &s.dealer }

// beginAttempt drops partially committed checkpoints.  Every session
// construction calls it, so a barrier interrupted mid-commit can never mix
// party snapshots from different attempts — snapshots reference broadcast
// ciphertexts, and joint decryption needs every party holding bytes from
// the SAME broadcast.  Fully committed checkpoints are attempt-consistent
// by construction and stay valid.
func (s *CheckpointStore) beginAttempt() {
	s.mu.Lock()
	s.pending = nil
	s.mu.Unlock()
}

// commit files party id's snapshot for barrier (unit, depth).  The
// checkpoint publishes as latest only once all m parties have committed;
// the dealer's state is bound at that moment (its put happened before any
// party received the checkpoint ack, so it cannot be older than this
// barrier).
func (s *CheckpointStore) commit(id, m int, snap *partySnap) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := ckKey{snap.outer.unit, snap.depth}
	if s.pending == nil {
		s.pending = make(map[ckKey]*Checkpoint)
	}
	ck := s.pending[k]
	if ck == nil {
		ck = &Checkpoint{Unit: k.unit, Depth: k.depth, parties: make([]*partySnap, m)}
		s.pending[k] = ck
	}
	ck.parties[id] = snap
	for _, ps := range ck.parties {
		if ps == nil {
			return
		}
	}
	ck.dealer = s.dealer.State()
	s.latest = ck
	delete(s.pending, k)
}

// Latest returns the most recent fully committed checkpoint (nil if none).
func (s *CheckpointStore) Latest() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// ---------------------------------------------------------------------------
// Deep copies (snapshot AND restore copy, so one checkpoint survives any
// number of recovery attempts)

func cloneModel(m *Model) *Model {
	cp := *m
	cp.Nodes = append([]Node(nil), m.Nodes...)
	for i := range cp.Nodes {
		if fs := cp.Nodes[i].EncFeatSel; fs != nil {
			nf := make([][]*paillier.Ciphertext, len(fs))
			for j := range fs {
				nf[j] = append([]*paillier.Ciphertext(nil), fs[j]...)
			}
			cp.Nodes[i].EncFeatSel = nf
		}
	}
	return &cp
}

// cloneFrontier copies the frontier structs: nodeTotals writes a root's
// totals into the slice elements in place, so the elements must be copied;
// the totals, parent statistics and ciphertext slices are never mutated in
// place and stay shared.  A frontier at MaxDepth may hold nil [α] — only its
// totals count.
func cloneFrontier(frontier []frontierNode) []frontierNode {
	return append([]frontierNode(nil), frontier...)
}

func snapTasks(tasks []*treeTask) []*taskSnap {
	out := make([]*taskSnap, len(tasks))
	for i, t := range tasks {
		out[i] = &taskSnap{
			model:      cloneModel(t.model),
			capture:    t.capture,
			leafAlphas: append([][]*paillier.Ciphertext(nil), t.leafAlphas...),
		}
	}
	return out
}

func restoreTasks(snaps []*taskSnap) []*treeTask {
	out := make([]*treeTask, len(snaps))
	for i, s := range snaps {
		out[i] = &treeTask{
			model:      cloneModel(s.model),
			capture:    s.capture,
			leafAlphas: append([][]*paillier.Ciphertext(nil), s.leafAlphas...),
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Checkpoint hook (runs SPMD at every completed level barrier)

// checkpointing reports whether this party takes level checkpoints: a store
// must be wired and a driver must have armed its unit context (a lane has
// neither).  Only runLevels asks, so the per-node oracle never checkpoints.
func (p *Party) checkpointing() bool {
	return p.ck != nil && p.rctx != nil
}

// levelCheckpoint snapshots the party at a completed level barrier.  The
// dealer checkpoint runs first: its ack guarantees all previously requested
// material is in this engine's buffers (and thus inside Snapshot) before
// the dealer's PRG cursor is recorded.
func (p *Party) levelCheckpoint(tasks []*treeTask, frontier []frontierNode, depth int) error {
	if err := p.eng.DealerCheckpoint(); err != nil {
		return err
	}
	est, err := p.eng.Snapshot()
	if err != nil {
		return err
	}
	p.ck.commit(p.ID, p.M, &partySnap{
		eng:      est,
		depth:    depth,
		frontier: cloneFrontier(frontier),
		tasks:    snapTasks(tasks),
		outer:    p.rctx,
	})
	return nil
}

// runLevels drives trainLevel from depth until the frontier empties,
// checkpointing at each completed barrier and ticking the chaos level
// marker (checkpoint first, so an armed crash lands after the commit).
func (p *Party) runLevels(tasks []*treeTask, frontier []frontierNode, depth int) error {
	for ; len(frontier) > 0; depth++ {
		next, err := p.trainLevel(tasks, frontier, depth)
		if err != nil {
			return err
		}
		frontier = next
		if len(frontier) > 0 && p.checkpointing() {
			if err := p.levelCheckpoint(tasks, frontier, depth+1); err != nil {
				return err
			}
		}
		if p.onLevel != nil {
			p.onLevel()
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Resume drivers

// RecoveredModel is the output of Session.Resume: exactly one field is
// non-nil, matching the interrupted training kind.
type RecoveredModel struct {
	Kind   string
	DT     *Model
	Forest *ForestModel
	Boost  *BoostModel
}

// Resume re-enters the interrupted training from the checkpoint this
// session was constructed from (ResumeSession) and runs it to completion.
func (s *Session) Resume() (*RecoveredModel, error) {
	ck := s.resumeCk
	if ck == nil {
		return nil, fmt.Errorf("core: session was not built by ResumeSession")
	}
	out := make([]*RecoveredModel, s.M)
	err := s.Each(func(p *Party) error {
		res, err := p.resumeFrom(ck.parties[p.ID])
		if err == nil {
			out[p.ID] = res
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// resumeFrom restores this party's engine and re-enters the training loop
// at the snapshotted level barrier.
func (p *Party) resumeFrom(snap *partySnap) (*RecoveredModel, error) {
	defer p.gatherStats() // the normal train entry points are bypassed
	if err := p.eng.Restore(snap.eng); err != nil {
		return nil, err
	}
	p.rctx = snap.outer
	res := &RecoveredModel{Kind: snap.outer.kind.String()}
	var err error
	switch snap.outer.kind {
	case kindDT:
		res.DT, err = p.resumeDT(snap)
	case kindRF:
		res.Forest, err = p.resumeRF(snap)
	case kindGBDT:
		res.Boost, err = p.resumeGBDT(snap)
	}
	return res, err
}

// finishUnit completes the interrupted tree/round from the snapshot: the
// level loop re-enters at the saved depth (rootMask and the audit
// prologue are NOT re-run — the frontier already carries the masks).
func (p *Party) finishUnit(snap *partySnap) ([]*treeTask, error) {
	tasks := restoreTasks(snap.tasks)
	if err := p.runLevels(tasks, cloneFrontier(snap.frontier), snap.depth); err != nil {
		return nil, err
	}
	p.Stats.TreesTrained += len(tasks)
	return tasks, nil
}

func (p *Party) resumeDT(snap *partySnap) (*Model, error) {
	tasks, err := p.finishUnit(snap)
	if err != nil {
		return nil, err
	}
	return tasks[0].model, nil
}

func (p *Party) resumeRF(snap *partySnap) (*ForestModel, error) {
	o := snap.outer
	fm := &ForestModel{Classes: p.part.Classes, Trees: append([]*Model(nil), o.trees...)}
	tasks, err := p.finishUnit(snap)
	if err != nil {
		return nil, err
	}
	fm.Trees = append(fm.Trees, tasks[0].model)
	if err := p.rfTrees(fm, o.unit+1); err != nil {
		return nil, err
	}
	return fm, nil
}

// resumeGBDT hands the round the snapshot finishes to the boosting loop as
// already trained, on a copy of the boosting state at the round's start.
func (p *Party) resumeGBDT(snap *partySnap) (*BoostModel, error) {
	o := snap.outer
	b := o.boost.clone()
	tasks, err := p.finishUnit(snap)
	if err != nil {
		return nil, err
	}
	trees, las := boostRound(tasks)
	if err := p.boostRounds(b, o.unit, p.cfg.NumTrees, trees, las); err != nil {
		return nil, err
	}
	return b.bm, nil
}
