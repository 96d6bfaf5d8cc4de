package core

import "fmt"

// Pipelined level execution: overlap purely-local Paillier work and
// independent round chains with in-flight MPC rounds, instead of letting
// every party idle while level d's openings are on the wire.
//
// There is one training driver.  Each overlap is a chain handed to fork:
// on a party that pipelines (Config.pipelineActive and a tag-multiplexed
// session) it runs on its own lane in a goroutine while the caller goes on;
// everywhere else it runs inline, in the barrier order that is the
// equivalence oracle.  Both orders are bit-identical (masks and Beaver
// triples cancel, so reordering independent work never changes a decrypted
// or opened value):
//
//  1. Speculative gammas: at the super client, the masked label channels of
//     the whole frontier are computed in the background (spawn, on a
//     forkLocal clone) while the pruning conversion and comparison rounds
//     are in flight; only the direct splitters' slices are broadcast — the
//     same bytes the barrier path sends.
//  2. Leaf/update overlap: trainLevel forks the frontier's leaf chain
//     (grouped argmax or reciprocal chain + opening) on lane 1, then opens
//     the winners and runs the batched model-update chain on the main lane.
//  3. Random-forest tree lanes: rfTrees forks up to maxRFLanes lanes, each
//     training a round-robin share of the trees, except under a checkpoint
//     store.
//
// Lanes are SPMD like everything else: every party derives the same lane
// tag at the same fork point (parent*64+slot), so the tag-multiplexed
// endpoints pair lanes up across parties deterministically.

// maxRFLanes caps concurrent random-forest tree lanes: each lane forks an
// engine with its own dealer-material queues, every one of them topped up
// toward its largest take (up to mpc's prefetch cap of two batches), so
// unbounded fan-out would waste dealer traffic and memory for little extra
// overlap.
const maxRFLanes = 8

// pipelined reports whether this party runs the overlapped driver: the
// config must allow it AND the session must have wired tag-multiplexed
// endpoints (a Party constructed over a bare endpoint — pivot-party's
// distributed mesh, say — falls back to the barrier path gracefully).  The
// per-node oracle stays barrier-ordered on every transport.
func (p *Party) pipelined() bool {
	return p.mux != nil && !p.perNode && p.cfg.pipelineActive()
}

// fork runs fn as a chain that may overlap the caller's next work.  When
// the party pipelines and overlap says there is such work, fn runs on lane
// slot in its own goroutine, its engine retired once it succeeds, and wait
// joins the lane.  Otherwise fn runs inline on p itself — the barrier order
// — and its error comes back at once, so the caller stops where the
// barrier driver does; wait then has nothing to join.
func (p *Party) fork(slot uint32, overlap bool, fn func(*Party) error) (wait func() error, err error) {
	if !overlap || !p.pipelined() {
		return func() error { return nil }, fn(p)
	}
	lp := p.lane(slot)
	return p.spawn(lp, func() error {
		err := fn(lp)
		if err == nil {
			lp.eng.Retire()
		}
		return err
	}), nil
}

// spawn runs fn in a goroutine on the fork lp, turning a panic into an
// error; wait blocks for it and joins lp's counters into p.
func (p *Party) spawn(lp *Party, fn func() error) (wait func() error) {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("lane %d: %v", lp.laneTag, r)
			}
		}()
		done <- fn()
	}()
	return func() error {
		err := <-done
		p.join(lp)
		return err
	}
}

// lane forks this party onto lane slot (1..63): same identity, data and
// keys, but messaging through its own transport lane and a forked engine,
// with fresh counters.  Party protocol methods route all messaging through
// p.ep/p.eng, so the fork can run any whole chain — up to a full tree —
// concurrently with the parent.  Only the parent checkpoints and ticks the
// chaos level marker.
func (p *Party) lane(slot uint32) *Party {
	tag := p.laneTag*64 + slot
	lp := p.forkLocal()
	lp.ep = p.mux.Lane(tag)
	lp.eng = p.eng.Fork(lp.ep, tag)
	lp.laneTag = tag
	lp.ck, lp.rctx, lp.onLevel = nil, nil, nil
	return lp
}

// forkLocal clones the party for communication-free background work (the
// speculative gamma pass): shared endpoint and engine pointers are kept
// but MUST NOT be used by the fork; only the fresh Stats matter, so the
// parent's counters are never written from two goroutines.
func (p *Party) forkLocal() *Party {
	lp := *p
	lp.Stats = RunStats{}
	return &lp
}

// join folds a finished fork's counters back into the parent.  Wall is
// deliberately skipped (the parent times the whole overlapped section) and
// so are the traffic totals (lanes share the endpoint's counters — they
// are already counted once).
func (p *Party) join(lp *Party) {
	p.Stats.Phases.Add(lp.Stats.Phases)
	p.Stats.Encryptions += lp.Stats.Encryptions
	p.Stats.DecShares += lp.Stats.DecShares
	p.Stats.HEOps += lp.Stats.HEOps
	p.Stats.TreesTrained += lp.Stats.TreesTrained
	p.Stats.NodesTrained += lp.Stats.NodesTrained
	p.Stats.NodesDerived += lp.Stats.NodesDerived
	p.Stats.UpdateRounds += lp.Stats.UpdateRounds
	if lp.eng != p.eng {
		p.eng.MergeStats(lp.eng)
	}
}
