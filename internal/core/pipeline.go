package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/paillier"
)

// Pipelined level execution: overlap purely-local Paillier work and
// independent round chains with in-flight MPC rounds, instead of letting
// every party idle while level d's openings are on the wire.
//
// Three overlaps are implemented, all run wherever Config.pipelineActive
// holds and all bit-identical to the barrier driver (masks and Beaver
// triples cancel, so reordering independent work never changes a decrypted
// or opened value):
//
//  1. Speculative gammas: at the super client, the next phase's masked
//     label channels of every frontier node that may be trained directly
//     (all but the right children a sibling may derive) are computed in a
//     background goroutine while the pruning conversion and comparison
//     rounds are in flight; once the surviving splitters are known, only
//     their slices are broadcast — the same bytes the barrier path sends.
//  2. Leaf/update overlap: the frontier's leaf chain (grouped argmax or
//     reciprocal chain + opening) runs on a forked engine over its own transport
//     lane, concurrently with the winner-identifier opening and the
//     batched model-update chain on the main lane.  The winner opening is
//     itself issued before the leaf fork and awaited after (issue/await).
//  3. Random-forest tree lanes: independent bootstrap trees train
//     concurrently, one round chain per lane, instead of strictly
//     sequentially (TrainRF's loop), except under a checkpoint store.
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

// lane forks this party onto lane slot (1..63): same identity, data and
// keys, but messaging through its own transport lane and a forked engine,
// with fresh counters.  A lane whose chain succeeds retires its engine
// (mpc.Engine.Retire) before its goroutine ends, and the caller must join()
// the lane after that goroutine.  Party protocol methods route all
// messaging through p.ep/p.eng, so the fork can run any whole chain — up to
// a full tree — concurrently with the parent.  Only the parent checkpoints
// and ticks the chaos level marker.
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
	lp.leafAlphas = nil
	return &lp
}

// join folds a retired fork's counters back into the parent.  Wall is
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

// ---------------------------------------------------------------------------
// Speculative gamma computation (overlap 1)

// gammaSpec is an in-flight speculative gamma pass: the super client's
// masked label channels for the nodes it was started on, computing while
// the pruning rounds are on the wire.
type gammaSpec struct {
	ch chan gammaSpecResult
	lp *Party
}

type gammaSpecResult struct {
	masked []*paillier.Ciphertext
	err    error
}

// startGammaSpec launches the speculative pass.  Caller guarantees: super
// client, plaintext-label mode (nd.gch == nil), at least one split
// candidate.  The pass is pure local compute on a forkLocal clone, so it
// races nothing.
func (p *Party) startGammaSpec(frontier []frontierNode) *gammaSpec {
	nodes := append([]frontierNode(nil), frontier...)
	gs := &gammaSpec{ch: make(chan gammaSpecResult, 1), lp: p.forkLocal()}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				gs.ch <- gammaSpecResult{err: fmt.Errorf("speculative gammas: %v", r)}
			}
		}()
		masked, err := gs.lp.gammaMaskedSuper(nodes)
		gs.ch <- gammaSpecResult{masked: masked, err: err}
	}()
	return gs
}

// wait blocks for the pass and folds the fork's compute counters back in.
// The returned slice holds the nodes' masked channels in the order they
// were given — slice out the splitters before broadcasting.
func (gs *gammaSpec) wait(p *Party) ([]*paillier.Ciphertext, error) {
	res := <-gs.ch
	p.join(gs.lp)
	return res.masked, res.err
}

// ---------------------------------------------------------------------------
// Random-forest tree lanes (overlap 3)

// trainRFPipelined trains the forest's trees on concurrent lanes: up to
// maxRFLanes slot lanes each train a deterministic round-robin subset
// (tree w on slot w mod slots), so every party assigns identical trees to
// identical lanes with no coordination.  Trees land in fm.Trees in tree
// order; counters merge deterministically in slot order.
func (p *Party) trainRFPipelined() (*ForestModel, error) {
	W := p.cfg.NumTrees
	slots := W
	if slots > maxRFLanes {
		slots = maxRFLanes
	}
	start := time.Now()
	defer func() {
		p.Stats.Wall += time.Since(start)
		p.gatherStats()
	}()
	lanes := make([]*Party, slots)
	for s := range lanes {
		lanes[s] = p.lane(uint32(s + 1))
	}
	trees := make([]*Model, W)
	errs := make([]error, slots)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[s] = fmt.Errorf("rf lane %d: %v", s, r)
				}
			}()
			for w := s; w < W; w += slots {
				counts := bootstrapCounts(p.part.N, p.cfg.Subsample, uint64(p.cfg.Seed)+uint64(w))
				tree, err := lanes[s].trainTree(counts, nil, nil)
				if err != nil {
					errs[s] = err
					return
				}
				trees[w] = tree
			}
			lanes[s].eng.Retire()
		}(s)
	}
	wg.Wait()
	var firstErr error
	for s := range lanes {
		p.join(lanes[s])
		if errs[s] != nil && firstErr == nil {
			firstErr = errs[s]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &ForestModel{Classes: p.part.Classes, Trees: trees}, nil
}
