package mpc

import (
	"fmt"
	"sync/atomic"

	"repro/internal/transport"
)

// Pipelined execution support: the level-wise drivers overlap independent
// round chains by running each on its own engine "lane" (Fork) over a
// tag-multiplexed transport lane.

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
// gauge, but has its own dealer-material buffers and statistics, so it may run a round chain concurrently with the parent —
// provided ep is a lane of a tag-multiplexed endpoint, so the two chains
// cannot cross-deliver.  No dealer hello is performed: the MAC key share
// is inherited.  When the lane's chain is done, Retire the child and merge
// its counters back with MergeStats.
func (e *Engine) Fork(ep transport.Endpoint, lane uint32) *Engine {
	return &Engine{
		ep:         ep,
		id:         e.id,
		n:          e.n,
		dealer:     e.dealer,
		cfg:        e.cfg,
		alphaShare: e.alphaShare,
		local:      newPRG([]byte(fmt.Sprintf("pivot-party-%d-%d-lane-%d", e.id, e.cfg.Seed, lane))),
		material:   newMaterial(e.cfg.BatchSize),
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
