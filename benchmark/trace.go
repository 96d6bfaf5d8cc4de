package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the layer.  Times are nanoseconds since the tracer
// started; Parent is the span that caused this one (0 = none); spans of one
// repetition share Run.
type span struct {
	ID     int64
	Name   string
	Layer  string
	Start  int64
	End    int64
	Parent int64
	Run    int
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newID reserves an id, so a parent can hand it to its children before its
// own span is complete.
func (t *tracer) newID() int64 { return t.next.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// leaf records a finished span without children.
func (t *tracer) leaf(name, layer string, parent int64, run int, start, end int64) {
	t.add(span{ID: t.newID(), Name: name, Layer: layer, Start: start, End: end, Parent: parent, Run: run})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"layer":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"run":%d}`+"\n",
			s.ID, s.Name, s.Layer, s.Start, s.End, s.Parent, s.Run)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// covered is the length of the union of the children's intervals, clipped
// to [start, end): overlapping children (concurrent lanes on one endpoint)
// are counted once.
func covered(start, end int64, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	edge := start // everything left of edge is already counted
	for _, v := range ivs {
		if v.lo > edge {
			edge = v.lo
		}
		if v.hi > edge {
			total += v.hi - edge
			edge = v.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	return (s.End - s.Start) - covered(s.Start, s.End, children)
}

// selfByLayer sums every span's self time into its layer, for the spans of
// one run (run < 0 selects all).
func selfByLayer(spans []span, run int) map[string]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		if run >= 0 && s.Run != run {
			continue
		}
		out[s.Layer] += selfTime(s, children[s.ID])
	}
	return out
}
