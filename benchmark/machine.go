package main

import (
	"math/big"
	"sort"
	"time"
)

// The box this benchmark is sized for is a few cores of a shared host, and
// its speed has two states: a fixed burst of big-integer arithmetic takes
// 1.5 to 1.7 times as long while a neighbour is busy as while it is not, the
// states alternate every second or so, and the share of a half minute spent
// in the slow one drifts between nothing and nearly all of it.  A wall-clock
// timing therefore says as much about the neighbour as about the program:
// the median train of unchanged code moved by 30% from one run to the next,
// on the loopback-TCP workload with its simulated delay too.
//
// machine is the benchmark's answer.  It samples the machine's speed all
// through the run — the same burst every few milliseconds, each one timed —
// and converts a wall-clock interval into the time the same work takes on a
// machine that runs referenceSpeed bursts a second all the time:
//
//	steady = wall × (1 − busy × (1 − mean sampled speed during the interval ÷ referenceSpeed))
//
// busy is the process's CPU seconds per second of the interval, at most 1:
// with a core at work all the time (every in-memory workload keeps both at
// work) the whole interval is taken to stretch with the machine, while the
// part of it nobody computes in — a simulated wire delay, the batching
// window — does not.  Without it the serving latencies of the loopback-TCP
// workload, which are mostly delay and hold still to 0.04 on the wall clock,
// came out at 0.11 to 0.15.
//
// referenceSpeed is the fast state of the box this was sized on (as first
// seen: over a day it read 7400 to 9300), so on that box a steady time is
// about what the wall clock would have read without the neighbour.  It is a constant, not the run's own fastest speed, because in
// a run that hardly sees the fast state any percentile of the sampled speeds
// moves by 10% and takes every timing with it.  Over ten runs of each
// workload, with wall-clock spreads of train_s between 0.08 and 0.20, the
// steady train_s had a quartile spread of 0.07 on all four.  The end-to-end
// timings are steady times; every wall-clock value stays in the record as
// <metric>_wall, with the run's mean speed and its fast speed (the 98th
// percentile) as machine.*.  A nil *machine converts nothing: the traced
// run reports wall-clock time.
type machine struct {
	t0   time.Time
	stop chan struct{}
	done chan struct{}

	// Written by the sampling goroutine, read after finish.
	at    []int64   // ns since t0 at which a burst ended
	speed []float64 // bursts per second that burst ran at

	cum []float64 // cum[i] = speed[0] + … + speed[i-1]
}

const (
	burstPeriod = 4 * time.Millisecond
	burstMuls   = 256 // 2048-bit multiplications per burst, about 0.2 ms
	// referenceSpeed is what the box this was sized on (2 vCPUs of an Intel
	// Xeon at 2.1 GHz under Firecracker, go1.24) samples in its fast state.
	referenceSpeed = 7400.0
	smoothing      = 100 * time.Millisecond
)

func startMachine() *machine {
	m := &machine{t0: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *machine) run() {
	defer close(m.done)
	// The operands stay below math/big's Karatsuba threshold and z keeps its
	// capacity, so a burst allocates nothing and never assists the collector.
	x := new(big.Int).Lsh(big.NewInt(1), 2047)
	x.Sub(x, big.NewInt(0x5eed))
	y := new(big.Int).Rsh(x, 1)
	z := new(big.Int).Mul(x, y)
	tick := time.NewTicker(burstPeriod)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		for i := 0; i < burstMuls; i++ {
			z.Mul(x, y)
		}
		end := time.Now()
		m.at = append(m.at, int64(end.Sub(m.t0)))
		m.speed = append(m.speed, 1/end.Sub(start).Seconds())
	}
}

// finish stops the sampling; the conversions below are valid after it.
// A second call does nothing.
func (m *machine) finish() {
	if m.cum != nil {
		return
	}
	close(m.stop)
	<-m.done
	m.index()
}

// index prepares the samples for the conversions.
func (m *machine) index() {
	m.cum = make([]float64, len(m.speed)+1)
	for i, s := range m.speed {
		m.cum[i+1] = m.cum[i] + s
	}
}

// relativeSpeed is the machine's mean speed over [start, end] as a share of
// referenceSpeed.  An interval shorter than smoothing is widened to it about
// its middle: the machine's states last far longer, and one burst is too
// noisy a reading to convert a request of a few milliseconds with.
func (m *machine) relativeSpeed(start, end time.Time) float64 {
	if len(m.at) == 0 {
		return 1
	}
	a, b := int64(start.Sub(m.t0)), int64(end.Sub(m.t0))
	if short := int64(smoothing) - (b - a); short > 0 {
		a, b = a-short/2, b+short/2
	}
	i := sort.Search(len(m.at), func(k int) bool { return m.at[k] >= a })
	j := sort.Search(len(m.at), func(k int) bool { return m.at[k] > b })
	if j == i { // no burst ended inside: take the nearest
		i, j = max(0, i-1), min(len(m.at), i+1)
	}
	return (m.cum[j] - m.cum[i]) / float64(j-i) / referenceSpeed
}

// steady converts wall seconds that began at start, with the process on a
// core for the share busy of them, into seconds of the reference machine.
func (m *machine) steady(start time.Time, wall, busy float64) float64 {
	if m == nil {
		return wall
	}
	end := start.Add(time.Duration(wall * float64(time.Second)))
	return wall * (1 - busy*(1-m.relativeSpeed(start, end)))
}

// busyShare is the process's CPU seconds per second of an interval, at most 1.
func busyShare(cpu, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return min(1, max(0, cpu/wall))
}
