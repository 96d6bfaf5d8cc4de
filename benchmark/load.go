package main

import (
	"time"
)

// clock lets the open-loop scheduler be tested without waiting.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// maxLate is how long after its due time a request may still be sent; one
// that misses it counts as failed.
const maxLate = time.Second

// loadResult is what one connection saw in one phase.
type loadResult struct {
	latencyMs []float64   // completed requests
	from      []time.Time // when each of those latencies began: sent, or due in the open loop
	lateMs    []float64   // open loop: how late the generator sent each request
	attempted int
	failed    int
}

func (r *loadResult) merge(o loadResult) {
	r.latencyMs = append(r.latencyMs, o.latencyMs...)
	r.from = append(r.from, o.from...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.attempted += o.attempted
	r.failed += o.failed
}

// closedLoop sends the next request as soon as the previous one completed,
// until the deadline has passed and at least minRequests were sent, or stop
// is closed.
func closedLoop(clk clock, deadline time.Time, minRequests int, stop <-chan struct{}, do func() bool) loadResult {
	var r loadResult
	for {
		select {
		case <-stop:
			return r
		default:
		}
		if r.attempted >= minRequests && !clk.Now().Before(deadline) {
			return r
		}
		start := clk.Now()
		ok := do()
		r.attempted++
		if ok {
			r.latencyMs = append(r.latencyMs, ms(clk.Now().Sub(start)))
			r.from = append(r.from, start)
		} else {
			r.failed++
		}
	}
}

// openLoop sends n requests on a fixed schedule: request i is due at
// start + i·interval whatever happened to the ones before it.  The
// connection carries one request at a time, so a request whose predecessor
// is still in flight goes out late; its latency still counts from when it
// was due, which is the wait a stall imposes on the requests behind it.
// A request more than maxLate behind its due time is not sent and fails.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, do func() bool) loadResult {
	var r loadResult
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		late := sent.Sub(due)
		r.attempted++
		if late > maxLate {
			r.failed++
			continue
		}
		r.lateMs = append(r.lateMs, ms(late))
		if do() {
			r.latencyMs = append(r.latencyMs, ms(clk.Now().Sub(due)))
			r.from = append(r.from, due)
		} else {
			r.failed++
		}
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
