package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	pivot "repro"
)

// system is one set-up: inputs, the aligned federation, and the serving
// stack with its two dialled connections.
type system struct {
	w     workload
	cfg   pivot.Config
	in    *inputs
	fed   *pivot.Federation
	stack *servingStack
	clis  []*pivot.ServeClient
}

// setUp is what setup_s times: dataset generation and vertical partition,
// PSI alignment of the clients' shuffled rows, federation bring-up (keygen,
// mesh, dealer, pool), then the service, the wire server and the dials.
func setUp(w workload, seed int64) (*system, error) {
	s := &system{w: w, cfg: w.config(seed)}
	var err error
	if s.in, err = w.generate(seed); err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	var common []string
	s.fed, common, err = pivot.NewAlignedFederation(s.in.parts, s.in.ids, pivot.TestPSIGroup(), s.cfg)
	if err != nil {
		return nil, fmt.Errorf("aligned federation: %w", err)
	}
	if len(common) != w.N {
		s.fed.Close()
		return nil, fmt.Errorf("alignment kept %d of %d rows", len(common), w.N)
	}
	if s.stack, err = startServing(s.fed, serveWindow); err != nil {
		s.fed.Close()
		return nil, fmt.Errorf("start serving: %w", err)
	}
	for i := 0; i < connections; i++ {
		cli, err := pivot.Dial(s.stack.addr())
		if err != nil {
			s.tearDown()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.clis = append(s.clis, cli)
	}
	return s, nil
}

// tearDown closes the connections, drains the server and closes the
// session behind it.
func (s *system) tearDown() {
	for _, cli := range s.clis {
		cli.Close()
	}
	if s.stack != nil {
		s.stack.stop()
	}
	s.fed.Close()
}

// aligned verifies the set-up's output: after PSI the super client's labels
// are the training labels in sorted-id order.
func (s *system) aligned() bool {
	y := s.fed.Parts()[0].Y
	if len(y) != len(s.in.train.Y) {
		return false
	}
	for i := range y {
		if y[i] != s.in.train.Y[i] {
			return false
		}
	}
	return true
}

// trainRep is one repetition of {Federation.Train, a few batched
// predictions of the held-out rows}.
type trainRep struct {
	model       pivot.Predictor
	digest      string
	trainStart  time.Time
	trainS      float64
	trainCPU    float64        // CPU seconds of the process during the train
	stats       pivot.RunStats // what this train added to Federation.Stats()
	predictS    []float64      // wall of each batched prediction
	predictFrom []time.Time    // when each began
	predictCPU  []float64      // CPU seconds of the process during each
	predictions []float64      // of the first batch; the others must equal it
	repeatable  bool
	rounds      int64 // MPC rounds of one held-out batch
}

func (s *system) trainOnce() (trainRep, error) {
	r, err := s.train()
	if err != nil {
		return r, err
	}
	return r, s.predictHeld(&r)
}

// train is one Federation.Train with the counters it added.
func (s *system) train() (trainRep, error) {
	var r trainRep
	before := s.fed.Stats()
	cpu, start := cpuSeconds(), time.Now()
	mdl, err := s.fed.Train(pivot.TrainSpec{Model: s.w.Kind})
	if err != nil {
		return r, fmt.Errorf("train: %w", err)
	}
	r.trainStart, r.trainS, r.trainCPU = start, time.Since(start).Seconds(), cpuSeconds()-cpu
	r.stats = statsSince(before, s.fed.Stats())
	r.model = mdl
	r.digest, err = modelDigest(mdl)
	return r, err
}

// predictHeld runs the batched core.PredictSamples of the held-out rows
// minPredicts to maxPredicts times, for as long as predictBudget lasts.
func (s *system) predictHeld(r *trainRep) error {
	X := byClient(s.fed.Parts(), s.in.held.X)
	r.repeatable = true
	begin := time.Now()
	for k := 0; k < minPredicts || (k < maxPredicts && time.Since(begin) < predictBudget); k++ {
		cpu, start := cpuSeconds(), time.Now()
		preds, rounds, err := predictBatch(s.fed, r.model, X)
		if err != nil {
			return fmt.Errorf("predict held-out rows: %w", err)
		}
		r.predictS = append(r.predictS, time.Since(start).Seconds())
		r.predictFrom = append(r.predictFrom, start)
		r.predictCPU = append(r.predictCPU, cpuSeconds()-cpu)
		if k == 0 {
			r.predictions, r.rounds = preds, rounds
			continue
		}
		for i := range preds {
			r.repeatable = r.repeatable && agrees(r.model, preds[i], r.predictions[i])
		}
	}
	return nil
}

// statsSince subtracts the counters the benchmark reports; InFlightPeak is
// a high-water mark and passes through.
func statsSince(a, b pivot.RunStats) pivot.RunStats {
	d := b
	d.Phases.LocalComputation -= a.Phases.LocalComputation
	d.Phases.Conversion -= a.Phases.Conversion
	d.Phases.MPCComputation -= a.Phases.MPCComputation
	d.Phases.ModelUpdate -= a.Phases.ModelUpdate
	d.Phases.LocalComputationWire -= a.Phases.LocalComputationWire
	d.Phases.ConversionWire -= a.Phases.ConversionWire
	d.Phases.MPCComputationWire -= a.Phases.MPCComputationWire
	d.Phases.ModelUpdateWire -= a.Phases.ModelUpdateWire
	d.Encryptions -= a.Encryptions
	d.DecShares -= a.DecShares
	d.HEOps -= a.HEOps
	d.BytesSent -= a.BytesSent
	d.MessagesSent -= a.MessagesSent
	d.NodesTrained -= a.NodesTrained
	d.UpdateRounds -= a.UpdateRounds
	d.MPC.Mults -= a.MPC.Mults
	d.MPC.Opens -= a.MPC.Opens
	d.MPC.OpenValues -= a.MPC.OpenValues
	d.MPC.Rounds -= a.MPC.Rounds
	d.MPC.Comparisons -= a.MPC.Comparisons
	d.MPC.Divisions -= a.MPC.Divisions
	d.MPC.DealerReqs -= a.MPC.DealerReqs
	return d
}

// trainStage repeats trainOnce until its share of the run is used, at
// least twice, and does not start a repetition that would overrun the
// share by more than a tenth.
func (s *system) trainStage(budget time.Duration) ([]trainRep, error) {
	var reps []trainRep
	start := time.Now()
	for {
		repStart := time.Now()
		r, err := s.trainOnce()
		if err != nil {
			return reps, err
		}
		reps = append(reps, r)
		if len(reps) >= 2 && time.Since(start)+time.Since(repStart) > budget+budget/10 {
			return reps, nil
		}
	}
}

// ---------------------------------------------------------------------------
// serving

// reply is one answered request, kept so it can be checked against the
// plaintext walk of the model version that served it.
type reply struct {
	phase   int
	model   string
	row     int
	version int
	value   float64
}

// caller is one connection and the requests it draws.
type caller struct {
	cli       *pivot.ServeClient
	rng       *rand.Rand
	phase     int
	replies   []reply
	seen      map[string]int // highest version seen per model
	regressed bool           // a version went backwards
}

// traffic is the request mix: rows drawn from the quality pool, the model
// by ForestShare.
type traffic struct {
	main        string
	forestShare float64
	pool        [][]float64
}

const forestName = "rf"

func (c *caller) request(t *traffic) bool {
	name := t.main
	if t.forestShare > 0 && c.rng.Float64() < t.forestShare {
		name = forestName
	}
	row := c.rng.IntN(len(t.pool))
	preds, version, err := c.cli.PredictVersioned(name, [][]float64{t.pool[row]}, 0)
	if err != nil || len(preds) != 1 {
		return false
	}
	if version < c.seen[name] {
		c.regressed = true
	}
	c.seen[name] = version
	c.replies = append(c.replies, reply{c.phase, name, row, version, preds[0]})
	return true
}

// serveDurations are the three phases' shares of the run and the fewest
// requests the read and open phases send whatever the time.
type serveDurations struct {
	read, open, rw   time.Duration
	minRead, minOpen int
}

const (
	phaseRead = iota
	phaseOpen
	phaseRW
	servePhases
)

var servePhaseNames = [servePhases]string{"serve.read", "serve.open", "serve.rw"}

// serveOutcome is what the serving stage measured.
type serveOutcome struct {
	load     [servePhases]loadResult
	began    [servePhases]time.Time
	wall     [servePhases]time.Duration
	cpu      [servePhases]float64           // CPU seconds of the process during the phase
	counters [servePhases + 1]serveCounters // before read, after each phase
	wrong    [servePhases]int               // replies that differ from the plaintext walk

	updateS      []float64
	updateFrom   []time.Time
	updateFailed int
	installed    int // updates the registry installed

	versionsOK bool // monotonic per connection, main model ends at 1 + installed
	refused    int64
}

// Requests a phase needs for its reported percentile: p95 with ten samples
// beyond it needs 200, p90 needs 100 and gets a few in hand.
const (
	minReadRequests = 200
	minOpenRequests = 120
)

// serveStage registers the models and runs the three phases on the two
// connections:
//
//	read: closed loop — callers are the super client's own back-ends, each
//	      waiting for its reply before it asks again;
//	open: the same connections on a fixed schedule that keeps the service
//	      about a third busy, timed from when each request was due;
//	rw:   connection 0 keeps reading while connection 1 alternates one
//	      Update of updateRows appended rows with PredictsPerUpdate reads.
func (s *system) serveStage(models map[string]pivot.Predictor, seed int64, d serveDurations) (*serveOutcome, error) {
	type modelVersion struct {
		name    string
		version int
	}
	served := make(map[modelVersion]pivot.Predictor)
	for name, mdl := range models {
		if err := s.stack.register(name, mdl); err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
		served[modelVersion{name, 1}] = mdl
	}
	t := &traffic{main: string(s.w.Kind), pool: s.in.qual.X}
	if _, ok := models[forestName]; ok {
		t.forestShare = s.w.ForestShare
	}
	callers := make([]*caller, connections)
	for i := range callers {
		callers[i] = &caller{
			cli:  s.clis[i],
			rng:  rand.New(rand.NewPCG(uint64(seed), uint64(0xca11e4+i))),
			seen: make(map[string]int),
		}
	}
	out := &serveOutcome{}
	clk := wallClock{}
	// both runs fn on every connection at once and merges what they saw.
	both := func(phase int, fn func(i int, c *caller) loadResult) {
		var wg sync.WaitGroup
		results := make([]loadResult, connections)
		cpu, start := cpuSeconds(), time.Now()
		for i, c := range callers {
			c.phase = phase
			wg.Add(1)
			go func(i int, c *caller) {
				defer wg.Done()
				results[i] = fn(i, c)
			}(i, c)
		}
		wg.Wait()
		out.began[phase], out.wall[phase], out.cpu[phase] = start, time.Since(start), cpuSeconds()-cpu
		for _, r := range results {
			out.load[phase].merge(r)
		}
		out.counters[phase+1] = s.stack.counters()
	}

	out.counters[0] = s.stack.counters()
	both(phaseRead, func(_ int, c *caller) loadResult {
		return closedLoop(clk, time.Now().Add(d.read), d.minRead/connections, nil, func() bool { return c.request(t) })
	})

	interval := time.Duration(float64(time.Second) / s.w.OpenRate)
	perConn := int(d.open / interval)
	if perConn < d.minOpen/connections {
		perConn = d.minOpen / connections
	}
	both(phaseOpen, func(i int, c *caller) loadResult {
		// The second connection's schedule sits half an interval behind
		// the first, so arrivals are evenly spaced.
		start := time.Now().Add(time.Duration(i) * interval / connections)
		return openLoop(clk, start, interval, perConn, func() bool { return c.request(t) })
	})

	stop := make(chan struct{})
	nextRow := 0
	both(phaseRW, func(i int, c *caller) loadResult {
		if i == 0 {
			return closedLoop(clk, time.Now().Add(time.Hour), 0, stop, func() bool { return c.request(t) })
		}
		defer close(stop)
		var r loadResult
		deadline := time.Now().Add(d.rw)
		for (len(out.updateS) < 2 || time.Now().Before(deadline)) && nextRow+updateRows <= len(s.in.upd.X) {
			rows, labels := s.in.upd.X[nextRow:nextRow+updateRows], s.in.upd.Y[nextRow:nextRow+updateRows]
			nextRow += updateRows
			start := time.Now()
			version, err := c.cli.Update(t.main, rows, labels, 1)
			if err != nil {
				out.updateFailed++
				continue
			}
			out.updateS = append(out.updateS, time.Since(start).Seconds())
			out.updateFrom = append(out.updateFrom, start)
			out.installed++
			if mdl, v, err := s.stack.current(t.main); err == nil && v == version {
				served[modelVersion{t.main, v}] = mdl
			}
			r.merge(closedLoop(clk, time.Now(), s.w.PredictsPerUpdate, nil, func() bool { return c.request(t) }))
		}
		return r
	})

	// Check every reply against the plaintext walk of the version that
	// answered it.
	expected := make(map[modelVersion][]float64)
	out.versionsOK = true
	for _, c := range callers {
		if c.regressed {
			out.versionsOK = false
		}
		for _, rp := range c.replies {
			mv := modelVersion{rp.model, rp.version}
			mdl, ok := served[mv]
			if !ok {
				out.wrong[rp.phase]++
				continue
			}
			want, ok := expected[mv]
			if !ok {
				var err error
				if want, err = plainAll(mdl, s.fed.Parts(), t.pool); err != nil {
					return nil, err
				}
				expected[mv] = want
			}
			if !agrees(mdl, rp.value, want[rp.row]) {
				out.wrong[rp.phase]++
			}
		}
	}
	if _, v, err := s.stack.current(t.main); err != nil || v != 1+out.installed {
		out.versionsOK = false
	}
	last := out.counters[servePhases]
	out.refused = (last.Rejected - out.counters[0].Rejected) + (last.Expired - out.counters[0].Expired)
	return out, nil
}
