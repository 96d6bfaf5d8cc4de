package main

// adapter.go is the only file of the benchmark that imports
// repro/internal/...: one small function per layer boundary, so a later
// API change touches one place.  Everything else uses these functions and
// the root pivot package.

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pivot "repro"
	"repro/internal/core"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/psi"
	"repro/internal/serve"
	"repro/internal/transport"
	"repro/internal/tree"
)

// ---------------------------------------------------------------------------
// core: batched prediction and model persistence

// predictBatch is one batched prediction of out-of-training samples
// (X[c][t] is client c's columns of sample t) and the MPC rounds it took.
func predictBatch(fed *pivot.Federation, mdl pivot.Predictor, X [][][]float64) ([]float64, int64, error) {
	return core.PredictSamples(fed.Session(), mdl, X)
}

// modelDigest is the sha256 of the model as core.SavePredictor writes it.
func modelDigest(mdl pivot.Predictor) (string, error) {
	var buf bytes.Buffer
	if err := core.SavePredictor(&buf, mdl); err != nil {
		return "", fmt.Errorf("save predictor: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// ---------------------------------------------------------------------------
// tree: the non-private baseline at the same hyper-parameters

func nonPrivatePredict(kind pivot.ModelKind, train *pivot.Dataset, cfg pivot.Config, X [][]float64) ([]float64, error) {
	h := tree.Hyper{MaxDepth: cfg.Tree.MaxDepth, MaxSplits: cfg.Tree.MaxSplits, MinSamplesSplit: cfg.Tree.MinSamplesSplit}
	switch kind {
	case pivot.KindDT:
		t, err := tree.Fit(train, h)
		if err != nil {
			return nil, err
		}
		return t.PredictBatch(X), nil
	case pivot.KindGBDT:
		g, err := tree.FitGBDT(train, tree.EnsembleHyper{Hyper: h, NumTrees: cfg.NumTrees, LearningRate: cfg.LearningRate})
		if err != nil {
			return nil, err
		}
		return g.PredictBatch(X), nil
	}
	return nil, fmt.Errorf("no non-private baseline for model kind %q", kind)
}

// ---------------------------------------------------------------------------
// psi: the alignment alone, as NewAlignedFederation runs it

func psiAlign(ids [][]string) error {
	_, _, err := psi.AlignAll(psi.TestGroup(), ids)
	return err
}

// ---------------------------------------------------------------------------
// serve: a Service over the federation's session behind a wire server

type servingStack struct {
	svc  *serve.Service
	srv  *serve.Server
	done chan error
}

// startServing brings up serve.New + serve.NewServer on a free loopback
// port.  The service takes ownership of the federation's session.
func startServing(fed *pivot.Federation, window time.Duration) (*servingStack, error) {
	svc, err := serve.New(fed.Session(), fed.Parts(), serve.Config{Window: window})
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(svc, "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &servingStack{svc: svc, srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve() }()
	return s, nil
}

func (s *servingStack) addr() string { return s.srv.Addr() }

func (s *servingStack) register(name string, mdl pivot.Predictor) error {
	_, err := s.svc.Register(name, mdl)
	return err
}

// current returns the model now registered under name and its version.
func (s *servingStack) current(name string) (pivot.Predictor, int, error) {
	e, err := s.svc.Lookup(name)
	if err != nil {
		return nil, 0, err
	}
	return e.Model, e.Version, nil
}

// predictLocal serves one sample in process: queue, window and round chain
// but no wire.
func (s *servingStack) predictLocal(name string, row []float64) (float64, error) {
	return s.svc.Predict(name, row)
}

// serveCounters are the Service.Stats() counters the benchmark reads.
type serveCounters struct {
	Rejected, Expired, Batches, Coalesced, Rounds int64
	MaxBatch                                      int
}

func (s *servingStack) counters() serveCounters {
	rs := s.svc.Stats()
	sv := rs.Serve
	return serveCounters{
		Rejected: sv.Rejected, Expired: sv.Expired,
		Batches: sv.Batches, Coalesced: sv.Coalesced,
		Rounds: rs.MPC.Rounds, MaxBatch: sv.MaxBatch,
	}
}

// stop shuts the server down and waits until the service and its session
// are closed.
func (s *servingStack) stop() error {
	s.srv.Shutdown()
	return <-s.done
}

// ---------------------------------------------------------------------------
// transport: the span-recording endpoint decorator

// spanEndpoint records a span around every Send and Recv of the endpoint
// it wraps and keeps running totals.  On the dealer's endpoint it also
// records the dealer's busy intervals: request received → next Recv call.
type spanEndpoint struct {
	inner  transport.Endpoint
	tr     *tracer
	dealer int // index of the dealer endpoint on this network

	parent atomic.Int64 // span the traffic belongs to right now
	run    atomic.Int64

	msgs, bytes, sendNs, recvNs, dealerWaitNs atomic.Int64

	// Dealer side only; RunDealer is one goroutine, so these need no lock.
	busyID, busyStart int64
	busyNs, requests  atomic.Int64
}

func newSpanEndpoint(inner transport.Endpoint, tr *tracer) *spanEndpoint {
	return &spanEndpoint{inner: inner, tr: tr, dealer: inner.N() - 1}
}

// scope attributes the endpoint's following traffic to a parent span.
func (e *spanEndpoint) scope(parent int64, run int) {
	e.parent.Store(parent)
	e.run.Store(int64(run))
}

func (e *spanEndpoint) ID() int                 { return e.inner.ID() }
func (e *spanEndpoint) N() int                  { return e.inner.N() }
func (e *spanEndpoint) Stats() *transport.Stats { return e.inner.Stats() }
func (e *spanEndpoint) Close() error            { return e.inner.Close() }

func (e *spanEndpoint) Send(to int, b []byte) error {
	start := e.tr.now()
	err := e.inner.Send(to, b)
	end := e.tr.now()
	e.msgs.Add(1)
	e.bytes.Add(int64(len(b)))
	e.sendNs.Add(end - start)
	e.tr.leaf("send", "transport", e.parent.Load(), int(e.run.Load()), start, end)
	return err
}

func (e *spanEndpoint) Recv(from int) ([]byte, error) {
	start := e.tr.now()
	amDealer := e.inner.ID() == e.dealer
	if amDealer && e.busyID != 0 {
		e.tr.add(span{ID: e.busyID, Name: "dealer.serve", Layer: "mpc", Start: e.busyStart, End: start, Run: int(e.run.Load())})
		e.busyNs.Add(start - e.busyStart)
		e.busyID = 0
		e.parent.Store(0)
	}
	b, err := e.inner.Recv(from)
	end := e.tr.now()
	e.recvNs.Add(end - start)
	name := "recv"
	if from == e.dealer {
		name = "recv.dealer"
		e.dealerWaitNs.Add(end - start)
	}
	e.tr.leaf(name, "transport", e.parent.Load(), int(e.run.Load()), start, end)
	if amDealer && err == nil {
		e.busyID, e.busyStart = e.tr.newID(), end
		e.parent.Store(e.busyID)
		e.requests.Add(1)
	}
	return b, err
}

// ---------------------------------------------------------------------------
// core + mpc + paillier + transport: a federation assembled the way
// core.newSession and cmd/pivot-party do, with a spanEndpoint under each
// party and under the dealer

type tracedFed struct {
	tr      *tracer
	raw     []transport.Endpoint // what Close must reach
	spans   []*spanEndpoint      // index m is the dealer's
	parties []*core.Party
	pk      *paillier.PublicKey
	dealer  chan error
}

// lanesActive mirrors core.Config.pipelineActive for the configurations
// the benchmark builds (defaults plus transport choice): the pipelined
// driver, and with it the tag mux, is on exactly when rounds cost real time.
func lanesActive(cfg pivot.Config) bool {
	return cfg.TCPLoopback || cfg.NetDelay > 0 || cfg.NetJitter > 0
}

func newTracedFed(parts []*pivot.Partition, cfg pivot.Config, tr *tracer) (*tracedFed, error) {
	m := len(parts)
	f := &tracedFed{tr: tr, dealer: make(chan error, 1)}
	if cfg.TCPLoopback {
		eps, err := transport.NewLoopbackTCPNetwork(m+1, transport.TCPConfig{})
		if err != nil {
			return nil, err
		}
		f.raw = eps
	} else {
		f.raw = transport.NewMemoryNetwork(m+1, 8192)
	}
	eps := make([]transport.Endpoint, m+1)
	f.spans = make([]*spanEndpoint, m+1)
	for i, ep := range f.raw {
		if cfg.NetDelay > 0 || cfg.NetJitter > 0 {
			ep = transport.WithLatency(ep, cfg.NetDelay, cfg.NetJitter, cfg.Seed+int64(i)+1)
			f.raw[i] = ep
		}
		f.spans[i] = newSpanEndpoint(ep, tr)
		eps[i] = f.spans[i]
		if lanesActive(cfg) {
			eps[i] = transport.NewTagMux(eps[i])
		}
	}
	go func() { f.dealer <- mpc.RunDealer(eps[m], mpc.DealerConfig{Seed: cfg.Seed}) }()

	pk, _, pkeys, err := paillier.KeyGen(rand.Reader, cfg.KeyBits, m)
	if err != nil {
		f.close()
		return nil, err
	}
	f.pk = pk
	if cfg.PoolCapacity >= 0 {
		if _, err := pk.EnablePool(paillier.PoolConfig{Workers: cfg.PoolWorkers, Capacity: cfg.PoolCapacity}); err != nil {
			f.close()
			return nil, err
		}
	}
	f.parties = make([]*core.Party, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.parties[i], errs[i] = core.NewParty(eps[i], parts[i], pk, pkeys[i], m, cfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// each runs fn as every party at once, one span per party, and returns the
// wall time of the slowest.  A failing party closes the network so the
// others cannot hang on it.
func (f *tracedFed) each(name string, run int, fn func(i int, p *core.Party) error) (time.Duration, error) {
	errs := make([]error, len(f.parties))
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range f.parties {
		wg.Add(1)
		go func(i int, p *core.Party) {
			defer wg.Done()
			id, t0 := f.tr.newID(), f.tr.now()
			f.spans[i].scope(id, run)
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("party %d panicked: %v", i, r)
				}
				f.spans[i].scope(0, run)
				f.tr.add(span{ID: id, Name: name, Layer: "core", Start: t0, End: f.tr.now(), Run: run})
				if errs[i] != nil {
					for _, ep := range f.raw {
						ep.Close()
					}
				}
			}()
			errs[i] = fn(i, p)
		}(i, p)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}

// train runs Party.Train* for kind on every party and returns party 0's
// model.
func (f *tracedFed) train(kind pivot.ModelKind, run int) (pivot.Predictor, time.Duration, error) {
	f.spans[len(f.parties)].run.Store(int64(run))
	models := make([]pivot.Predictor, len(f.parties))
	wall, err := f.each("train."+string(kind), run, func(i int, p *core.Party) error {
		switch kind {
		case pivot.KindDT:
			m, err := p.TrainDT()
			if err != nil {
				return err
			}
			models[i] = m
		case pivot.KindRF:
			m, err := p.TrainRF()
			if err != nil {
				return err
			}
			models[i] = m
		case pivot.KindGBDT:
			m, err := p.TrainGBDT()
			if err != nil {
				return err
			}
			models[i] = m
		default:
			return fmt.Errorf("unknown model kind %q", kind)
		}
		return nil
	})
	return models[0], wall, err
}

// predict runs the batched prediction protocol for mdl on every party.
func (f *tracedFed) predict(mdl pivot.Predictor, X [][][]float64, run int) ([]float64, error) {
	var out []float64
	_, err := f.each("predict."+string(mdl.Kind()), run, func(i int, p *core.Party) error {
		var preds []float64
		var err error
		switch m := mdl.(type) {
		case *pivot.Model:
			preds, err = p.PredictBatch(m, X[i])
		case *pivot.ForestModel:
			preds, err = p.PredictRFBatch(m, X[i])
		case *pivot.BoostModel:
			preds, err = p.PredictGBDTBatch(m, X[i])
		default:
			err = fmt.Errorf("unknown predictor %T", mdl)
		}
		if i == 0 {
			out = preds
		}
		return err
	})
	return out, err
}

// fedTotals are the traced federation's running totals: the parties'
// decorator counters summed, the dealer's busy time, bytes sent and requests
// served, the time party 0 spent blocked receiving from the dealer, and party
// 0's MPC open rounds.
type fedTotals struct {
	Msgs, Bytes, SendNs, RecvNs                         int64
	DealerBusyNs, DealerBytes, DealerReqs, DealerWaitNs int64
	Rounds                                              int64
}

func (f *tracedFed) totals() fedTotals {
	d := f.spans[len(f.parties)]
	t := fedTotals{
		DealerBusyNs: d.busyNs.Load(), DealerBytes: d.bytes.Load(), DealerReqs: d.requests.Load(),
		DealerWaitNs: f.spans[0].dealerWaitNs.Load(),
		Rounds:       f.parties[0].Stats.MPC.Rounds,
	}
	for _, s := range f.spans[:len(f.parties)] {
		t.Msgs += s.msgs.Load()
		t.Bytes += s.bytes.Load()
		t.SendNs += s.sendNs.Load()
		t.RecvNs += s.recvNs.Load()
	}
	return t
}

// since is what t added to before.
func (t fedTotals) since(before fedTotals) fedTotals {
	return fedTotals{
		t.Msgs - before.Msgs, t.Bytes - before.Bytes, t.SendNs - before.SendNs, t.RecvNs - before.RecvNs,
		t.DealerBusyNs - before.DealerBusyNs, t.DealerBytes - before.DealerBytes,
		t.DealerReqs - before.DealerReqs, t.DealerWaitNs - before.DealerWaitNs,
		t.Rounds - before.Rounds,
	}
}

func (f *tracedFed) close() {
	if len(f.parties) > 0 && f.parties[0] != nil {
		f.parties[0].Close() // tells the dealer to exit
		select {
		case <-f.dealer:
		case <-time.After(2 * time.Second):
		}
	}
	for _, ep := range f.raw {
		ep.Close()
	}
	if f.pk != nil {
		f.pk.DisablePool()
	}
}

// ---------------------------------------------------------------------------
// kernel spans: each layer's public vector functions timed directly

// kernelSample is one kernel measurement: per-element time and process-wide
// allocations per element (all three parties and the dealer together).
type kernelSample struct {
	us, allocs float64
}

// mpcKernels times the engine's vector primitives on a 3-party memory
// mesh with an in-process dealer, at party 0: n elements per call for the
// cheap ones, fewer for the expensive ones.
func mpcKernels(tr *tracer, n, iters int) (map[string]kernelSample, error) {
	const parties = 3
	eps := transport.NewMemoryNetwork(parties+1, 8192)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	dealer := make(chan error, 1)
	go func() { dealer <- mpc.RunDealer(eps[parties], mpc.DealerConfig{Seed: 1}) }()
	engs := make([]*mpc.Engine, parties)
	errs := make([]error, parties)
	var wg sync.WaitGroup
	for i := range engs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := mpc.DefaultConfig()
			cfg.Workers = runtime.NumCPU()
			engs[i], errs[i] = mpc.NewEngine(eps[i], cfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	defer func() {
		engs[0].Shutdown()
		<-dealer
	}()

	// spmd runs fn on every party and times it at party 0.
	spmd := func(fn func(e *mpc.Engine)) (d time.Duration, err error) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i, e := range engs {
			wg.Add(1)
			go func(i int, e *mpc.Engine) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						err = fmt.Errorf("mpc kernel: party %d: %v", i, r)
						mu.Unlock()
						for _, ep := range eps {
							ep.Close()
						}
					}
				}()
				start := time.Now()
				fn(e)
				if i == 0 {
					d = time.Since(start)
				}
			}(i, e)
		}
		wg.Wait()
		return d, err
	}
	consts := func(e *mpc.Engine, count int, f func(i int) int64) []mpc.Share {
		out := make([]mpc.Share, count)
		for i := range out {
			out[i] = e.Const(big.NewInt(f(i)))
		}
		return out
	}
	signed := func(i int) int64 { return int64(i%2001-1000) << 16 }
	positive := func(i int) int64 { return int64(i%997+1) << 16 }

	// The comparison ladders and the division cost 1–9 ms per element on
	// math/big, so they run on a quarter and a sixteenth of n; argmax scans
	// its candidates one after another, so it is timed at the size training
	// meets (the splits of one node), not at n.
	const argmaxCands = 48
	cmp, div := n/4, n/16
	kernels := []struct {
		name  string
		count int
		fn    func(e *mpc.Engine)
	}{
		{"mul", n, func(e *mpc.Engine) { e.MulVec(consts(e, n, signed), consts(e, n, positive)) }},
		{"open", n, func(e *mpc.Engine) { e.OpenVec(consts(e, n, signed)) }},
		{"trunc", cmp, func(e *mpc.Engine) { e.TruncVec(consts(e, cmp, signed), 48, 16) }},
		{"ltz", cmp, func(e *mpc.Engine) { e.LTZVec(consts(e, cmp, signed), 38) }},
		{"eqz", cmp, func(e *mpc.Engine) { e.EQZVec(consts(e, cmp, signed), 38) }},
		{"fpdiv", div, func(e *mpc.Engine) { e.FPDivVec(consts(e, div, positive), consts(e, div, positive), 40) }},
		{"argmax", argmaxCands, func(e *mpc.Engine) {
			ids := make([][]int64, argmaxCands)
			for i := range ids {
				ids[i] = []int64{int64(i % 3), int64(i % 5), int64(i)}
			}
			e.Argmax(consts(e, argmaxCands, signed), ids, 38, false)
		}},
	}
	out := make(map[string]kernelSample, len(kernels))
	var ms runtime.MemStats
	for _, k := range kernels {
		if _, err := spmd(k.fn); err != nil { // warm-up: first dealer top-ups
			return nil, err
		}
		var us, allocs []float64
		for it := 0; it < iters; it++ {
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			start := tr.now()
			d, err := spmd(k.fn)
			if err != nil {
				return nil, err
			}
			tr.leaf("kernel.mpc."+k.name, "mpc", 0, -1, start, tr.now())
			runtime.ReadMemStats(&ms)
			us = append(us, float64(d.Nanoseconds())/1e3/float64(k.count))
			allocs = append(allocs, float64(ms.Mallocs-m0)/float64(k.count))
		}
		out[k.name] = kernelSample{us: median(us), allocs: median(allocs)}
	}
	return out, nil
}

// paillierKernels times the Paillier vector functions at one key size,
// count elements per call, workers = 1; µs per element (per term for the
// dot product, per slot for ciphertext packing).
func paillierKernels(tr *tracer, bits, count int) (map[string]float64, error) {
	const parties = 3
	pk, _, pkeys, err := paillier.KeyGen(rand.Reader, bits, parties)
	if err != nil {
		return nil, err
	}
	xs := make([]*big.Int, count)
	bitsVec := make([]*big.Int, count)
	bound := new(big.Int).Lsh(big.NewInt(1), 40)
	for i := range xs {
		if xs[i], err = rand.Int(rand.Reader, bound); err != nil {
			return nil, err
		}
		bitsVec[i] = big.NewInt(int64(i % 2))
	}
	out := make(map[string]float64)
	timed := func(name string, elems int, fn func() error) error {
		start := tr.now()
		if err := fn(); err != nil {
			return fmt.Errorf("paillier kernel %s: %w", name, err)
		}
		end := tr.now()
		tr.leaf("kernel.paillier."+name, "paillier", 0, -1, start, end)
		out[name] = float64(end-start) / 1e3 / float64(elems)
		return nil
	}

	var cts []*paillier.Ciphertext
	if err := timed("encrypt", count, func() (err error) {
		cts, err = pk.EncryptVec(rand.Reader, xs, 1)
		return err
	}); err != nil {
		return nil, err
	}
	shares := make([][]*paillier.DecryptionShare, parties)
	if err := timed("partial_dec", count, func() error {
		shares[0] = pkeys[0].PartialDecryptVec(pk, cts, 1)
		return nil
	}); err != nil {
		return nil, err
	}
	for c := 1; c < parties; c++ {
		shares[c] = pkeys[c].PartialDecryptVec(pk, cts, 1)
	}
	if err := timed("combine", count, func() error {
		plain, err := pk.CombineSharesVec(shares, 1)
		if err == nil && plain[0].Cmp(xs[0]) != 0 {
			err = fmt.Errorf("threshold decryption returned %v, want %v", plain[0], xs[0])
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("scalar_mul", count, func() error {
		pk.ScalarMulVec(cts, xs, 1)
		return nil
	}); err != nil {
		return nil, err
	}
	// Training's dot products are indicator vectors against [α].
	if err := timed("dot_term", count, func() error {
		_, err := pk.DotVec([][]*big.Int{bitsVec}, [][]*paillier.Ciphertext{cts}, 1)
		return err
	}); err != nil {
		return nil, err
	}
	// The Algorithm-2 conversion's slot width at the default κ and widths.
	const slotW = 104
	if slots := pk.PackCapacity(slotW); slots >= 1 {
		groups := count / slots
		if err := timed("pack_slot", groups*slots, func() error {
			for g := 0; g < groups; g++ {
				pk.PackCiphertexts(cts[g*slots:(g+1)*slots], slotW)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := timed("dj2_encrypt", count, func() error {
		_, err := pk.DJ(2).EncryptVec(rand.Reader, xs, 1)
		return err
	}); err != nil {
		return nil, err
	}
	pool, err := pk.EnablePool(paillier.PoolConfig{})
	if err != nil {
		return nil, err
	}
	defer pk.DisablePool()
	pool.Reserve(count, 1)
	if err := timed("encrypt_pooled", count, func() error {
		_, err := pk.EncryptVec(rand.Reader, xs, 1)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// transportKernels times a 32-byte ping-pong on the memory network, on
// loopback TCP and through a TagMux over TCP (µs per round trip), a stream
// of 1 MiB frames over TCP (MB/s), and MarshalInts + UnmarshalInts of 1024
// field elements (µs per pair of calls).
func transportKernels(tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64)
	pingPong := func(name string, a, b transport.Endpoint, trips int) error {
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < trips; i++ {
				msg, err := b.Recv(0)
				if err == nil {
					err = b.Send(0, msg)
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		payload := make([]byte, 32)
		rtts := make([]float64, 0, trips)
		start := tr.now()
		for i := 0; i < trips; i++ {
			t0 := time.Now()
			if err := a.Send(1, payload); err != nil {
				return err
			}
			if _, err := a.Recv(1); err != nil {
				return err
			}
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		tr.leaf("kernel.transport."+name, "transport", 0, -1, start, tr.now())
		out[name] = median(rtts)
		return <-errc
	}
	closeAll := func(eps []transport.Endpoint) {
		for _, ep := range eps {
			ep.Close()
		}
	}

	mem := transport.NewMemoryNetwork(2, 64)
	defer closeAll(mem)
	if err := pingPong("rtt_memory", mem[0], mem[1], 20000); err != nil {
		return nil, err
	}
	tcp, err := transport.NewLoopbackTCPNetwork(2, transport.TCPConfig{})
	if err != nil {
		return nil, err
	}
	defer closeAll(tcp)
	if err := pingPong("rtt_tcp", tcp[0], tcp[1], 4000); err != nil {
		return nil, err
	}

	// 1 MiB frames one way, then one byte back so the clock stops when the
	// last frame has arrived.
	const frames, frameSize = 48, 1 << 20
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if _, err := tcp[1].Recv(0); err != nil {
				errc <- err
				return
			}
		}
		errc <- tcp[1].Send(0, []byte{1})
	}()
	frame := make([]byte, frameSize)
	start := tr.now()
	for i := 0; i < frames; i++ {
		if err := tcp[0].Send(1, frame); err != nil {
			return nil, err
		}
	}
	if _, err := tcp[0].Recv(1); err != nil {
		return nil, err
	}
	end := tr.now()
	if err := <-errc; err != nil {
		return nil, err
	}
	tr.leaf("kernel.transport.tcp_stream", "transport", 0, -1, start, end)
	out["tcp_mb_per_s"] = float64(frames*frameSize) / 1e6 / (float64(end-start) / 1e9)

	if err := pingPong("rtt_tagmux", transport.NewTagMux(tcp[0]), transport.NewTagMux(tcp[1]), 4000); err != nil {
		return nil, err
	}

	elems := make([]*big.Int, 1024)
	for i := range elems {
		if elems[i], err = rand.Int(rand.Reader, mpc.Q); err != nil {
			return nil, err
		}
	}
	var us []float64
	start = tr.now()
	for it := 0; it < 200; it++ {
		t0 := time.Now()
		back, _, err := transport.UnmarshalInts(transport.MarshalInts(elems))
		if err != nil || len(back) != len(elems) {
			return nil, fmt.Errorf("marshal round trip: %d of %d values, err %v", len(back), len(elems), err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	tr.leaf("kernel.transport.marshal_ints", "transport", 0, -1, start, tr.now())
	out["marshal_ints"] = median(us)
	return out, nil
}
