// pivot-serve is the long-lived prediction daemon: it brings up a
// federation, trains (or loads) models into a named registry, and then
// keeps answering prediction queries over a small length-prefixed TCP
// protocol — the paper's end-state of a deployed federation.  Concurrent
// single-sample requests are coalesced into shared batched MPC round
// chains (micro-batching), so serving throughput scales with the batch
// pipeline instead of paying one round chain per request.
//
// The daemon serves from -lanes S independent federated meshes (default
// 1) behind one registry and a cross-model fair scheduler, so throughput
// scales with lanes and a dead lane degrades to S-1 and rebuilds in the
// background instead of taking the daemon down.  The wire can be secured
// with TLS (-tls-cert/-tls-key) and a shared auth token (-auth), and
// -state-dir journals the registry (models + versions) across restarts.
//
// Usage:
//
//	pivot-serve -data train.csv -classes 2 -m 3 -train dt,rf -addr 127.0.0.1:9100
//	pivot-serve -synth 64 -classes 2 -train dt     # synthetic data, smoke tests
//	pivot-serve -synth 64 -train dt -lanes 4 -auth tok -state-dir /var/lib/pivot
//
// Talk to it with pivot.Dial / pivot.DialOpts (see cmd/pivot-predict
// -remote), which can submit samples, list models, fetch stats and
// request a graceful drain.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	pivot "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9100", "listen address")
	dataPath := flag.String("data", "", "training CSV (empty = synthetic, see -synth)")
	synthN := flag.Int("synth", 64, "synthetic samples when -data is empty")
	synthD := flag.Int("synthd", 6, "synthetic features when -data is empty")
	classes := flag.Int("classes", 2, "number of classes (0 = regression)")
	m := flag.Int("m", 3, "number of clients")
	train := flag.String("train", "dt", "comma-separated model kinds to train and register: dt,rf,gbdt")
	models := flag.String("model", "", "comma-separated name=path pairs of model JSONs (pivot-train output) to register")
	protocol := flag.String("protocol", "basic", "basic | enhanced")
	keyBits := flag.Int("keybits", 512, "threshold Paillier key size")
	seed := flag.Int64("seed", 7, "protocol seed")
	depth := flag.Int("depth", 4, "max tree depth")
	splits := flag.Int("splits", 8, "max splits per feature")
	trees := flag.Int("trees", 4, "ensemble size for rf/gbdt")
	window := flag.Duration("window", 2*time.Millisecond, "micro-batch coalescing window")
	maxBatch := flag.Int("maxbatch", 256, "max samples per coalesced round chain")
	maxQueue := flag.Int("queue", 1024, "admission bound on queued samples")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
	lanes := flag.Int("lanes", 1, "independent serving sessions")
	tlsCert := flag.String("tls-cert", "", "PEM certificate for a TLS wire (requires -tls-key)")
	tlsKey := flag.String("tls-key", "", "PEM private key for -tls-cert")
	auth := flag.String("auth", "", "shared auth token clients must present (pair with TLS off-loopback)")
	stateDir := flag.String("state-dir", "", "journal the model registry here and reload it on boot")
	flag.Parse()
	proto := pivot.Basic
	switch *protocol {
	case "basic":
	case "enhanced":
		proto = pivot.Enhanced
	default:
		fmt.Fprintf(os.Stderr, "pivot-serve: unknown protocol %q (basic | enhanced)\n", *protocol)
		os.Exit(2)
	}

	var ds *pivot.Dataset
	var err error
	if *dataPath != "" {
		ds, err = pivot.LoadCSVFile(*dataPath, *classes)
	} else if *classes > 0 {
		ds = pivot.SyntheticClassification(*synthN, *synthD, *classes, 2.0, uint64(*seed))
	} else {
		ds = pivot.SyntheticRegression(*synthN, *synthD, 0.2, uint64(*seed))
	}
	if err != nil {
		fail(err)
	}

	cfg := pivot.DefaultConfig()
	cfg.KeyBits = *keyBits
	cfg.Seed = *seed
	cfg.Tree.MaxDepth = *depth
	cfg.Tree.MaxSplits = *splits
	cfg.NumTrees = *trees
	cfg.Protocol = proto

	// The persistence store is opened further down (it needs the registry);
	// the journal closure reads it at call time, so version bumps from
	// incremental updates installed while serving are persisted too.
	var store *serve.Store
	journal := func(e *serve.Entry) {
		if store == nil {
			return
		}
		if err := store.Save(e); err != nil {
			fmt.Fprintf(os.Stderr, "pivot-serve: journal %s v%d: %v\n", e.Name, e.Version, err)
		}
	}

	svcCfg := serve.Config{
		Window:          *window,
		MaxBatch:        *maxBatch,
		MaxQueue:        *maxQueue,
		DefaultDeadline: *deadline,
		Journal:         journal,
	}

	// Serving engine: -lanes independent sessions, each its own mesh, dealer
	// and key material (lane i's seed is offset by i).
	enhanced := cfg.Protocol == pivot.Enhanced
	if enhanced && *lanes > 1 {
		// Enhanced models hold ciphertexts bound to one session's key
		// material; independent lanes each deal their own keys.
		fail(fmt.Errorf("-lanes %d requires the basic protocol (enhanced models are bound to a single session's keys)", *lanes))
	}
	parts, err := pivot.VerticalPartition(ds, *m, 0)
	if err != nil {
		fail(err)
	}
	var spawned atomic.Bool
	start := time.Now()
	backend, err := serve.NewSharded(parts, *lanes, func(lane int) (*core.Session, error) {
		if enhanced && spawned.Swap(true) {
			// A respawned lane deals fresh keys, under which the registry's
			// enhanced models would decrypt to garbage: stay unavailable.
			return nil, errors.New("enhanced models are bound to the dead session's keys")
		}
		laneCfg := cfg
		laneCfg.Seed = cfg.Seed + int64(lane)
		return core.NewSession(parts, laneCfg)
	}, svcCfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("spawned %d lane(s) in %s\n", *lanes, time.Since(start).Round(time.Millisecond))
	defer backend.Close()

	// Registry persistence: reload the journal first (restored entries
	// keep their versions), then journal everything registered below.
	if *stateDir != "" {
		store, err = serve.OpenStore(*stateDir)
		if err != nil {
			fail(err)
		}
		n, errs := store.Restore(backend.Registry)
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "pivot-serve: state-dir:", e)
		}
		if n > 0 {
			fmt.Printf("restored %d model(s) from %s\n", n, *stateDir)
		}
	}

	// Freshly trained models under their kind name, plus any model JSONs
	// (basic protocol — enhanced models are bound to their training
	// session's keys and must be trained here).
	for _, kind := range strings.Split(*train, ",") {
		kind = strings.TrimSpace(kind)
		if kind == "" {
			continue
		}
		start := time.Now()
		mdl, err := core.Train(backend.LaneSession(0), core.TrainSpec{Model: core.ModelKind(kind)})
		if err != nil {
			fail(fmt.Errorf("training %s: %w", kind, err))
		}
		entry, err := backend.Register(kind, mdl)
		if err != nil {
			fail(err)
		}
		journal(entry)
		fmt.Printf("trained and registered %s v%d in %s\n", entry.Name, entry.Version, time.Since(start).Round(time.Millisecond))
	}
	for _, pair := range strings.Split(*models, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, path, ok := strings.Cut(pair, "=")
		if !ok {
			fail(fmt.Errorf("-model wants name=path, got %q", pair))
		}
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		mdl, err := core.LoadModel(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if mdl.Protocol == core.Enhanced {
			fail(fmt.Errorf("model %q: enhanced models are bound to their training session's keys; train them in-daemon with -train", name))
		}
		entry, err := backend.Register(name, mdl)
		if err != nil {
			fail(err)
		}
		journal(entry)
		fmt.Printf("loaded and registered %s v%d from %s\n", entry.Name, entry.Version, path)
	}

	// Wire security.
	var wire serve.WireConfig
	if (*tlsCert == "") != (*tlsKey == "") {
		fail(fmt.Errorf("-tls-cert and -tls-key must be set together"))
	}
	if *tlsCert != "" {
		wire.TLS, err = transport.LoadServerTLS(*tlsCert, *tlsKey)
		if err != nil {
			fail(err)
		}
	}
	wire.AuthToken = *auth

	srv, err := serve.NewServerWire(backend, *addr, wire)
	if err != nil {
		fail(err)
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("signal received, draining")
		srv.Shutdown()
	}()

	security := "plaintext"
	if wire.TLS != nil {
		security = "tls"
	}
	if wire.AuthToken != "" {
		security += "+auth"
	}
	fmt.Printf("pivot-serve listening on %s (m=%d, lanes=%d, window=%s, maxbatch=%d, wire=%s)\n",
		srv.Addr(), *m, *lanes, *window, *maxBatch, security)
	if err := srv.Serve(); err != nil {
		fail(err)
	}
	st := backend.Stats()
	if st.Serve != nil {
		fmt.Printf("served %d samples in %d batches (max batch %d, rejected %d, expired %d, requeued %d, updates %d)\n",
			st.Serve.Coalesced, st.Serve.Batches, st.Serve.MaxBatch, st.Serve.Rejected, st.Serve.Expired, st.Serve.Requeued, st.Serve.Updates)
		for _, ls := range st.Serve.Lanes {
			fmt.Printf("  lane %d: healthy=%v batches=%d samples=%d rebuilds=%d\n",
				ls.Lane, ls.Healthy, ls.Batches, ls.Samples, ls.Rebuilds)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pivot-serve:", err)
	os.Exit(1)
}
