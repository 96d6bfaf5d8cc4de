// pivot-predict loads a model trained by pivot-train and runs the
// privacy-preserving prediction protocol over a CSV of samples, reporting
// accuracy (classification) or MSE (regression) against the labels.
//
// Usage:
//
//	pivot-predict -model model.json -data test.csv -classes 2 -m 3
//
// With -remote it instead submits the samples to a running pivot-serve
// daemon over the wire protocol — one connection per -conns, one sample
// per request, so concurrent requests exercise the daemon's micro-batch
// coalescing:
//
//	pivot-predict -remote 127.0.0.1:9100 -name dt -data test.csv -classes 2
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	pivot "repro"
	"repro/internal/core"
)

func main() {
	modelPath := flag.String("model", "model.json", "model JSON from pivot-train (local mode)")
	dataPath := flag.String("data", "", "CSV with samples to predict")
	classes := flag.Int("classes", 0, "number of classes (0 = regression)")
	m := flag.Int("m", 3, "number of clients (must match training)")
	limit := flag.Int("limit", 0, "predict only the first N samples (0 = all)")
	keyBits := flag.Int("keybits", 512, "threshold Paillier key size")
	batch := flag.Int("batch", 0, "samples per batched prediction round chain (0 = all at once)")
	remote := flag.String("remote", "", "pivot-serve address; predict over the wire instead of locally")
	name := flag.String("name", "dt", "registry model name (with -remote)")
	conns := flag.Int("conns", 8, "concurrent daemon connections (with -remote)")
	shutdown := flag.Bool("shutdown", false, "ask the daemon to drain and exit afterwards (with -remote)")
	tlsCA := flag.String("tls-ca", "", "PEM CA bundle to verify the daemon's TLS cert (with -remote)")
	insecureTLS := flag.Bool("insecure-tls", false, "TLS without certificate verification (with -remote; testing only)")
	auth := flag.String("auth", "", "shared auth token matching the daemon's -auth (with -remote)")
	retryWait := flag.Duration("retry", 0, "ride out daemon degradation for up to this long per request (with -remote)")
	update := flag.String("update", "", "CSV of appended labelled samples to absorb into the model first (with -remote; incremental training, installs version+1)")
	addTrees := flag.Int("addtrees", 0, fmt.Sprintf("extra boosting rounds for a GBDT -update (<= 0 selects 1, at most %d)", core.MaxAddTrees))
	flag.Parse()

	var opts pivot.ServeDialOptions
	var err error
	if *remote != "" {
		opts = pivot.ServeDialOptions{AuthToken: *auth}
		if *tlsCA != "" || *insecureTLS {
			opts.TLS, err = pivot.LoadClientTLS(*tlsCA, "", *insecureTLS)
			if err != nil {
				fail(err)
			}
		}
	}

	// Incremental absorb first, so the predictions below land on the
	// refreshed version.
	if *update != "" {
		if *remote == "" {
			fmt.Fprintln(os.Stderr, "pivot-predict: -update requires -remote (local warm starts live in pivot-train -update)")
			os.Exit(2)
		}
		ups, err := pivot.LoadCSVFile(*update, *classes)
		if err != nil {
			fail(err)
		}
		cli, err := pivot.DialOpts(*remote, opts)
		if err != nil {
			fail(err)
		}
		version, err := cli.Update(*name, ups.X, ups.Y, *addTrees)
		cli.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("absorbed %d samples into %s -> v%d\n", ups.N(), *name, version)
	}

	if *dataPath == "" {
		if *update != "" {
			return // absorb-only invocation
		}
		fmt.Fprintln(os.Stderr, "pivot-predict: -data is required")
		os.Exit(2)
	}
	ds, err := pivot.LoadCSVFile(*dataPath, *classes)
	if err != nil {
		fail(err)
	}
	if *limit > 0 && ds.N() > *limit {
		ds.X = ds.X[:*limit]
		ds.Y = ds.Y[:*limit]
	}

	var preds []float64
	if *remote != "" {
		preds, err = predictRemote(*remote, *name, *conns, *shutdown, *retryWait, opts, ds.X)
	} else {
		preds, err = predictLocal(*modelPath, ds, *m, *keyBits, *batch)
	}
	if err != nil {
		fail(err)
	}

	var correct int
	var sqErr float64
	for i, pred := range preds {
		if *classes > 0 {
			if pred == ds.Y[i] {
				correct++
			}
		} else {
			d := pred - ds.Y[i]
			sqErr += d * d
		}
	}
	if *classes > 0 {
		fmt.Printf("accuracy: %.4f (%d/%d)\n", float64(correct)/float64(ds.N()), correct, ds.N())
	} else {
		fmt.Printf("mse: %.6f over %d samples\n", sqErr/float64(ds.N()), ds.N())
	}
}

// predictLocal brings up an in-process federation and evaluates the model
// through the unified batched pipeline (one MPC round chain per -batch
// samples).
func predictLocal(modelPath string, ds *pivot.Dataset, m, keyBits, batch int) ([]float64, error) {
	f, err := os.Open(modelPath)
	if err != nil {
		return nil, err
	}
	model, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if model.Protocol == core.Enhanced {
		return nil, fmt.Errorf("enhanced models are bound to their training session's keys; predict inside pivot-train or the library API")
	}
	cfg := pivot.DefaultConfig()
	cfg.KeyBits = keyBits
	cfg.PredictBatch = batch
	fed, err := pivot.NewFederation(ds, m, cfg)
	if err != nil {
		return nil, err
	}
	defer fed.Close()
	return fed.PredictAll(model)
}

// predictRemote fans the samples out over conns connections, one sample
// per request, so the daemon's micro-batching coalesces them into shared
// round chains; it prints the daemon's serving stats afterwards.  With
// retryWait > 0 each request rides out daemon degradation (lane failover,
// drain windows) via the RetryAfter-hinted retry loop.
func predictRemote(addr, name string, conns int, shutdown bool, retryWait time.Duration, opts pivot.ServeDialOptions, rows [][]float64) ([]float64, error) {
	n := len(rows)
	if conns < 1 {
		conns = 1
	}
	if conns > n {
		conns = n
	}
	preds := make([]float64, n)
	errs := make([]error, conns)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)

	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := pivot.DialOpts(addr, opts)
			if err != nil {
				errs[w] = err
				return
			}
			defer cli.Close()
			for i := range next {
				var ps []float64
				var err error
				if retryWait > 0 {
					ps, err = cli.PredictRetry(name, [][]float64{rows[i]}, retryWait)
				} else {
					ps, err = cli.Predict(name, [][]float64{rows[i]})
				}
				if err != nil {
					errs[w] = err
					return
				}
				preds[i] = ps[0]
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	cli, err := pivot.DialOpts(addr, opts)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	st, err := cli.Stats()
	if err != nil {
		return nil, err
	}
	if st.Serve != nil {
		fmt.Printf("server stats: requests=%d batches=%d coalesced=%d max_batch=%d rejected=%d expired=%d\n",
			st.Serve.Requests, st.Serve.Batches, st.Serve.Coalesced, st.Serve.MaxBatch,
			st.Serve.Rejected, st.Serve.Expired)
	}
	if shutdown {
		if err := cli.Shutdown(); err != nil {
			return nil, err
		}
		fmt.Println("daemon draining")
	}
	return preds, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pivot-predict:", err)
	os.Exit(1)
}
