package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	pivot "repro"
)

// Every workload runs the same pipeline — set-up, train + batched
// prediction, then serving (closed loop, open loop, reads beside updates) —
// on different inputs, so every end-to-end metric exists on every
// workload.  What differs is which layer the inputs load.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	Kind    pivot.ModelKind
	N, D    int     // training rows and features
	Classes int     // 0 = regression
	Spread  float64 // class separation (classification) or label noise (regression)
	// Structure seeds the population: class centroids or regression
	// weights, the same for every run seed.  It is chosen so that the best
	// split of every node is clear-cut on any training draw.
	Structure uint64
	// Flip is the share of population rows whose class is redrawn at
	// random: with well-separated classes it, not the luck of one training
	// draw, sets the error a tree can reach, which keeps the quality metrics
	// steady from seed to seed.
	Flip float64

	KeyBits, Depth, Splits, Trees int
	TCP                           bool
	Delay                         time.Duration

	HeldOut int // rows of one batched federated prediction, sized to take 0.2–0.5 s

	// Serving traffic: 2 connections; OpenRate is the open phase's fixed
	// schedule per connection.  The two schedules interleave, so requests
	// arrive one at a time and are served unbatched; the rate keeps the
	// service about 30% busy in the machine's fast state and below 60% in its
	// slow one, where a rate nearer the closed loop's let a queue build
	// through every slow spell and the tail read anything from 9 to 57 ms.
	// ForestShare of the requests go to a second registered model, a 2-tree
	// random forest.
	OpenRate          float64
	ForestShare       float64
	PredictsPerUpdate int

	// Digest pins sha256(core.SavePredictor) of the model trained with
	// seed 1: the ROADMAP's bit-identical contract.
	Digest string
}

const (
	clients     = 3
	connections = 2
	qualityRows = 8000 // held-out rows the quality metrics are taken on
	updateRows  = 16   // labelled rows one Update appends
	updatePool  = 64 * updateRows
	serveWindow = 2 * time.Millisecond // the pivot-serve default
	// Batched predictions of the held-out rows after each train: at least
	// minPredicts, up to maxPredicts while they fit in predictBudget.
	minPredicts   = 3
	maxPredicts   = 8
	predictBudget = 1500 * time.Millisecond
	minSetUps     = 3
	maxSetUps     = 12
	structureSeed = 2020 // fixes class centroids / regression weights for every seed
)

// Shares of -seconds each measured stage gets.  A stage also has a minimum
// of work (2 train repetitions, 2 updates, enough requests for the reported
// percentiles) and runs past its share when the machine needs longer.
const (
	trainShare = 0.36
	readShare  = 0.16
	openShare  = 0.20
	rwShare    = 0.20
)

// setUpBudget is how long set-up may be repeated for (minSetUps to
// maxSetUps times): cheap set-ups are repeated more, so that their median
// is as steady as the expensive ones' — the first two or three of a process
// can take twice as long as the rest.
const setUpBudget = 3 * time.Second

var workloads = []workload{
	{
		Name: "train-mpc",
		Why:  "many candidate splits x 4 classes on 300 rows, 512-bit keys, memory transport: the SPDZ engine and in-process dealer do the work; a Paillier change should not move it",
		Kind: pivot.KindDT, N: 300, D: 9, Classes: 4, Structure: 2026, Spread: 0.9, Flip: 0.2,
		KeyBits: 512, Depth: 2, Splits: 3,
		HeldOut: 150, OpenRate: 28, PredictsPerUpdate: 15,
		Digest: "9739d0feead101e00f01cacfa4e4097e1da8dfcb5bfcf2e5dc052b27a695f28f",
	},
	{
		Name: "train-he",
		Why:  "2400 rows, few splits, 1024-bit keys (the paper's size): encrypted statistics, mask updates and HE-only prediction dominate; an mpc change should move it little",
		Kind: pivot.KindDT, N: 2400, D: 6, Classes: 2, Structure: 2025, Spread: 1.2, Flip: 0.4,
		KeyBits: 1024, Depth: 2, Splits: 3,
		HeldOut: 64, OpenRate: 10, PredictsPerUpdate: 10,
		Digest: "ba8d7090756a2141e3beed910ce826be473861cc06ff58cdd975e07cfa817221",
	},
	{
		Name: "train-wan",
		Why:  "GBDT regression over loopback TCP with 1 ms simulated delay (pipelined driver on): wall time is critical-path hops x delay; compute kernels should not move it",
		Kind: pivot.KindGBDT, N: 120, D: 6, Classes: 0, Structure: 2020, Spread: 0.3,
		KeyBits: 256, Depth: 1, Splits: 3, Trees: 2,
		TCP: true, Delay: time.Millisecond,
		HeldOut: 320, OpenRate: 22, PredictsPerUpdate: 10,
		Digest: "788988e72bb28f520fe8a0dc55da0e5d65fb2a526a4f0fbecdcc74852a4ccd66",
	},
	{
		Name: "serve-mix",
		Why:  "the deployed end state: a DT and a 2-tree RF behind the micro-batching service and wire server, 75/25 request mix, cheap training so serving gets the samples",
		Kind: pivot.KindDT, N: 400, D: 6, Classes: 2, Structure: 2025, Spread: 1.4, Flip: 0.3,
		KeyBits: 512, Depth: 2, Splits: 3, Trees: 2,
		HeldOut: 128, OpenRate: 19, ForestShare: 0.25, PredictsPerUpdate: 15,
		Digest: "7e6a3b06f2fbe986a3db2cd9a90f10f57907f378c72f9f69638603957467dd22",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config starts from pivot.DefaultConfig and sets only key size, tree
// shape, ensemble size, seed and the transport; no mode enum, pool or batch
// knob is touched.
func (w workload) config(seed int64) pivot.Config {
	cfg := pivot.DefaultConfig()
	cfg.KeyBits = w.KeyBits
	cfg.Tree.MaxDepth = w.Depth
	cfg.Tree.MaxSplits = w.Splits
	if w.Trees > 0 {
		cfg.NumTrees = w.Trees
	}
	cfg.Seed = seed
	cfg.TCPLoopback = w.TCP
	cfg.NetDelay = w.Delay
	return cfg
}

// inputs are everything the seed decides.
type inputs struct {
	train *pivot.Dataset     // training rows in aligned (sorted-id) order
	parts []*pivot.Partition // each client's slice, in that client's own row order
	ids   [][]string         // ids[c][k] names row k of parts[c]

	held, qual, upd *pivot.Dataset // federated prediction, quality, update rows
}

// generate draws the workload's inputs: a fixed-structure population from
// the dataset layer, of which the seed picks the training, held-out,
// quality and update rows, and the order each client stores its rows in.
func (w workload) generate(seed int64) (*inputs, error) {
	need := w.N + w.HeldOut + qualityRows + updatePool
	var pop *pivot.Dataset
	if w.Classes > 0 {
		pop = pivot.SyntheticClassification(3*need, w.D, w.Classes, w.Spread, w.Structure)
	} else {
		pop = pivot.SyntheticRegression(3*need, w.D, w.Spread, w.Structure)
	}
	if w.Flip > 0 {
		noise := rand.New(rand.NewPCG(w.Structure, 0xf11b))
		for i := range pop.Y {
			if noise.Float64() < w.Flip {
				pop.Y[i] = float64(noise.IntN(w.Classes))
			}
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	perm := rng.Perm(pop.N())
	take := func(n int) *pivot.Dataset {
		ds := &pivot.Dataset{Classes: pop.Classes, Names: pop.Names}
		for _, i := range perm[:n] {
			ds.X = append(ds.X, pop.X[i])
			ds.Y = append(ds.Y, pop.Y[i])
		}
		perm = perm[n:]
		return ds
	}
	in := &inputs{}
	in.train, in.held, in.qual, in.upd = take(w.N), take(w.HeldOut), take(qualityRows), take(updatePool)

	parts, err := pivot.VerticalPartition(in.train, clients, 0)
	if err != nil {
		return nil, err
	}
	in.parts = make([]*pivot.Partition, clients)
	in.ids = make([][]string, clients)
	for c, p := range parts {
		order := rng.Perm(w.N)
		if in.parts[c], err = p.SelectRows(order); err != nil {
			return nil, err
		}
		in.ids[c] = make([]string, w.N)
		for k, row := range order {
			in.ids[c][k] = fmt.Sprintf("u%07d", row)
		}
	}
	return in, nil
}

// byClient slices rows (global column order) into the per-client layout
// core.PredictSamples takes: out[c][t] is client c's columns of row t.
func byClient(parts []*pivot.Partition, rows [][]float64) [][][]float64 {
	out := make([][][]float64, len(parts))
	for c, p := range parts {
		out[c] = make([][]float64, len(rows))
		for t, row := range rows {
			local := make([]float64, len(p.Features))
			for j, f := range p.Features {
				local[j] = row[f]
			}
			out[c][t] = local
		}
	}
	return out
}
