// pivot-train trains a Pivot model over a CSV dataset, simulating the m
// vertically federated clients in one process, and writes the trained model
// as JSON.
//
// Usage:
//
//	pivot-train -data data.csv -classes 2 -m 3 -model dt -protocol basic \
//	            -depth 4 -splits 8 -out model.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	pivot "repro"
	"repro/internal/core"
)

func main() {
	dataPath := flag.String("data", "", "input CSV (features..., label)")
	classes := flag.Int("classes", 0, "number of classes (0 = regression)")
	m := flag.Int("m", 3, "number of clients")
	modelKind := flag.String("model", "dt", "dt | rf | gbdt")
	protocol := flag.String("protocol", "basic", "basic | enhanced (dt only)")
	hide := flag.String("hide", "threshold", "enhanced hide level: threshold | feature | client (§5.2)")
	criterion := flag.String("criterion", "gini", "classification split criterion: gini | entropy | gain-ratio")
	depth := flag.Int("depth", 4, "max tree depth h")
	splits := flag.Int("splits", 8, "max splits per feature b")
	trees := flag.Int("trees", 4, "ensemble trees W")
	keyBits := flag.Int("keybits", 512, "threshold Paillier key size")
	workers := flag.Int("workers", 1, "parallel decryption workers (-PP)")
	malicious := flag.Bool("malicious", false, "enable the malicious-model extension")
	epsilon := flag.Float64("dp", 0, "differential privacy ε per query (0 = off)")
	out := flag.String("out", "model.json", "output model path (dt only)")
	print := flag.Bool("print", false, "print the released model (concealed fields as placeholders)")
	dot := flag.String("dot", "", "also write the model as Graphviz dot to this path (dt only)")
	update := flag.String("update", "", "trained model JSON to warm-start instead of training from scratch: absorb -append into it (incremental training, basic dt)")
	appendPath := flag.String("append", "", "CSV of appended labelled samples for -update")
	flag.Parse()

	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "pivot-train: -data is required")
		os.Exit(2)
	}
	proto := pivot.Basic
	switch *protocol {
	case "basic":
	case "enhanced":
		proto = pivot.Enhanced
	default:
		fmt.Fprintf(os.Stderr, "pivot-train: unknown protocol %q (basic | enhanced)\n", *protocol)
		os.Exit(2)
	}
	ds, err := pivot.LoadCSVFile(*dataPath, *classes)
	if err != nil {
		fail(err)
	}

	cfg := pivot.DefaultConfig()
	cfg.KeyBits = *keyBits
	cfg.Workers = *workers
	cfg.Malicious = *malicious
	cfg.NumTrees = *trees
	cfg.Tree = pivot.TreeHyper{MaxDepth: *depth, MaxSplits: *splits, MinSamplesSplit: 2, LeafOnZeroGain: true}
	cfg.Protocol = proto
	switch *hide {
	case "threshold":
		cfg.Hide = pivot.HideThreshold
	case "feature":
		cfg.Hide = pivot.HideFeature
	case "client":
		cfg.Hide = pivot.HideClient
	default:
		fmt.Fprintf(os.Stderr, "pivot-train: unknown hide level %q\n", *hide)
		os.Exit(2)
	}
	switch *criterion {
	case "gini":
		cfg.Tree.Criterion = pivot.Gini
	case "entropy":
		cfg.Tree.Criterion = pivot.Entropy
	case "gain-ratio":
		cfg.Tree.Criterion = pivot.GainRatio
	default:
		fmt.Fprintf(os.Stderr, "pivot-train: unknown criterion %q\n", *criterion)
		os.Exit(2)
	}
	if *epsilon > 0 {
		cfg.DP = &pivot.DPConfig{Epsilon: *epsilon}
	}

	fed, err := pivot.NewFederation(ds, *m, cfg)
	if err != nil {
		fail(err)
	}
	defer fed.Close()

	// Warm start: replay the released tree over old+new rows and re-resolve
	// only the leaves, instead of a full retrain (-data is the original
	// training set, -append the new batch).
	if *update != "" {
		if *appendPath == "" {
			fmt.Fprintln(os.Stderr, "pivot-train: -update requires -append")
			os.Exit(2)
		}
		f, err := os.Open(*update)
		if err != nil {
			fail(err)
		}
		model, err := core.LoadModel(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		ups, err := pivot.LoadCSVFile(*appendPath, *classes)
		if err != nil {
			fail(err)
		}
		start := time.Now()
		refreshed, err := fed.Update(model, ups, 0)
		if err != nil {
			fail(err)
		}
		out2, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := refreshed.(*pivot.Model).Save(out2); err != nil {
			fail(err)
		}
		out2.Close()
		fmt.Printf("absorbed %d samples into %s (leaves refreshed, structure kept) -> %s\n",
			ups.N(), *update, *out)
		st := fed.Stats()
		fmt.Printf("wall %v | encryptions %d | MPC rounds %d | bytes sent %d\n",
			time.Since(start).Round(time.Millisecond), st.Encryptions, st.MPC.Rounds, st.BytesSent)
		return
	}

	start := time.Now()
	switch *modelKind {
	case "dt":
		mdl, err := fed.Train(pivot.TrainSpec{Model: pivot.KindDT})
		if err != nil {
			fail(err)
		}
		model := mdl.(*pivot.Model)
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := model.Save(f); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Printf("trained %s decision tree: %d internal nodes, %d leaves -> %s\n",
			*protocol, model.InternalNodes(), model.Leaves, *out)
		if *print {
			fmt.Print(model.String())
		}
		if *dot != "" {
			if err := os.WriteFile(*dot, []byte(model.Dot()), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote Graphviz rendering -> %s\n", *dot)
		}
	case "rf":
		mdl, err := fed.Train(pivot.TrainSpec{Model: pivot.KindRF})
		if err != nil {
			fail(err)
		}
		fmt.Printf("trained random forest: %d trees\n", len(mdl.(*pivot.ForestModel).Trees))
	case "gbdt":
		mdl, err := fed.Train(pivot.TrainSpec{Model: pivot.KindGBDT})
		if err != nil {
			fail(err)
		}
		bm := mdl.(*pivot.BoostModel)
		total := 0
		for _, f := range bm.Forests {
			total += len(f)
		}
		fmt.Printf("trained GBDT: %d trees across %d forests\n", total, len(bm.Forests))
	default:
		fmt.Fprintf(os.Stderr, "pivot-train: unknown model %q\n", *modelKind)
		os.Exit(2)
	}
	st := fed.Stats()
	fmt.Printf("wall %v | encryptions %d | threshold-dec shares %d | MPC mults %d | bytes sent %d\n",
		time.Since(start).Round(time.Millisecond), st.Encryptions, st.DecShares, st.MPC.Mults, st.BytesSent)
	printPhases(st)
}

func printPhases(st core.RunStats) {
	fmt.Printf("phases: local %v | conversion %v | mpc %v | update %v\n",
		st.Phases.LocalComputation.Round(time.Millisecond),
		st.Phases.Conversion.Round(time.Millisecond),
		st.Phases.MPCComputation.Round(time.Millisecond),
		st.Phases.ModelUpdate.Round(time.Millisecond))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pivot-train:", err)
	os.Exit(1)
}
