// Command alignment demonstrates the paper's initialization stage (§3.1):
// three organizations hold overlapping but not identical customer bases,
// privately align their common customers with DDH-based private set
// intersection (nothing is revealed about customers outside the overlap),
// and then train a Pivot decision tree on the aligned vertical federation.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	pivot "repro"
)

func main() {
	// A shared universe of customers; each organization sees a different,
	// partially overlapping subset with its own feature columns.
	const universe = 260
	ds := pivot.SyntheticClassification(universe, 9, 2, 2.0, 11)
	parts, err := pivot.VerticalPartition(ds, 3, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Build each organization's customer list: everyone keeps a random ~80%
	// of the universe, in its own local order.
	rng := rand.New(rand.NewPCG(42, 7))
	ids := make([][]string, 3)
	for c := range parts {
		keep := rng.Perm(universe)
		n := universe * 4 / 5
		rows := append([]int(nil), keep[:n]...)
		part, err := parts[c].SelectRows(rows)
		if err != nil {
			log.Fatal(err)
		}
		parts[c] = part
		for _, r := range rows {
			ids[c] = append(ids[c], fmt.Sprintf("customer-%04d", r))
		}
		fmt.Printf("org %d: %d customers, %d feature columns\n", c, len(ids[c]), len(parts[c].Features))
	}

	// Initialization stage: PSI alignment + session bring-up.  The 512-bit
	// demo group keeps this instant; production uses DefaultPSIGroup.
	cfg := pivot.DefaultConfig()
	cfg.KeyBits = 256
	cfg.Tree = pivot.TreeHyper{MaxDepth: 3, MaxSplits: 4, MinSamplesSplit: 2, LeafOnZeroGain: true}
	fed, common, err := pivot.NewAlignedFederation(parts, ids, pivot.TestPSIGroup(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()
	fmt.Printf("\nPSI alignment: %d customers in common (e.g. %s ... %s)\n",
		len(common), common[0], common[len(common)-1])

	// Train on the aligned federation and sanity-check a few predictions.
	mdl, err := fed.Train(pivot.TrainSpec{Model: pivot.KindDT})
	if err != nil {
		log.Fatal(err)
	}
	model := mdl.(*pivot.Model)
	fmt.Printf("trained a Pivot decision tree with %d nodes on the aligned data\n", len(model.Nodes))

	correct := 0
	const probe = 20
	for i := 0; i < probe; i++ {
		pred, err := fed.PredictAt(model, i)
		if err != nil {
			log.Fatal(err)
		}
		if pred == fed.Parts()[0].Y[i] {
			correct++
		}
	}
	fmt.Printf("training-set predictions: %d/%d correct\n", correct, probe)
}
