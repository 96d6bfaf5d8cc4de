// Credit scoring — the paper's Figure 1 scenario.  A bank (which holds
// account features and the approval labels) and a fintech company (which
// holds transaction features) jointly train a credit model with the
// *enhanced* protocol, so that even the trained model's thresholds and leaf
// decisions stay hidden from each party; predictions are produced jointly.
package main

import (
	"fmt"
	"log"

	pivot "repro"
)

func main() {
	// Stand-in for the credit-card dataset (30000x25 in the paper; a slice
	// keeps the demo fast).  Client 0 = bank (has labels), client 1 =
	// fintech.
	full := pivot.CreditCard(7)
	full.X = full.X[:120]
	full.Y = full.Y[:120]
	train, test := pivot.Split(full, 0.2, 11)

	cfg := pivot.DefaultConfig()
	cfg.Protocol = pivot.Enhanced // conceal thresholds and leaf labels
	cfg.KeyBits = 256
	cfg.Tree = pivot.TreeHyper{MaxDepth: 3, MaxSplits: 4, MinSamplesSplit: 2, LeafOnZeroGain: true}

	fed, err := pivot.NewFederation(train, 2, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()

	mdl, err := fed.Train(pivot.TrainSpec{Model: pivot.KindDT})
	if err != nil {
		log.Fatal(err)
	}
	model := mdl.(*pivot.Model)
	fmt.Printf("enhanced model: %d internal nodes; thresholds encrypted: %v\n",
		model.InternalNodes(), model.Nodes[0].EncThreshold != nil)

	// What each party can inspect of the released model: tree shape and
	// split ownership, but no thresholds or decisions.
	fmt.Println("\nreleased model as either party sees it:")
	fmt.Print(model.String())
	fmt.Println()

	// Score incoming applications: both parties contribute their columns
	// as secret shares; neither learns the other's values or the path.
	testParts, err := pivot.VerticalPartition(test, 2, 0)
	if err != nil {
		log.Fatal(err)
	}
	correct, n := 0, 10
	for i := 0; i < n; i++ {
		pred, err := fed.PredictOne(model, [][]float64{testParts[0].X[i], testParts[1].X[i]})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "reject"
		if pred == 1 {
			verdict = "approve"
		}
		hit := ""
		if pred == test.Y[i] {
			correct++
			hit = " (matches ground truth)"
		}
		fmt.Printf("application %2d -> %s%s\n", i, verdict, hit)
	}
	fmt.Printf("held-out agreement: %d/%d\n", correct, n)
}
