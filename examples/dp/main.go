// Differential privacy (§9.2): training with the Laplace mechanism on the
// pruning/leaf queries and the exponential mechanism on split selection,
// all evaluated inside MPC so no client ever sees the noise.  The demo
// contrasts a tight and a generous per-query ε.
package main

import (
	"fmt"
	"log"

	pivot "repro"
	"repro/internal/dp"
)

func main() {
	ds := pivot.SyntheticClassification(80, 4, 2, 3.5, 21)

	for _, eps := range []float64{0.25, 16.0} {
		cfg := pivot.DefaultConfig()
		cfg.KeyBits = 256
		cfg.Tree = pivot.TreeHyper{MaxDepth: 2, MaxSplits: 3, MinSamplesSplit: 2}
		cfg.DP = &pivot.DPConfig{Epsilon: eps}

		fed, err := pivot.NewFederation(ds, 2, cfg)
		if err != nil {
			log.Fatal(err)
		}
		model, err := fed.Train(pivot.TrainSpec{Model: pivot.KindDT})
		if err != nil {
			log.Fatal(err)
		}
		correct := 0
		for i := 0; i < ds.N(); i++ {
			pred, err := fed.PredictAt(model, i)
			if err != nil {
				log.Fatal(err)
			}
			if pred == ds.Y[i] {
				correct++
			}
		}
		fed.Close()
		fmt.Printf("ε=%.1f per query (total %.1f-DP for depth %d): training accuracy %d/%d\n",
			eps, dp.TotalBudget(eps, cfg.Tree.MaxDepth), cfg.Tree.MaxDepth, correct, ds.N())
	}
	fmt.Println("smaller ε = more noise = lower accuracy, as in §9.2")
}
