// Energy prediction — regression on the appliances-energy stand-in
// (Candanedo et al., the paper's third evaluation dataset): three building
// subsystems hold disjoint sensor columns; one holds the consumption labels.
// Demonstrates regression trees (variance gain, Eqn 6) and the per-phase
// cost breakdown.
package main

import (
	"fmt"
	"log"

	pivot "repro"
)

func main() {
	full := pivot.AppliancesEnergy(13)
	full.X = full.X[:100]
	full.Y = full.Y[:100]

	cfg := pivot.DefaultConfig()
	cfg.KeyBits = 256
	cfg.Tree = pivot.TreeHyper{MaxDepth: 3, MaxSplits: 4, MinSamplesSplit: 4, LeafOnZeroGain: true}

	fed, err := pivot.NewFederation(full, 3, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()

	mdl, err := fed.Train(pivot.TrainSpec{Model: pivot.KindDT})
	if err != nil {
		log.Fatal(err)
	}
	model := mdl.(*pivot.Model)

	var mse, baseline, mean float64
	for _, y := range full.Y {
		mean += y
	}
	mean /= float64(full.N())
	const nEval = 25
	for i := 0; i < nEval; i++ {
		pred, err := fed.PredictAt(model, i)
		if err != nil {
			log.Fatal(err)
		}
		mse += (pred - full.Y[i]) * (pred - full.Y[i])
		baseline += (mean - full.Y[i]) * (mean - full.Y[i])
	}
	fmt.Printf("regression tree: %d internal nodes\n", model.InternalNodes())
	fmt.Printf("training MSE %.4f vs mean-baseline %.4f\n", mse/nEval, baseline/nEval)

	st := fed.Stats()
	fmt.Printf("phase breakdown (client 0): local %v | conversion %v | mpc %v | update %v\n",
		st.Phases.LocalComputation, st.Phases.Conversion,
		st.Phases.MPCComputation, st.Phases.ModelUpdate)
}
