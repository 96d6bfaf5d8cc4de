// Command concealed demonstrates the enhanced protocol's hide levels (§5 and
// the §5.2 discussion): the same data is trained three times —
//
//   - hide-threshold: the paper's enhanced protocol; split thresholds and
//     leaf labels are Paillier ciphertexts, owner and feature stay public
//   - hide-feature: the split feature j* is concealed too
//   - hide-client: even the owning client i* is concealed; the released
//     model reveals nothing but the tree shape
//
// and the program prints what an adversary holding the released model would
// actually see at each level, then verifies that the secret-shared
// prediction protocol still produces correct outputs on all three.
package main

import (
	"fmt"
	"log"

	pivot "repro"
)

func main() {
	ds := pivot.SyntheticClassification(60, 6, 2, 2.5, 19)

	levels := []struct {
		level pivot.HideLevel
		name  string
	}{
		{pivot.HideThreshold, "hide-threshold (§5, the paper's enhanced protocol)"},
		{pivot.HideFeature, "hide-feature   (§5.2 discussion)"},
		{pivot.HideClient, "hide-client    (§5.2 discussion, maximum concealment)"},
	}

	for _, lv := range levels {
		cfg := pivot.DefaultConfig()
		cfg.KeyBits = 256
		cfg.Protocol = pivot.Enhanced
		cfg.Hide = lv.level
		cfg.Tree = pivot.TreeHyper{MaxDepth: 2, MaxSplits: 3, MinSamplesSplit: 2, LeafOnZeroGain: true}

		fed, err := pivot.NewFederation(ds, 3, cfg)
		if err != nil {
			log.Fatal(err)
		}
		mdl, err := fed.Train(pivot.TrainSpec{Model: pivot.KindDT})
		if err != nil {
			log.Fatal(err)
		}
		model := mdl.(*pivot.Model)

		fmt.Printf("== %s\n", lv.name)
		fmt.Println("   released model, node by node (adversary's view):")
		for i, n := range model.Nodes {
			if n.Leaf {
				fmt.Printf("   leaf %d: label=<encrypted>\n", i)
				continue
			}
			owner, feature := fmt.Sprint(n.Owner), fmt.Sprint(n.Feature)
			if n.Owner < 0 {
				owner = "<hidden>"
			}
			if n.Feature < 0 {
				feature = "<hidden>"
			}
			fmt.Printf("   node %d: owner=%s feature=%s threshold=<encrypted>\n", i, owner, feature)
		}

		correct := 0
		const probe = 15
		for i := 0; i < probe; i++ {
			pred, err := fed.PredictAt(model, i) // secret-shared prediction (§5.2)
			if err != nil {
				log.Fatal(err)
			}
			if pred == ds.Y[i] {
				correct++
			}
		}
		st := fed.Stats()
		fmt.Printf("   prediction via MPC: %d/%d training samples correct | %d threshold decryptions total\n\n",
			correct, probe, st.DecShares)
		fed.Close()
	}
}
