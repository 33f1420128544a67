// Fault injection vs fault simulation: run a Monte-Carlo fault-injection
// campaign on the concrete simulator (the experimental technique of the
// paper's reference [1]) and contrast it with the model checker's
// exhaustive fault simulation under the same fault hypothesis. The campaign
// samples scenarios; the model checker covers all of them — the paper's
// central argument.
package main

import (
	"context"
	"fmt"
	"log"

	"ttastartup/internal/core"
	"ttastartup/internal/sim/mcfi"
	"ttastartup/internal/tta"
	"ttastartup/internal/tta/startup"
)

func main() {
	log.SetFlags(0)
	const n = 4
	const faulty = 1

	fmt.Println("=== Monte-Carlo fault injection (simulator) ===")
	sp := mcfi.Spec{N: n, Samples: 20000, Seed: 42, Degree: 6, Mix: map[string]int{"faulty-node": 1}}
	rep, err := mcfi.Run(context.Background(), sp, mcfi.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ks := rep.Kinds["faulty-node"]
	mean := 0.0
	if ks.Synced > 0 {
		mean = float64(ks.TotalStartup) / float64(ks.Synced)
	}
	fmt.Printf("%d randomized runs, one faulty node per run (drawn at random) at degree 6\n", ks.Runs)
	fmt.Printf("  synchronized: %d   agreement: %d   worst startup: %d slots   mean: %.1f\n",
		ks.Synced, ks.Runs-ks.Disagreements, ks.WorstStartup, mean)

	scenarios := tta.ScenarioCountStartup(n, (tta.Params{N: n}).DefaultDeltaInit())
	fmt.Printf("\nthe campaign sampled %d of ~%v power-on scenarios (and far fewer fault patterns)\n",
		ks.Runs, scenarios)

	fmt.Println("\n=== exhaustive fault simulation (model checker) ===")
	cfg := startup.DefaultConfig(n).WithFaultyNode(faulty)
	cfg.DeltaInit = n + 1 // quick scale; the full window multiplies runtime
	suite, err := core.NewSuite(cfg, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	count, err := suite.CountStates(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("symbolic engine covers ALL %v reachable states:\n", count)
	for _, l := range []core.Lemma{core.LemmaSafety, core.LemmaTimeliness} {
		r, err := suite.CheckCtx(context.Background(), l, core.EngineSymbolic)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(" ", r)
		if !r.Holds() {
			log.Fatal("unexpected violation")
		}
	}
	fmt.Println("\nthe proof covers every scenario of its configuration; the campaign only samples.")
}
