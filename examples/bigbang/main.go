// Big-bang design exploration (paper Section 5.2): disable the big-bang
// mechanism, let the model checker find the clique counterexample — two
// groups of nodes synchronised to different schedules — and show that the
// bounded (SAT) engine finds the same shallow bug, then confirm the fixed
// design verifies. This reproduces the use of model checking in the
// design loop.
package main

import (
	"context"
	"fmt"
	"log"

	"ttastartup/internal/core"
	"ttastartup/internal/mc"
	"ttastartup/internal/tta/startup"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	cfg := startup.DefaultConfig(3).WithFaultyHub(0)
	cfg.DeltaInit = 6

	fmt.Println("=== design variant: big-bang mechanism DISABLED ===")
	off := cfg
	off.DisableBigBang = true
	broken, err := core.NewSuite(off, core.Options{BMCDepth: 20})
	if err != nil {
		log.Fatal(err)
	}
	sym, err := broken.CheckCtx(ctx, core.LemmaSafety2, core.EngineSymbolic)
	if err != nil {
		log.Fatal(err)
	}
	bounded, err := broken.CheckCtx(ctx, core.LemmaSafety2, core.EngineBMC)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("symbolic engine: %v in %v\n", sym.Verdict, sym.Stats.Duration)
	fmt.Printf("bounded engine:  %v at depth %d (%d SAT conflicts) in %v\n",
		bounded.Verdict, bounded.Stats.Iterations, bounded.Stats.Conflicts, bounded.Stats.Duration)

	if sym.Verdict != mc.Violated {
		log.Fatal("expected a safety violation without the big-bang mechanism")
	}

	// Render the clique scenario, the analogue of the paper's six-step
	// counterexample: a cs-frame collision that the faulty hub forwards
	// selectively, leaving two subsets on different rounds.
	fmt.Println("\nclique counterexample (changed variables per slot):")
	fmt.Print(sym.Trace.Format(broken.Model.Sys))

	fmt.Println("\n=== final design: big-bang mechanism ENABLED ===")
	suite, err := core.NewSuite(cfg, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fixed, err := suite.CheckCtx(ctx, core.LemmaSafety2, core.EngineSymbolic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("symbolic engine: %v in %v\n", fixed.Verdict, fixed.Stats.Duration)
	if fixed.Verdict != mc.Holds {
		log.Fatal("the final design should verify")
	}
	fmt.Println("\nthe big-bang mechanism is necessary and sufficient here, as the paper found.")
}
