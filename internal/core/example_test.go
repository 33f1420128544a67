package core_test

import (
	"context"
	"fmt"
	"log"

	"ttastartup/internal/core"
	"ttastartup/internal/tta/startup"
)

// ExampleSuite_CheckCtx verifies the agreement lemma against a maximally
// faulty node with the symbolic engine.
func ExampleSuite_CheckCtx() {
	cfg := startup.DefaultConfig(3).WithFaultyNode(1)
	cfg.DeltaInit = 4 // small power-on window; the paper uses 8·round

	suite, err := core.NewSuite(cfg, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := suite.CheckCtx(context.Background(), core.LemmaSafety, core.EngineSymbolic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Property.Name, res.Verdict)
	// Output:
	// safety holds
}

// ExampleSuite_WorstCaseStartup sweeps the timeliness bound until the
// model checker stops producing counterexamples (paper Section 5.3).
func ExampleSuite_WorstCaseStartup() {
	cfg := startup.DefaultConfig(3).WithFaultyNode(0)
	cfg.DeltaInit = 4
	suite, err := core.NewSuite(cfg, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := suite.WorstCaseStartup(context.Background(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured w_sup: %d slots (paper formula: %d)\n", res.WSup, res.PaperWSup)
	// Output:
	// measured w_sup: 12 slots (paper formula: 16)
}
