package mcfi_test

import (
	"context"
	"fmt"
	"log"

	"ttastartup/internal/sim/mcfi"
)

// ExampleRun runs a small Monte-Carlo fault-injection campaign against a
// degree-6 faulty node.
func ExampleRun() {
	sp := mcfi.Spec{N: 4, Samples: 500, Seed: 7, Degree: 6, Mix: map[string]int{"faulty-node": 1}}
	rep, err := mcfi.Run(context.Background(), sp, mcfi.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ks := rep.Kinds["faulty-node"]
	fmt.Println("agreement violations:", ks.Disagreements)
	fmt.Println("worst startup within verified bound:", ks.WorstStartup <= rep.Bound)
	// Output:
	// agreement violations: 0
	// worst startup within verified bound: true
}
