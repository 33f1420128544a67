// Command ttasim runs one traced simulation of the TTA startup algorithm:
// scenario -index of the Monte-Carlo campaign that ttasimfuzz runs with the
// same spec flags.
//
// The scenario flags (-n -seed -delta-init -max-slots -degree -mix
// -no-big-bang) are ttasimfuzz's: both commands declare them through
// mcfi.BindScenarioFlags, and the scenario expands through the same
// mcfi.Spec.Scenario. `ttasim -seed 7 -index K` therefore reproduces,
// with a full trace, corpus entry K of `ttasimfuzz -seed 7`; ttasimfuzz
// is the campaign CLI.
//
// Examples:
//
//	ttasim -n 4                                       scenario 0 of the default mix
//	ttasim -n 4 -seed 7 -index 3 -json                reproduce campaign run 3
//	ttasim -n 4 -mix faulty-node:1 -degree 6 -seed 7  one traced faulty-node run
//	ttasim -n 5 -mix fault-free:1 -no-big-bang        the Section 5.2 variant
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ttastartup/internal/sim/mcfi"
	"ttastartup/internal/tta/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ttasim:", err)
		os.Exit(1)
	}
}

func run() error {
	scenario := mcfi.BindScenarioFlags(flag.CommandLine)
	var (
		index   = flag.Uint64("index", 0, "which campaign scenario to run")
		jsonOut = flag.Bool("json", false, "emit the result as JSON on stdout instead of the trace")
	)
	flag.Parse()

	sp, err := scenario.Spec()
	if err != nil {
		return err
	}
	sp = sp.Normalize()
	s, err := sp.Scenario(*index)
	if err != nil {
		return err
	}

	var trace func(*sim.Cluster)
	if !*jsonOut {
		fmt.Printf("scenario %d (%s), derived seed %d\n", *index, s.Describe(), s.Seed)
		trace = func(c *sim.Cluster) { fmt.Println(c.Describe()) }
	}
	out, err := s.Execute(trace)
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeJSON(runJSON{
			N: sp.N, Index: *index, Seed: sp.Seed, DerivedSeed: s.Seed,
			Scenario: s.Describe(), Synced: out.Synced, Agreement: out.Agreement,
			Startup: out.Startup, Slots: out.Slots, Bound: sp.Bound(),
		})
	}
	fmt.Printf("synchronized=%v agreement=%v startup-time=%d slots\n",
		out.Synced, out.Agreement, out.Startup)
	if !out.Synced {
		return fmt.Errorf("cluster failed to synchronize within %d slots", sp.MaxSlots)
	}
	return nil
}

type runJSON struct {
	N           int    `json:"n"`
	Index       uint64 `json:"index"`
	Seed        int64  `json:"seed"`
	DerivedSeed int64  `json:"derived_seed"`
	Scenario    string `json:"scenario"`
	Synced      bool   `json:"synced"`
	Agreement   bool   `json:"agreement"`
	Startup     int    `json:"startup"`
	Slots       int    `json:"slots"`
	Bound       int    `json:"bound"`
}

func writeJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
