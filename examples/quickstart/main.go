// Quickstart: build the TTA startup model for a 3-node cluster with a
// maximally faulty node (fault degree 6) and verify the paper's lemmas
// with the symbolic model checker — the core "exhaustive fault simulation"
// workflow in under a minute, run as a small verification campaign on a
// worker pool with live progress.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/gcl/lint"
	"ttastartup/internal/tta/startup"
)

func main() {
	log.SetFlags(0)

	// A 3-node cluster; node 1 is faulty and may emit, every slot and per
	// channel, anything the fault hypothesis allows (degree 6: quiet,
	// correct or masquerading cs-/i-frames, noise).
	cfg := startup.DefaultConfig(3).WithFaultyNode(1)
	cfg.DeltaInit = 6 // power-on window in slots (8·round reproduces the paper)

	suite, err := core.NewSuite(cfg, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Static analysis before model checking: verifying lemmas against a
	// model with error-level defects (unreachable commands, out-of-domain
	// updates) proves nothing about the algorithm.
	lintRep, err := lint.Run(suite.Model.Sys, lint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static analysis: %s\n", lintRep.Summary())
	if errs := lintRep.Errors(); len(errs) > 0 {
		for _, d := range errs {
			log.Println("lint:", d)
		}
		log.Fatal("model has error-level lint diagnostics")
	}

	count, err := suite.CountStates(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %d nodes, faulty node %d at fault degree %d\n",
		cfg.N, cfg.FaultyNode, cfg.FaultDegree)
	fmt.Printf("reachable states: %v\n\n", count)

	// The exhaustive fault simulation as a campaign: one job per lemma the
	// paper checks against a faulty node (Figs. 6(a)-(c)), executed on a
	// worker pool with per-job progress lines. The same API scales this
	// sweep to every configuration (see cmd/ttacampaign).
	var jobs []campaign.Job
	for _, l := range []core.Lemma{core.LemmaSafety, core.LemmaLiveness, core.LemmaTimeliness} {
		jobs = append(jobs, campaign.Job{
			Topology:   campaign.TopologyHub,
			N:          cfg.N,
			BigBang:    true,
			FaultyNode: cfg.FaultyNode,
			FaultyHub:  -1,
			Degree:     cfg.FaultDegree,
			DeltaInit:  cfg.DeltaInit,
			Lemma:      l.String(),
			Engine:     "symbolic",
		})
	}
	report, err := campaign.RunJobs(context.Background(), jobs, campaign.RunOptions{
		Workers:  len(jobs), // one worker per lemma; each builds its own suite
		Progress: &campaign.TextProgress{W: os.Stdout},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	allHold := true
	for _, job := range jobs {
		rec, ok := report.Record(job)
		if !ok || !rec.Holds {
			allHold = false
		}
		if ok {
			fmt.Printf("  %-12s %-8s (%v, engine %s)\n", job.Lemma, rec.Verdict, rec.Wall(), rec.Stats.Engine)
		}
	}
	if allHold {
		fmt.Println("\nall lemmas hold: the startup algorithm tolerates the faulty node.")
	} else {
		fmt.Println("\nLEMMA VIOLATED — rerun with ttamc -cex for the counterexample.")
	}
}
