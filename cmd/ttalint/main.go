// Command ttalint runs the gcl static analyzer over the built-in TTA
// startup models and reports diagnostics (stable GCLnnn codes with model
// locations and, for the BDD-backed checks, concrete witnesses). Each
// model is a campaign job's, built by campaign.BuildModel, and is linted
// against the predicates of every lemma its topology defines. The job
// flags are ttamc's (campaign.BindJobFlags); the topology flag is
// -topology.
//
// Examples:
//
//	ttalint -n 3 -faulty-node 1 -degree 6
//	ttalint -topology bus -n 4 -faulty-node 0 -degree 3
//	ttalint -n 3 -faulty-node 1 -no-watchdog   (an ablation-table model)
//	ttalint -all            (sweep the 20 shipped configurations)
//	ttalint -all -j 8       (the sweep on eight workers)
//	ttalint -all -json      (machine-readable reports)
//
// The exit status is 1 when any model has an error-level diagnostic.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ttastartup/internal/bdd"
	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/gcl/lint"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ttalint:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	jobFlags := campaign.BindJobFlags(fs)
	var (
		topology  = fs.String("topology", "hub", "model topology: hub (star, the paper's main model) or bus (Section 3 baseline)")
		all       = fs.Bool("all", false, "lint every shipped configuration (both topologies, big-bang on/off, all fault degrees)")
		jsonOut   = fs.Bool("json", false, "emit JSON reports")
		nodeLimit = fs.Int("bdd-nodes", 0, "BDD node limit (0: default)")
		workers   = fs.Int("j", 1, "with -all, lint this many models concurrently (0: GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	jobs := []campaign.Job{jobFlags.Job(*topology)}
	if *all {
		jobs = allJobs(jobs[0].N)
	}

	// Build and lint on a bounded pool (each model gets its own analyzer
	// and BDD manager, so runs are independent); reports land at their
	// input index, keeping the output order deterministic regardless of
	// -j. Every check on a system shares one compiled context, and the
	// model's lemma predicates feed the cone-of-influence pass (GCL011).
	reports := make([]*lint.Report, len(jobs))
	err := campaign.ForEach(context.Background(), *workers, len(jobs), func(ctx context.Context, _, i int) error {
		m, err := campaign.BuildModel(jobs[i], core.Options{})
		if err != nil {
			return err
		}
		opts := lint.Options{
			BDD:      bdd.Config{NodeLimit: *nodeLimit},
			Preds:    m.Preds(),
			Compiled: m.Compiled(),
		}
		rep, lerr := lint.Run(m.Sys, opts)
		if lerr != nil {
			return fmt.Errorf("%s: %w", m.Sys.Name, lerr)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return err
	}

	errors := 0
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
		for _, rep := range reports {
			errors += rep.Count(lint.Error)
		}
	} else {
		for _, rep := range reports {
			rep.Format(stdout)
			errors += rep.Count(lint.Error)
		}
		fmt.Fprintf(stdout, "linted %d model(s): %d error-level diagnostic(s)\n", len(reports), errors)
	}
	if errors > 0 {
		return fmt.Errorf("%d error-level diagnostic(s)", errors)
	}
	return nil
}

// allJobs lists the sweep the regression gate runs: the hub-topology
// model with big-bang on and off, fault-free, with a faulty hub, and with a
// faulty node at every degree 1..6; plus the bus-topology baseline
// fault-free and at every degree 1..3. Only the configuration fields
// matter; lint checks every lemma of a model at once.
func allJobs(n int) []campaign.Job {
	var jobs []campaign.Job
	add := func(topology string, bigBang bool, faultyNode, faultyHub, degree int) {
		jobs = append(jobs, campaign.Job{Topology: topology, N: n, BigBang: bigBang,
			FaultyNode: faultyNode, FaultyHub: faultyHub, Degree: degree})
	}
	for _, bigBang := range []bool{true, false} {
		add(campaign.TopologyHub, bigBang, -1, -1, 0)
		add(campaign.TopologyHub, bigBang, -1, 0, 0)
		for deg := 1; deg <= 6; deg++ {
			add(campaign.TopologyHub, bigBang, 1, -1, deg)
		}
	}
	add(campaign.TopologyBus, false, -1, -1, 0)
	for deg := 1; deg <= 3; deg++ {
		add(campaign.TopologyBus, false, 1, -1, deg)
	}
	return jobs
}
