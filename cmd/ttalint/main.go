// Command ttalint runs the gcl static analyzer over the built-in TTA
// startup models and reports diagnostics (stable GCLnnn codes with model
// locations and, for the BDD-backed checks, concrete witnesses).
//
// Examples:
//
//	ttalint -n 3 -faulty-node 1 -degree 6
//	ttalint -topology bus -n 4 -faulty-node 0 -degree 3
//	ttalint -all            (sweep every shipped configuration)
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
	"os"

	"ttastartup/internal/bdd"
	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/lint"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ttalint:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n          = flag.Int("n", 3, "cluster size (number of nodes)")
		topology   = flag.String("topology", "hub", "model topology: hub (star, the paper's main model) or bus (Section 3 baseline)")
		faultyNode = flag.Int("faulty-node", -1, "inject a faulty node with this id (-1: none)")
		faultyHub  = flag.Int("faulty-hub", -1, "inject a faulty hub on this channel (-1: none, hub topology only)")
		degree     = flag.Int("degree", 6, "fault degree (hub topology: 1..6, bus: 1..3)")
		deltaInit  = flag.Int("delta-init", 0, "power-on window in slots (0: the paper's default)")
		noFeedback = flag.Bool("no-feedback", false, "disable the feedback state-space reduction")
		noBigBang  = flag.Bool("no-big-bang", false, "disable the big-bang mechanism")
		noILinks   = flag.Bool("no-interlinks", false, "sever the guardian interlinks")
		restart    = flag.Bool("restartable", false, "allow one transient restart per correct node")
		all        = flag.Bool("all", false, "lint every shipped configuration (both topologies, big-bang on/off, all fault degrees)")
		jsonOut    = flag.Bool("json", false, "emit JSON reports")
		nodeLimit  = flag.Int("bdd-nodes", 0, "BDD node limit (0: default)")
		workers    = flag.Int("j", 1, "with -all, lint this many models concurrently (0: GOMAXPROCS)")
	)
	flag.Parse()

	var targets []target
	if *all {
		var err error
		targets, err = allTargets(*n)
		if err != nil {
			return err
		}
	} else {
		tg, err := oneTarget(*topology, startupConfig(*n, *faultyNode, *faultyHub, *degree, *deltaInit,
			*noFeedback, *noBigBang, *noILinks, *restart), *faultyNode, *degree, *deltaInit)
		if err != nil {
			return err
		}
		targets = []target{tg}
	}

	// Lint on a bounded pool (each model gets its own analyzer and BDD
	// manager, so runs are independent); reports land at their input index,
	// keeping the output order deterministic regardless of -j. Every check
	// on a system shares one compiled context, and the model's lemma
	// predicates feed the cone-of-influence pass (GCL011).
	reports := make([]*lint.Report, len(targets))
	err := campaign.ForEach(context.Background(), *workers, len(targets), func(ctx context.Context, _, i int) error {
		tg := targets[i]
		opts := lint.Options{
			BDD:      bdd.Config{NodeLimit: *nodeLimit},
			Preds:    tg.preds,
			Compiled: tg.sys.Compile(),
		}
		rep, lerr := lint.Run(tg.sys, opts)
		if lerr != nil {
			return fmt.Errorf("%s: %w", tg.sys.Name, lerr)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return err
	}

	errors := 0
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
		for _, rep := range reports {
			errors += rep.Count(lint.Error)
		}
	} else {
		for _, rep := range reports {
			rep.Format(os.Stdout)
			errors += rep.Count(lint.Error)
		}
		fmt.Printf("linted %d model(s): %d error-level diagnostic(s)\n", len(reports), errors)
	}
	if errors > 0 {
		return fmt.Errorf("%d error-level diagnostic(s)", errors)
	}
	return nil
}

func startupConfig(n, faultyNode, faultyHub, degree, deltaInit int, noFeedback, noBigBang, noILinks, restart bool) startup.Config {
	cfg := startup.DefaultConfig(n)
	cfg.FaultyNode = faultyNode
	cfg.FaultyHub = faultyHub
	cfg.FaultDegree = degree
	cfg.DeltaInit = deltaInit
	cfg.Feedback = !noFeedback
	cfg.DisableBigBang = noBigBang
	cfg.DisableInterlinks = noILinks
	cfg.RestartableNodes = restart
	return cfg
}

// A target pairs a model's system with the lemma predicates checked
// against it, so the linter knows the properties' cones of influence.
type target struct {
	sys   *gcl.System
	preds []gcl.Expr
}

// hubTarget builds the hub model of cfg with the predicates of the
// lemmas ttamc checks on it, the paper's four and the sanity set, as
// core.Suite.Property states them.
func hubTarget(cfg startup.Config) (target, error) {
	s, err := core.NewSuite(cfg, core.Options{})
	if err != nil {
		return target{}, err
	}
	var preds []gcl.Expr
	for _, l := range append(core.AllLemmas(), core.SanityLemmas()...) {
		p, err := s.Property(l)
		if err != nil {
			return target{}, err
		}
		preds = append(preds, p.Pred)
	}
	return target{sys: s.Model.Sys, preds: preds}, nil
}

func busTarget(m *original.Model) target {
	return target{sys: m.Sys, preds: []gcl.Expr{m.Safety().Pred, m.Liveness().Pred}}
}

func oneTarget(topology string, cfg startup.Config, faultyNode, degree, deltaInit int) (target, error) {
	switch topology {
	case "hub":
		return hubTarget(cfg)
	case "bus":
		ocfg := original.DefaultConfig(cfg.N)
		ocfg.FaultyNode = faultyNode
		if faultyNode >= 0 {
			ocfg.FaultDegree = degree
		}
		ocfg.DeltaInit = deltaInit
		m, err := original.Build(ocfg)
		if err != nil {
			return target{}, err
		}
		return busTarget(m), nil
	default:
		return target{}, fmt.Errorf("unknown topology %q (want hub or bus)", topology)
	}
}

// allTargets builds the sweep the regression gate runs: the hub-topology
// model with big-bang on and off, fault-free, with a faulty hub, and with a
// faulty node at every degree 1..6; plus the bus-topology baseline
// fault-free and at every degree 1..3.
func allTargets(n int) ([]target, error) {
	var targets []target
	for _, bigBang := range []bool{true, false} {
		add := func(cfg startup.Config) error {
			cfg.DisableBigBang = !bigBang
			tg, err := hubTarget(cfg)
			if err != nil {
				return err
			}
			targets = append(targets, tg)
			return nil
		}
		if err := add(startup.DefaultConfig(n)); err != nil {
			return nil, err
		}
		if err := add(startup.DefaultConfig(n).WithFaultyHub(0)); err != nil {
			return nil, err
		}
		for deg := 1; deg <= 6; deg++ {
			cfg := startup.DefaultConfig(n).WithFaultyNode(1)
			cfg.FaultDegree = deg
			if err := add(cfg); err != nil {
				return nil, err
			}
		}
	}
	addBus := func(cfg original.Config) error {
		m, err := original.Build(cfg)
		if err != nil {
			return err
		}
		targets = append(targets, busTarget(m))
		return nil
	}
	if err := addBus(original.DefaultConfig(n)); err != nil {
		return nil, err
	}
	for deg := 1; deg <= 3; deg++ {
		cfg := original.DefaultConfig(n)
		cfg.FaultyNode = 1
		cfg.FaultDegree = deg
		if err := addBus(cfg); err != nil {
			return nil, err
		}
	}
	return targets, nil
}
