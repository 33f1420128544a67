// Command ttamc model checks the TTA startup algorithm: it builds the
// cluster model for the requested configuration and verifies the paper's
// lemmas with the chosen engine.
//
// Examples:
//
//	ttamc -n 3 -faulty-node 1 -degree 6 -lemma safety,liveness
//	ttamc -n 4 -faulty-hub 0 -lemma safety_2 -cex
//	ttamc -n 3 -no-big-bang -faulty-hub 0 -lemma safety -cex     (Section 5.2)
//	ttamc -n 3 -engine bmc -depth 20 -lemma safety
//	ttamc -n 3 -wcsup                                            (Section 5.3)
//	ttamc -n 3 -restartable -recovery                            (Section 2.1 restart)
//	ttamc -n 3 -no-interlinks -faulty-node 1 -lemma sanity       (future-work variant)
//	ttamc -n 3 -dump-model                                       (SAL-like model dump)
//	ttamc -model bus -lemma safety -engine ic3                   (original bus design)
//	ttamc -lemma safety -trace out.json -metrics -pprof :6060    (observability)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ttastartup/internal/bdd"
	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/lint"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/obs"
	"ttastartup/internal/tta"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttamc:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		n          = fs.Int("n", 3, "cluster size (number of nodes)")
		faultyNode = fs.Int("faulty-node", -1, "inject a faulty node with this id (-1: none)")
		faultyHub  = fs.Int("faulty-hub", -1, "inject a faulty hub on this channel (-1: none)")
		degree     = fs.Int("degree", 6, "fault degree δ_failure (1..6, Fig. 3)")
		deltaInit  = fs.Int("delta-init", 0, "power-on window in slots (0: the paper's 8·round)")
		noFeedback = fs.Bool("no-feedback", false, "disable the feedback state-space reduction")
		noBigBang  = fs.Bool("no-big-bang", false, "disable the big-bang mechanism (Section 5.2 variant)")
		noILinks   = fs.Bool("no-interlinks", false, "sever the guardian interlinks (the conclusion's future-work variant)")
		noCSPrio   = fs.Bool("no-cs-priority", false, "ablation: drop valid-cs preference in guardian arbitration")
		noCSWin    = fs.Bool("no-cs-window", false, "ablation: drop the nodes' cold-start acceptance window")
		noWatchdog = fs.Bool("no-watchdog", false, "ablation: drop the guardians' ACTIVE silence watchdog")
		dumpModel  = fs.Bool("dump-model", false, "print the model in guarded-command (SAL-like) form and exit")
		lemmas     = fs.String("lemma", "safety,liveness,timeliness", "comma-separated lemmas: safety, liveness, timeliness, safety_2, sanity")
		engine     = fs.String("engine", "symbolic", "engine: symbolic, explicit, bmc, induction, ic3")
		depth      = fs.Int("depth", 0, "bmc unrolling depth (0: 2·w_sup)")
		bound      = fs.Int("bound", 0, "timeliness bound in slots (0: w_sup + round)")
		cex        = fs.Bool("cex", false, "print counterexample traces")
		wcsup      = fs.Bool("wcsup", false, "explore the worst-case startup time (Section 5.3)")
		recovery   = fs.Bool("recovery", false, "check the CTL recovery property AG(AF all-active)")
		restart    = fs.Bool("restartable", false, "allow one transient restart per correct node (the Section 2.1 restart problem)")
		count      = fs.Bool("count", false, "report the exact reachable-state count")
		timeout    = fs.Duration("timeout", 0, "per-lemma budget; exceeding it reports INCONCLUSIVE (deadline) (0: none)")
		nodeLimit  = fs.Int("bdd-nodes", 0, "BDD node limit (0: default)")
		reorder    = fs.Bool("reorder", false, "enable dynamic BDD variable reordering (pair-grouped sifting) in the symbolic engine")
		optimize   = fs.Bool("opt", false, "run the static model-optimization pipeline (COI slicing, constant propagation, range narrowing) before checking; counterexamples are inflated back to the full model")
		lintMode   = fs.String("lint", "on", "static analysis gate: on (refuse error-level diagnostics), warn (also print warnings), off")
		model      = fs.String("model", "hub", "topology: hub (star, central guardians) or bus (the paper's original design)")
		tracePath  = fs.String("trace", "", "write a Chrome trace_event JSON file here (view in chrome://tracing or Perfetto)")
		spanlog    = fs.String("spanlog", "", "append one JSON line per finished span to this file")
		metrics    = fs.Bool("metrics", false, "dump the metrics registry after the run")
		pprofAddr  = fs.String("pprof", "", "serve /debug/pprof and /metricsz on this address (e.g. :6060)")
		heartbeat  = fs.Duration("heartbeat", 0, "print a one-line progress summary at this interval (0: off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scope, obsDone, err := obs.Setup(obs.SetupOptions{
		TracePath: *tracePath,
		SpanLog:   *spanlog,
		Metrics:   *metrics,
		PprofAddr: *pprofAddr,
		Heartbeat: *heartbeat,
	})
	if err != nil {
		return err
	}
	defer func() {
		if derr := obsDone(); derr != nil && err == nil {
			err = derr
		}
	}()

	if *model == "bus" {
		// The bus model has exactly the paper's two properties and fault
		// degrees 1..3; keep the hub defaults only when set explicitly.
		lemmaSet, degSet := false, false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "lemma":
				lemmaSet = true
			case "degree":
				degSet = true
			}
		})
		if !lemmaSet {
			*lemmas = "safety,liveness"
		}
		if !degSet {
			*degree = 3
		}
		if *faultyHub >= 0 || *wcsup || *recovery || *count || *restart {
			return fmt.Errorf("-faulty-hub, -wcsup, -recovery, -count and -restartable apply to the hub model only")
		}
		return runBus(scope, *n, *faultyNode, *degree, *deltaInit, *lemmas,
			*engine, *depth, *nodeLimit, *reorder, *optimize, *cex, *dumpModel, *lintMode, *timeout)
	}
	if *model != "hub" {
		return fmt.Errorf("unknown -model %q (want hub or bus)", *model)
	}

	cfg := startup.DefaultConfig(*n)
	cfg.FaultyNode = *faultyNode
	cfg.FaultyHub = *faultyHub
	cfg.FaultDegree = *degree
	cfg.DeltaInit = *deltaInit
	cfg.Feedback = !*noFeedback
	cfg.DisableBigBang = *noBigBang
	cfg.DisableInterlinks = *noILinks
	cfg.DisableCSPriority = *noCSPrio
	cfg.DisableCSWindow = *noCSWin
	cfg.DisableWatchdog = *noWatchdog
	cfg.RestartableNodes = *restart

	opts := core.Options{
		Symbolic:        symbolic.Options{BDD: bdd.Config{NodeLimit: *nodeLimit, AutoReorder: *reorder}},
		Explicit:        explicit.Options{},
		BMCDepth:        *depth,
		TimelinessBound: *bound,
		Opt:             *optimize,
		Obs:             scope,
	}
	suite, err := core.NewSuite(cfg, opts)
	if err != nil {
		return err
	}
	fmt.Printf("model: %s  (faulty-node=%d faulty-hub=%d degree=%d δ_init=%d big-bang=%v feedback=%v)\n",
		suite.Model.Sys.Name, cfg.FaultyNode, cfg.FaultyHub, cfg.FaultDegree,
		cfg.DeltaInit, !cfg.DisableBigBang, cfg.Feedback)

	var lintPreds []gcl.Expr
	for _, l := range append(core.AllLemmas(), core.SanityLemmas()...) {
		if p, perr := suite.Property(l); perr == nil {
			lintPreds = append(lintPreds, p.Pred)
		}
	}
	if err := lintGate(suite.Model.Sys, lintPreds, suite.Compiled(), *lintMode, *nodeLimit); err != nil {
		return err
	}

	if *dumpModel {
		return suite.Model.Sys.WriteModel(os.Stdout)
	}

	if *count {
		c, err := suite.CountStates()
		if err != nil {
			return err
		}
		fmt.Printf("reachable states: %v\n", c)
	}

	if *wcsup {
		res, err := suite.WorstCaseStartup(0)
		if err != nil {
			return err
		}
		for _, p := range res.Probes {
			verdict := "counterexample"
			if p.Holds {
				verdict = "holds"
			}
			fmt.Printf("  timeliness(%2d): %-14s %v\n", p.Bound, verdict, p.Duration.Round(1000000))
		}
		fmt.Printf("worst-case startup time: %d slots (paper formula 7n-5 = %d)\n", res.WSup, res.PaperWSup)
		return nil
	}

	eng, err := core.ParseEngine(*engine)
	if err != nil {
		return err
	}

	if *recovery {
		res, err := suite.CheckRecovery(eng)
		if err != nil {
			return err
		}
		printResult(res)
		if !res.Holds() {
			return fmt.Errorf("recovery property violated")
		}
		return nil
	}

	list, err := core.ParseLemmas(*lemmas)
	if err != nil {
		return err
	}

	return checkLemmas(list, eng, *timeout, *cex,
		func(ctx context.Context, l core.Lemma) (*mc.Result, error) { return suite.CheckCtx(ctx, l, eng) },
		func(t *mc.Trace) {
			fmt.Println("counterexample timeline:")
			fmt.Print(suite.Model.FormatTimeline(t))
			fmt.Println("\nvariable-level trace:")
			fmt.Println(t.Format(suite.Model.Sys))
		})
}

// checkLemmas checks each lemma under the per-lemma budget, printing its
// verdict and, with cex, its counterexample through printCex. It fails
// when a lemma is violated or its budget runs out (no verdict either way).
func checkLemmas(list []core.Lemma, eng core.Engine, timeout time.Duration, cex bool,
	check func(context.Context, core.Lemma) (*mc.Result, error), printCex func(*mc.Trace)) error {
	failed := 0
	inconclusive := 0
	for _, l := range list {
		ctx := context.Background()
		var cancel context.CancelFunc
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		res, err := check(ctx, l)
		if cancel != nil {
			cancel()
		}
		if errors.Is(err, context.DeadlineExceeded) {
			// The engine was interrupted mid-search: no verdict either way.
			fmt.Printf("%-14s [%s] INCONCLUSIVE (deadline)  budget=%v\n", l, eng, timeout)
			inconclusive++
			continue
		}
		if err != nil {
			return fmt.Errorf("%v: %w", l, err)
		}
		printResult(res)
		if !res.Holds() {
			failed++
			if cex && res.Trace != nil {
				printCex(res.Trace)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d lemma(s) violated", failed)
	}
	if inconclusive > 0 {
		hint := "raise -timeout or try"
		for _, alt := range []core.Engine{core.EngineBMC, core.EngineIC3} {
			if alt != eng {
				hint += " -engine " + alt.String() + " or"
			}
		}
		hint = strings.TrimSuffix(hint, " or")
		return fmt.Errorf("%d lemma(s) inconclusive: deadline %v exceeded (%s)", inconclusive, timeout, hint)
	}
	return nil
}

// lintGate refuses to model check a system that the static analyzer flags
// with error-level diagnostics: verifying lemmas against a model with
// unreachable commands or out-of-domain updates proves nothing about the
// algorithm. The lemma predicates feed the cone-of-influence check
// (GCL011). A non-nil comp is the caller's compilation of sys, shared so
// the lint pass and the model-checking run lower the system to boolean
// form once. -lint=warn additionally prints warning-level findings; -lint=off
// bypasses the gate.
func lintGate(sys *gcl.System, preds []gcl.Expr, comp *gcl.Compiled, mode string, nodeLimit int) error {
	switch mode {
	case "off":
		return nil
	case "on", "warn":
	default:
		return fmt.Errorf("unknown -lint mode %q (want on, warn, or off)", mode)
	}
	rep, err := lint.Run(sys, lint.Options{BDD: bdd.Config{NodeLimit: nodeLimit}, Preds: preds, Compiled: comp})
	if err != nil {
		return err
	}
	if mode == "warn" {
		for _, d := range rep.Diagnostics {
			if d.Severity >= lint.Warning {
				fmt.Println("lint:", d)
			}
		}
	}
	errs := rep.Errors()
	if len(errs) == 0 {
		return nil
	}
	for _, d := range errs {
		fmt.Fprintln(os.Stderr, "lint:", d)
		if d.Witness != "" {
			fmt.Fprintln(os.Stderr, "    witness:", d.Witness)
		}
	}
	return fmt.Errorf("model has %d error-level lint diagnostic(s); rerun with -lint=off to bypass", len(errs))
}

func printResult(res *mc.Result) {
	stats := res.Stats
	extra := ""
	if stats.Reachable != nil {
		extra = fmt.Sprintf("  reachable=%v", stats.Reachable)
	}
	if stats.BDDVars > 0 {
		extra += fmt.Sprintf("  bdd-vars=%d", stats.BDDVars)
	}
	switch {
	case stats.Engine == "ic3":
		extra += fmt.Sprintf("  frames=%d obligations=%d queries=%d core-shrink=%.2f",
			stats.Iterations, stats.Obligations, stats.SATQueries, stats.CoreShrink)
	case stats.Conflicts > 0:
		extra += fmt.Sprintf("  conflicts=%d propagations=%d depth=%d",
			stats.Conflicts, stats.Propagations, stats.Iterations)
	}
	if stats.OptBitsSaved > 0 {
		extra += fmt.Sprintf("  opt(-%d vars -%d cmds -%d bits)",
			stats.OptVarsDropped, stats.OptCmdsDropped, stats.OptBitsSaved)
	}
	fmt.Printf("%-14s [%s] %-18s cpu=%v%s\n",
		res.Property.Name, stats.Engine, res.Verdict, stats.Duration.Round(1000000), extra)
}

// runBus checks the paper's original bus topology (internal/tta/original):
// no guardians, so only the safety and liveness lemmas exist.
func runBus(scope obs.Scope, n, faultyNode, degree, deltaInit int, lemmas, engine string,
	depth, nodeLimit int, reorder, optimize, cex, dumpModel bool, lintMode string, timeout time.Duration) error {
	cfg := original.Config{
		N:           n,
		FaultyNode:  faultyNode,
		FaultDegree: degree,
		DeltaInit:   deltaInit,
	}
	if cfg.FaultyNode < 0 {
		cfg.FaultDegree = 3 // degree is irrelevant but must validate
	}
	m, err := original.Build(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("model: %s  (faulty-node=%d degree=%d δ_init=%d)\n",
		m.Sys.Name, cfg.FaultyNode, cfg.FaultDegree, cfg.DeltaInit)
	if err := lintGate(m.Sys, []gcl.Expr{m.Safety().Pred, m.Liveness().Pred}, nil, lintMode, nodeLimit); err != nil {
		return err
	}
	if dumpModel {
		return m.Sys.WriteModel(os.Stdout)
	}

	list, err := core.ParseLemmas(lemmas)
	if err != nil {
		return err
	}
	eng, err := core.ParseEngine(engine)
	if err != nil {
		return err
	}
	opts := core.Options{
		Symbolic: symbolic.Options{BDD: bdd.Config{NodeLimit: nodeLimit, AutoReorder: reorder}},
		BMCDepth: depth,
		Opt:      optimize,
		Obs:      scope,
	}
	if opts.BMCDepth == 0 {
		opts.BMCDepth = 2 * (tta.Params{N: n}).WorstCaseStartup()
	}

	return checkLemmas(list, eng, timeout, cex,
		func(ctx context.Context, l core.Lemma) (*mc.Result, error) {
			switch l {
			case core.LemmaSafety:
				return core.Check(ctx, m.Sys, m.Safety(), eng, opts)
			case core.LemmaLiveness:
				return core.Check(ctx, m.Sys, m.Liveness(), eng, opts)
			}
			return nil, fmt.Errorf("bus model has no lemma %v (want safety or liveness)", l)
		},
		func(t *mc.Trace) {
			fmt.Println("counterexample trace:")
			fmt.Println(t.Format(m.Sys))
		})
}
