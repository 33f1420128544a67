// Command ttamc model checks the TTA startup algorithm: its configuration
// flags (campaign.BindJobFlags, shared with ttalint, plus -model) form one
// campaign job, whose model campaign.BuildModel builds (and refuses when
// the settings contradict each other or the topology), and it verifies
// the requested lemmas on that model with the chosen engine.
//
// Examples:
//
//	ttamc -n 3 -faulty-node 1 -degree 6 -lemma safety,liveness
//	ttamc -n 4 -faulty-hub 0 -lemma safety_2 -cex
//	ttamc -n 3 -no-big-bang -faulty-hub 0 -lemma safety -cex     (Section 5.2)
//	ttamc -n 3 -engine bmc -depth 20 -lemma safety
//	ttamc -n 3 -wcsup                                            (Section 5.3)
//	ttamc -n 3 -restartable -lemma recovery                      (Section 2.1 restart)
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
	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/gcl/lint"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttamc:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	jobFlags := campaign.BindJobFlags(fs)
	var obsOpts obs.SetupOptions
	obsOpts.BindFlags(fs)
	var (
		dumpModel = fs.Bool("dump-model", false, "print the model in guarded-command (SAL-like) form and exit")
		lemmas    = fs.String("lemma", "safety,liveness,timeliness", "comma-separated lemmas: safety, liveness, timeliness, safety_2, sanity, recovery (CTL AG(AF all-active))")
		engine    = fs.String("engine", "symbolic", "engine: symbolic, explicit, bmc, induction, ic3")
		depth     = fs.Int("depth", 0, "bmc unrolling depth (0: 2·w_sup)")
		bound     = fs.Int("bound", 0, "timeliness bound in slots (0: w_sup + round)")
		cex       = fs.Bool("cex", false, "print counterexample traces")
		wcsup     = fs.Bool("wcsup", false, "explore the worst-case startup time (Section 5.3)")
		count     = fs.Bool("count", false, "report the exact reachable-state count")
		timeout   = fs.Duration("timeout", 0, "per-lemma budget; exceeding it reports INCONCLUSIVE (deadline) (0: none)")
		nodeLimit = fs.Int("bdd-nodes", 0, "BDD node limit (0: default)")
		reorder   = fs.Bool("reorder", false, "enable dynamic BDD variable reordering (pair-grouped sifting) in the symbolic engine")
		optimize  = fs.Bool("opt", false, "run the static model-optimization pipeline (COI slicing, constant propagation, range narrowing) before checking; counterexamples are inflated back to the full model")
		lintMode  = fs.String("lint", "on", "static analysis gate: on (refuse error-level diagnostics), warn (also print warnings), off")
		model     = fs.String("model", "hub", "topology: hub (star, central guardians) or bus (the paper's original design)")
		heartbeat = fs.Duration("heartbeat", 0, "print a one-line progress summary at this interval (0: off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	obsOpts.Heartbeat = *heartbeat
	scope, obsDone, err := obs.Setup(context.Background(), obsOpts)
	if err != nil {
		return err
	}
	defer func() {
		if derr := obsDone(); derr != nil && err == nil {
			err = derr
		}
	}()

	if *model != campaign.TopologyHub && *model != campaign.TopologyBus {
		return fmt.Errorf("unknown -model %q (want hub or bus)", *model)
	}
	job := jobFlags.Job(*model)
	job.Lemma, job.Engine = *lemmas, *engine
	if *model == campaign.TopologyBus {
		// The bus model has exactly the paper's two properties; keep the
		// hub's default lemma list only when set explicitly.
		lemmaSet := false
		fs.Visit(func(f *flag.Flag) { lemmaSet = lemmaSet || f.Name == "lemma" })
		if !lemmaSet {
			job.Lemma = "safety,liveness"
		}
	}
	opts := core.Options{
		Symbolic:        symbolic.Options{BDD: bdd.Config{NodeLimit: *nodeLimit, AutoReorder: *reorder}},
		BMCDepth:        *depth,
		TimelinessBound: *bound,
		Opt:             *optimize,
		Obs:             scope,
	}
	m, err := campaign.BuildModel(job, opts)
	if err != nil {
		return err
	}
	suite := m.Suite
	if suite == nil && (*wcsup || *count) {
		return fmt.Errorf("-wcsup and -count apply to the hub model only")
	}
	fmt.Println(modelLine(m, job))

	if err := lintGate(m, *lintMode, *nodeLimit); err != nil {
		return err
	}

	if *dumpModel {
		return m.Sys.WriteModel(os.Stdout)
	}

	if *count {
		c, err := suite.CountStates(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("reachable states: %v\n", c)
	}

	if *wcsup {
		res, err := suite.WorstCaseStartup(context.Background(), 0)
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

	eng, err := core.ParseEngine(job.Engine)
	if err != nil {
		return err
	}

	list, err := core.ParseLemmas(job.Lemma)
	if err != nil {
		return err
	}

	return checkLemmas(m, list, eng, *timeout, *cex)
}

// checkLemmas checks each lemma of m under the per-lemma budget, printing
// its verdict and, with cex, its counterexample. It fails when a lemma is
// violated or its budget runs out (no verdict either way).
func checkLemmas(m *campaign.Model, list []core.Lemma, eng core.Engine, timeout time.Duration, cex bool) error {
	failed := 0
	inconclusive := 0
	for _, l := range list {
		ctx := context.Background()
		var cancel context.CancelFunc
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		res, err := m.Check(ctx, l, eng)
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
				printCex(m, res.Trace)
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

// printCex prints a counterexample: on the hub as a timeline followed by
// the variable-level trace, on the bus as the trace alone.
func printCex(m *campaign.Model, t *mc.Trace) {
	if m.Suite == nil {
		fmt.Println("counterexample trace:")
		fmt.Println(t.Format(m.Sys))
		return
	}
	fmt.Println("counterexample timeline:")
	fmt.Print(m.Suite.Model.FormatTimeline(t))
	fmt.Println("\nvariable-level trace:")
	fmt.Println(t.Format(m.Sys))
}

// modelLine describes the checked model in one line. It lists the hub's
// design switches (job.Switches) only when one is on.
func modelLine(m *campaign.Model, job campaign.Job) string {
	if m.Suite == nil {
		cfg := m.Bus.Cfg
		return fmt.Sprintf("model: %s  (faulty-node=%d degree=%d δ_init=%d)",
			m.Sys.Name, cfg.FaultyNode, cfg.FaultDegree, cfg.DeltaInit)
	}
	cfg := m.Suite.Cfg
	line := fmt.Sprintf("model: %s  (faulty-node=%d faulty-hub=%d degree=%d δ_init=%d big-bang=%v feedback=%v",
		m.Sys.Name, cfg.FaultyNode, cfg.FaultyHub, cfg.FaultDegree,
		cfg.DeltaInit, !cfg.DisableBigBang, cfg.Feedback)
	if sw := job.Switches(); len(sw) > 0 {
		line += " switches=" + strings.Join(sw, ",")
	}
	return line + ")"
}

// lintGate refuses to model check a system that the static analyzer flags
// with error-level diagnostics: verifying lemmas against a model with
// unreachable commands or out-of-domain updates proves nothing about the
// algorithm. The lemma predicates feed the cone-of-influence check
// (GCL011), and the lint pass shares the model's compilation, so on the
// hub the lint pass and the model-checking run lower the system to boolean
// form once. -lint=warn additionally prints warning-level findings;
// -lint=off bypasses the gate.
func lintGate(m *campaign.Model, mode string, nodeLimit int) error {
	switch mode {
	case "off":
		return nil
	case "on", "warn":
	default:
		return fmt.Errorf("unknown -lint mode %q (want on, warn, or off)", mode)
	}
	rep, err := lint.Run(m.Sys, lint.Options{BDD: bdd.Config{NodeLimit: nodeLimit}, Preds: m.Preds(), Compiled: m.Compiled()})
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
