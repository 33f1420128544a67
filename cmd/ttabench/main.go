// Command ttabench regenerates the paper's tables and figures.
//
// Examples:
//
//	ttabench -exp all                 quick versions of every experiment
//	ttabench -exp fig6b -full -n 3,4,5
//	ttabench -exp bigbang -trace
//	ttabench -exp fig4 -j 1           uncontended per-job timings
//	ttabench -exp fig6a -json         campaign-store records on stdout,
//	                                  metrics registry in BENCH_obs.json
//	ttabench -exp opt -n 4 -bench-dir /tmp
//	                                  table, and BENCH_opt.json in /tmp
//	ttabench -compare old.json new.json
//	                                  bench regression gate: diff two
//	                                  benchmark JSON files, exit non-zero
//	                                  if a directed leaf (wall time,
//	                                  throughput, ...) worsened beyond
//	                                  -tolerance (-report-only to only
//	                                  report)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/exp"
	"ttastartup/internal/obs"
	"ttastartup/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ttabench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expName  = flag.String("exp", "all", "experiment: fig3, fig4, fig5, fig6a, fig6b, fig6c, fig6d, baseline, feedback, bigbang, wcsup, campaign, restart, ablation, ic3, order, opt, l2s, sim, serve, all")
		full     = flag.Bool("full", false, "use the paper's full parameters (slow; quick scale is the default)")
		nsFlag   = flag.String("n", "", "comma-separated cluster sizes (default per experiment)")
		measure  = flag.Bool("measure", true, "measure reachable-state counts where applicable")
		trace    = flag.Bool("trace", false, "print counterexample traces (bigbang)")
		workers  = flag.Int("j", 0, "worker pool size for the sweep, campaign, and sim experiments (0: GOMAXPROCS; 1 gives uncontended timings)")
		jsonOut  = flag.Bool("json", false, "emit campaign-store JSONL records instead of tables (fig4, fig6a-d only)")
		obsOut   = flag.String("obs-out", "", "write the final metrics registry as JSON to this file (default BENCH_obs.json with -json, off otherwise)")
		benchDir = flag.String("bench-dir", ".", "write BENCH_<exp>.json for the opt, order, l2s, sim and serve experiments into this directory (empty: tables only)")

		// bench regression gate
		compare    = flag.Bool("compare", false, "compare two benchmark JSON files (old new); exit non-zero on regression")
		tolerance  = flag.Float64("tolerance", 0.10, "with -compare: relative worsening allowed before a leaf regresses")
		reportOnly = flag.Bool("report-only", false, "with -compare: print the comparison but always exit zero")

		// -serve-worker is the serve experiment's re-exec hook: the bench
		// spawns copies of its own binary with this flag as the daemon's
		// worker processes. Not meant to be invoked by hand.
		serveWorker = flag.Bool("serve-worker", false, "run as a ttaserved worker on stdin/stdout (internal; used by -exp serve)")
	)
	flag.Parse()

	if *serveWorker {
		return serve.RunWorker(context.Background(), os.Stdin, os.Stdout)
	}

	if *compare {
		return runCompare(flag.Args(), *tolerance, *reportOnly)
	}

	if *obsOut == "" && *jsonOut {
		*obsOut = "BENCH_obs.json"
	}
	if *obsOut != "" {
		exp.Obs = obs.Scope{Reg: obs.NewRegistry()}
		defer func() {
			f, err := os.Create(*obsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ttabench: obs-out:", err)
				return
			}
			defer f.Close()
			if err := exp.Obs.Reg.WriteJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "ttabench: obs-out:", err)
			}
		}()
	}

	scale := exp.Quick
	if *full {
		scale = exp.Full
	}
	var ns []int
	if *nsFlag != "" {
		for _, part := range strings.Split(*nsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -n value: %w", err)
			}
			ns = append(ns, v)
		}
	}

	// emitRecords renders campaign records as JSONL (one per line, in
	// deterministic job order) — the same schema as the ttacampaign store.
	emitRecords := func(recs []campaign.Record) error {
		enc := json.NewEncoder(os.Stdout)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	}
	runOne := func(name string) error {
		if *jsonOut {
			switch name {
			case "fig4", "fig6a", "fig6b", "fig6c", "fig6d", "ic3":
			default:
				return fmt.Errorf("-json supports the sweep experiments fig4, fig6a-d, and ic3, not %q", name)
			}
		}
		// bench, when set, writes the experiment's BENCH_<name>.json.
		var bench func(io.Writer) error
		switch name {
		case "fig3":
			fmt.Println(exp.Fig3())
		case "fig4":
			n := 3
			if scale == exp.Full {
				n = 4
			}
			if len(ns) == 1 {
				n = ns[0]
			}
			_, recs, table, err := exp.Fig4(context.Background(), scale, n, nil, *workers, nil)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitRecords(recs)
			}
			fmt.Println(table)
		case "fig5":
			_, table, err := exp.Fig5(scale, ns, *measure)
			if err != nil {
				return err
			}
			fmt.Println(table)
		case "fig6a", "fig6b", "fig6c", "fig6d":
			lemma := map[string]core.Lemma{
				"fig6a": core.LemmaSafety, "fig6b": core.LemmaLiveness,
				"fig6c": core.LemmaTimeliness, "fig6d": core.LemmaSafety2,
			}[name]
			_, recs, table, err := exp.Fig6(context.Background(), scale, lemma, ns, *workers, nil)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitRecords(recs)
			}
			fmt.Println(table)
		case "ic3":
			_, recs, table, err := exp.IC3Compare(context.Background(), scale, ns, *workers, nil)
			if err != nil {
				return err
			}
			if *jsonOut {
				return emitRecords(recs)
			}
			fmt.Println(table)
		case "baseline":
			_, table, err := exp.Baseline(ns, true)
			if err != nil {
				return err
			}
			fmt.Println(table)
		case "feedback":
			n := 3
			if scale == exp.Full {
				n = 4
			}
			if len(ns) == 1 {
				n = ns[0]
			}
			_, table, err := exp.FeedbackAblation(scale, n)
			if err != nil {
				return err
			}
			fmt.Println(table)
		case "bigbang":
			n := 3
			if len(ns) == 1 {
				n = ns[0]
			}
			broken, _, table, err := exp.BigBang(scale, n)
			if err != nil {
				return err
			}
			fmt.Println(table)
			if *trace && broken.Symbolic.Trace != nil {
				fmt.Println("clique counterexample (symbolic engine):")
				// The suite's model is not exposed here; the bounded trace
				// prints identically through the symbolic result's system.
				fmt.Printf("(%d steps; run ttamc -no-big-bang -faulty-hub 0 -cex for the rendered trace)\n",
					broken.Symbolic.Trace.Len())
			}
		case "ablation":
			n := 3
			if len(ns) == 1 {
				n = ns[0]
			}
			_, table, err := exp.Ablation(scale, n)
			if err != nil {
				return err
			}
			fmt.Println(table)
		case "restart":
			n := 3
			if len(ns) == 1 {
				n = ns[0]
			}
			_, table, err := exp.Restart(scale, n)
			if err != nil {
				return err
			}
			fmt.Println(table)
		case "campaign":
			n := 4
			if len(ns) == 1 {
				n = ns[0]
			}
			runs := 2000
			if scale == exp.Full {
				runs = 20000
			}
			_, table, err := exp.Campaign(context.Background(), n, runs, *workers)
			if err != nil {
				return err
			}
			fmt.Println(table)
		case "wcsup":
			_, table, err := exp.WorstCase(scale, ns)
			if err != nil {
				return err
			}
			fmt.Println(table)
		case "order":
			n := 3
			if len(ns) == 1 {
				n = ns[0]
			}
			rows, table, err := exp.OrderCompare(scale, n)
			if err != nil {
				return err
			}
			fmt.Println(table)
			bench = func(w io.Writer) error { return exp.WriteBench(w, scale, n, rows) }
		case "opt":
			n := 3
			if scale == exp.Full {
				n = 4
			}
			if len(ns) == 1 {
				n = ns[0]
			}
			rows, table, err := exp.OptCompare(scale, n)
			if err != nil {
				return err
			}
			fmt.Println(table)
			bench = func(w io.Writer) error { return exp.WriteBench(w, scale, n, rows) }
		case "l2s":
			n := 3
			if len(ns) == 1 {
				n = ns[0]
			}
			rows, table, err := exp.L2SCompare(scale, n)
			if err != nil {
				return err
			}
			fmt.Println(table)
			bench = func(w io.Writer) error { return exp.WriteBench(w, scale, n, rows) }
		case "sim":
			rep, table, err := exp.SimFuzz(context.Background(), scale, *workers)
			if err != nil {
				return err
			}
			fmt.Println(table)
			bench = func(w io.Writer) error { return exp.WriteSimReport(w, rep) }
		case "serve":
			exe, err := os.Executable()
			if err != nil {
				return err
			}
			rep, table, err := exp.ServeBench(context.Background(), scale, []string{exe, "-serve-worker"})
			if err != nil {
				return err
			}
			fmt.Println(table)
			bench = func(w io.Writer) error { return exp.WriteServeReport(w, rep) }
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if bench == nil || *benchDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*benchDir, "BENCH_"+name+".json"))
		if err != nil {
			return err
		}
		if err := bench(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	// timedRun records per-experiment wall time into the obs registry so
	// BENCH_obs.json carries a bench trajectory, not just engine counters.
	timedRun := func(name string) error {
		start := time.Now()
		err := runOne(name)
		exp.Obs.Reg.Counter("bench." + name + ".ms").Add(time.Since(start).Milliseconds())
		return err
	}

	if *expName == "all" {
		for _, name := range []string{"fig3", "fig5", "baseline", "campaign", "sim", "serve", "restart", "ablation", "bigbang", "wcsup", "feedback", "ic3", "opt", "l2s", "fig4", "fig6a", "fig6c", "fig6d", "fig6b"} {
			if err := timedRun(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return timedRun(*expName)
}

// runCompare is the bench regression gate: diff the old (committed) and
// new (freshly generated) benchmark JSON files and fail on regression.
func runCompare(args []string, tolerance float64, reportOnly bool) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants exactly two arguments: old.json new.json")
	}
	oldJSON, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	newJSON, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	rows, err := exp.CompareBench(oldJSON, newJSON, tolerance)
	if err != nil {
		return err
	}
	fmt.Printf("comparing %s -> %s (tolerance %.0f%%)\n", args[0], args[1], 100*tolerance)
	regressions := exp.WriteCompareTable(os.Stdout, rows, tolerance)
	if regressions > 0 && !reportOnly {
		return fmt.Errorf("%d benchmark leaf(s) regressed beyond %.0f%%", regressions, 100*tolerance)
	}
	return nil
}
