// Command ttabench regenerates the paper's tables and figures.
//
// Examples:
//
//	ttabench -exp all                 quick versions of every experiment
//	ttabench -exp fig6b -full -n 3,4,5
//	ttabench -exp fig4 -j 1           uncontended per-job timings
//	ttabench -exp ablation -json      campaign-store records on stdout
//	                                  (any experiment that runs campaign
//	                                  jobs: fig4-6, ablation, feedback,
//	                                  bigbang, ic3)
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

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/exp"
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
		workers  = flag.Int("j", 0, "worker pool size for the job-list, campaign, and sim experiments (0: GOMAXPROCS; 1 gives uncontended timings)")
		jsonOut  = flag.Bool("json", false, "emit campaign-store JSONL records instead of tables (experiments that run campaign jobs)")
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

	scale := exp.Quick
	if *full {
		scale = exp.Full
	}
	ns, err := campaign.ParseInts(*nsFlag)
	if err != nil {
		return fmt.Errorf("-n: %w", err)
	}

	// size is the cluster size of the single-n experiments: ns[0] when
	// -n names one size, else def.
	size := func(def int) int {
		if len(ns) == 1 {
			return ns[0]
		}
		return def
	}
	fullN := func(quick, full int) int {
		if scale == exp.Full {
			return size(full)
		}
		return size(quick)
	}
	ctx := context.Background()
	runOne := func(name string) error {
		var (
			table string
			recs  []campaign.Record     // set by the experiments that run campaign jobs
			bench func(io.Writer) error // writes the experiment's BENCH_<name>.json
			err   error
		)
		switch name {
		case "fig3":
			table = exp.Fig3()
		case "fig4":
			_, recs, table, err = exp.Fig4(ctx, scale, fullN(3, 4), nil, *workers)
		case "fig5":
			_, recs, table, err = exp.Fig5(ctx, scale, ns, *measure, *workers)
		case "fig6a", "fig6b", "fig6c", "fig6d":
			lemma := map[string]core.Lemma{
				"fig6a": core.LemmaSafety, "fig6b": core.LemmaLiveness,
				"fig6c": core.LemmaTimeliness, "fig6d": core.LemmaSafety2,
			}[name]
			_, recs, table, err = exp.Fig6(ctx, scale, lemma, ns, *workers)
		case "ic3":
			_, recs, table, err = exp.IC3Compare(ctx, scale, ns, *workers)
		case "ablation":
			_, recs, table, err = exp.Ablation(ctx, scale, size(3), *workers)
		case "restart":
			_, table, err = exp.Restart(ctx, scale, size(3))
		case "feedback":
			_, recs, table, err = exp.FeedbackAblation(ctx, scale, fullN(3, 4), *workers)
		case "baseline":
			_, table, err = exp.Baseline(ctx, ns, true)
		case "bigbang":
			_, recs, table, err = exp.BigBang(ctx, scale, size(3), *workers)
		case "campaign":
			runs := 2000
			if scale == exp.Full {
				runs = 20000
			}
			_, table, err = exp.Campaign(ctx, size(4), runs, *workers)
		case "wcsup":
			_, table, err = exp.WorstCase(ctx, scale, ns)
		case "order", "opt", "l2s":
			n := size(3)
			var rows []exp.Row
			switch name {
			case "order":
				rows, table, err = exp.OrderCompare(scale, n)
			case "opt":
				n = fullN(3, 4)
				rows, table, err = exp.OptCompare(scale, n)
			case "l2s":
				rows, table, err = exp.L2SCompare(scale, n)
			}
			bench = func(w io.Writer) error { return exp.WriteBench(w, scale, n, rows) }
		case "sim":
			var rep *exp.SimReport
			rep, table, err = exp.SimFuzz(ctx, scale, *workers)
			bench = func(w io.Writer) error { return exp.WriteSimReport(w, rep) }
		case "serve":
			exe, xerr := os.Executable()
			if xerr != nil {
				return xerr
			}
			var rep *exp.ServeReport
			rep, table, err = exp.ServeBench(ctx, scale, []string{exe, "-serve-worker"})
			bench = func(w io.Writer) error { return exp.WriteServeReport(w, rep) }
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return err
		}
		if *jsonOut {
			// The records render as JSONL in deterministic job order, the
			// schema of the ttacampaign store.
			if recs == nil {
				return fmt.Errorf("-json: experiment %q runs no campaign jobs", name)
			}
			enc := json.NewEncoder(os.Stdout)
			for _, rec := range recs {
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
			return nil
		}
		fmt.Println(table)
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

	if *expName == "all" {
		for _, name := range []string{"fig3", "fig5", "baseline", "campaign", "sim", "serve", "restart", "ablation", "bigbang", "wcsup", "feedback", "ic3", "opt", "l2s", "fig4", "fig6a", "fig6c", "fig6d", "fig6b"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(*expName)
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
