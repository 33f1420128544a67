// Command ttasimfuzz runs Monte-Carlo fault-injection campaigns over the
// TTA startup simulator (internal/sim/mcfi): millions of randomized
// scenarios on a share-nothing worker pool, with crash-safe JSONL
// checkpointing, a deduplicated corpus of interesting runs, abstract-state
// coverage accounting, and differential replay of violating traces
// through the verified gcl model.
//
// The campaign is pure data: scenario k expands deterministically from
// (seed, k), so the final report is byte-identical regardless of -j, and a
// killed campaign resumed with -resume converges to the same bytes.
//
// Examples:
//
//	ttasimfuzz -n 4 -samples 100000 -out campaign.jsonl -report report.json
//	ttasimfuzz -n 4 -samples 100000 -out campaign.jsonl -resume      (after a kill)
//	ttasimfuzz -spec spec.json -out campaign.jsonl -j 8
//	ttasimfuzz -n 3 -delta-init 2 -degree 2 -mix 'fault-free:1,faulty-node:2' -cover
//	ttasimfuzz -n 4 -samples 50000 -budget 1000000                   (slot-budget slice)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ttastartup/internal/obs"
	"ttastartup/internal/sim/mcfi"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttasimfuzz:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	scenario := mcfi.BindScenarioFlags(fs)
	var obsOpts obs.SetupOptions
	obsOpts.BindFlags(fs)
	var (
		samples    = fs.Int("samples", 100000, "number of scenarios")
		batch      = fs.Int("batch", 0, "scenarios per checkpointed batch (0: 1000)")
		near       = fs.Int("near", 0, "near-violation margin under w_sup (0: 2)")
		corpusCap  = fs.Int("corpus-cap", 0, "corpus entries per (kind, reason) bucket (0: 32)")
		specPath   = fs.String("spec", "", "read the campaign spec from this JSON file instead of the flags above")
		out        = fs.String("out", "", "JSONL checkpoint path (empty: in-memory only)")
		resume     = fs.Bool("resume", false, "resume from the intact prefix of -out")
		reportPath = fs.String("report", "", "write the JSON report here (text report always goes to stdout)")
		workers    = fs.Int("j", 0, "worker goroutines (0: GOMAXPROCS)")
		budget     = fs.Int64("budget", 0, "pause after this many simulated slots (0: run to completion)")
		stopAfter  = fs.Int("stop-after-batches", 0, "pause after this many total batches (testing hook; 0: off)")
		cover      = fs.Bool("cover", false, "compare visited abstract states against the verified model's reachable set (in-hypothesis mixes at small scopes)")
		replay     = fs.Bool("replay", true, "differentially replay violating/near-violating corpus entries through the gcl model")
		replayAll  = fs.Bool("replay-all", false, "replay the entire corpus, not just violating/near entries")
		corpusOut  = fs.String("corpus", "", "write the corpus as JSONL to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	obsOpts.MetricsW = os.Stderr
	scope, obsDone, err := obs.Setup(context.Background(), obsOpts)
	if err != nil {
		return 1, err
	}
	defer func() {
		if derr := obsDone(); derr != nil {
			fmt.Fprintln(os.Stderr, "ttasimfuzz: obs:", derr)
		}
	}()

	var sp mcfi.Spec
	if *specPath != "" {
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			return 2, err
		}
		if err := json.Unmarshal(raw, &sp); err != nil {
			return 2, fmt.Errorf("-spec %s: %w", *specPath, err)
		}
	} else {
		if sp, err = scenario.Spec(); err != nil {
			return 2, err
		}
		sp.Samples, sp.Batch = *samples, *batch
		sp.NearMargin, sp.CorpusPerBucket = *near, *corpusCap
	}
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		return 2, err
	}
	if *resume && *out == "" {
		return 2, errors.New("-resume requires -out")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := mcfi.Run(ctx, sp, mcfi.RunOptions{
		Workers:          *workers,
		Checkpoint:       *out,
		Resume:           *resume,
		StopAfterBatches: *stopAfter,
		BudgetSlots:      *budget,
		Scope:            scope,
	})
	if errors.Is(err, context.Canceled) {
		return 1, errors.New("campaign interrupted (resume with -resume)")
	}
	if err != nil {
		return 1, err
	}

	fmt.Print(rep.String())
	if !rep.Completed {
		fmt.Printf("campaign paused at %d/%d batches; continue with -resume\n", rep.Batches, sp.Batches())
	}
	if *reportPath != "" {
		if err := writeReport(rep, *reportPath); err != nil {
			return 1, err
		}
	}
	if *corpusOut != "" {
		if err := writeCorpus(rep, *corpusOut); err != nil {
			return 1, err
		}
	}

	if *cover && rep.Completed {
		if err := printCoverage(sp, rep); err != nil {
			return 1, err
		}
	}

	if (*replay || *replayAll) && rep.Completed {
		failures, err := runReplay(ctx, sp, rep, *replayAll, *workers, scope)
		if err != nil {
			return 1, err
		}
		if failures > 0 {
			return 1, fmt.Errorf("%d corpus entr(ies) failed differential replay", failures)
		}
	}
	return 0, nil
}

func writeReport(rep *mcfi.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCorpus(rep *mcfi.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, e := range rep.Corpus {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func printCoverage(sp mcfi.Spec, rep *mcfi.Report) error {
	c, err := mcfi.CompareCoverage(sp, rep.Visited)
	if err != nil {
		return err
	}
	fmt.Printf("model coverage reference (explicit reachability, delta_init=%d):\n", sp.DeltaInit)
	for _, d := range c.Configs {
		fmt.Printf("  %-16s %8d reachable states, %4d abstract\n", d.Name, d.Reachable, d.AbstractStates)
	}
	fmt.Printf("simulation visited %d/%d model abstract states (%.1f%%), %d outside the model\n",
		c.Inside(), c.Model, 100*float64(c.Inside())/float64(c.Model), c.Outside)
	if c.Outside > 0 {
		return fmt.Errorf("%d visited abstract states are unreachable in the model — conformance broken", c.Outside)
	}
	return nil
}

func runReplay(ctx context.Context, sp mcfi.Spec, rep *mcfi.Report, all bool, workers int, scope obs.Scope) (int, error) {
	var entries []mcfi.CorpusEntry
	for _, e := range rep.Corpus {
		if all || e.Violation || e.HasReason(mcfi.ReasonNear) {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		fmt.Println("replay: no violating or near-violating corpus entries")
		return 0, nil
	}
	results, err := mcfi.ReplayCorpusCtx(ctx, sp, entries, workers, scope)
	if err != nil {
		return 0, err
	}
	failures := 0
	for _, r := range results {
		if !r.OK {
			failures++
			fmt.Printf("replay FAIL: index=%d kind=%s det=%v conformant=%v (slot %d) agree=%v active=%v timely=%v\n",
				r.Index, r.Kind, r.Deterministic, r.Conformant, r.FailSlot, r.AgreementMatch, r.ActiveMatch, r.TimelinessMatch)
		}
	}
	fmt.Printf("replay: %d/%d entries cross-checked OK\n", len(results)-failures, len(results))
	return failures, nil
}
