package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/obs"
)

// sweep is a workload that runs a fixed unit set through
// campaign.RunJobs: fig6-bdd and sat-engines.
type sweep struct {
	jobs   []campaign.Job
	warmup campaign.Job // the unit set-up runs once
}

// fig6Sweep is the paper's Fig. 6 at n=3: the hub topology at the default
// power-on window, the faulty node at degrees 1..6 × {safety, liveness,
// timeliness}, plus safety_2 against a faulty hub, all on the symbolic
// engine. The degree-6 liveness unit is left out: alone it takes 15-20 s
// and 9.8M BDD nodes, which would make one pass take longer than a run.
func fig6Sweep() sweep {
	var jobs []campaign.Job
	for _, j := range mustJobs(campaign.Spec{Ns: []int{3}}) {
		if j.Degree == 6 && j.Lemma == "liveness" {
			continue
		}
		jobs = append(jobs, j)
	}
	return sweep{jobs: jobs, warmup: jobs[0]}
}

// satSweep is the SAT side: the bus at n=3, δ_init=2, degrees 1..3 ×
// {safety, liveness} × {bmc, induction, ic3}, plus the hub at degree 1 ×
// {safety, liveness} × {bmc, induction}. Hub induction at degree 3 is
// left out (37-53 s).
func satSweep() sweep {
	bus := mustJobs(campaign.Spec{
		Ns: []int{3}, Topologies: []string{campaign.TopologyBus}, Degrees: []int{1, 2, 3},
		Lemmas: []string{"safety", "liveness"}, Engines: []string{"bmc", "induction", "ic3"}, DeltaInit: 2,
	})
	hub := mustJobs(campaign.Spec{
		Ns: []int{3}, Degrees: []int{1}, Lemmas: []string{"safety", "liveness"},
		Engines: []string{"bmc", "induction"}, DeltaInit: 2,
	})
	jobs := append(bus, hub...)
	return sweep{jobs: jobs, warmup: jobs[0]}
}

func mustJobs(spec campaign.Spec) []campaign.Job {
	jobs, err := spec.Jobs()
	if err != nil {
		panic(err) // the specs above are constants
	}
	return jobs
}

// order is the seed's permutation of the unit set: the seed fixes only
// the order in which units run.
func (s sweep) order(seed int64) []campaign.Job {
	jobs := append([]campaign.Job(nil), s.jobs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// runOptions is how every sweep pass runs: one campaign worker, the
// optimizer on, default engine settings.
func runOptions(store *campaign.Store, progress campaign.Progress) campaign.RunOptions {
	return campaign.RunOptions{Workers: 1, Options: core.Options{Opt: true}, Store: store, Progress: progress}
}

// unitTimer times each unit from the runner's start to finish callbacks.
// The runner serialises sink calls, and one worker runs one unit at a
// time. Before each unit it collects the previous unit's garbage, so a
// unit's time and the heap high-water mark do not depend on which unit
// the seed put before it. The collection falls outside the unit's time;
// gcMS sums the collections.
type unitTimer struct {
	campaign.NopProgress
	start time.Time
	ms    []float64
	gcMS  float64
}

func (u *unitTimer) JobStarted(int, campaign.Job) {
	g := time.Now()
	runtime.GC()
	u.start = time.Now()
	u.gcMS += float64(u.start.Sub(g).Nanoseconds()) / 1e6
}

func (u *unitTimer) JobFinished(int, campaign.Record) { u.ms = append(u.ms, msSince(u.start)) }

func runSweep(ctx context.Context, b *bench, s sweep) error {
	setup, err := medianSetup(func() error { return s.setup(ctx) })
	if err != nil {
		return err
	}
	b.set("setup_s", setup)
	order := s.order(b.cfg.seed)
	runtime.GC()
	if b.cfg.trace {
		return s.traced(ctx, b, order)
	}

	// Whole passes, each into a fresh result store: at least two, so the
	// latency percentiles see every unit twice, and more while another
	// pass of the mean length still fits in the budget.
	budget := time.Duration(b.cfg.seconds) * time.Second
	timer := &unitTimer{}
	var wall time.Duration
	for pass := 0; pass < 2 || wall+wall/time.Duration(pass) <= budget; pass++ {
		d, err := s.pass(ctx, b, order, filepath.Join(b.dir, fmt.Sprintf("pass-%d.jsonl", pass)), timer)
		if err != nil {
			return err
		}
		wall += d
	}
	b.set("units_per_s", float64(len(timer.ms))/wall.Seconds())
	b.latencies("cold", timer.ms)
	b.set("peak_rss_mb", peakRSSMB())
	return nil
}

// setup builds and compiles every unit's model, then runs one unit.
func (s sweep) setup(ctx context.Context) error {
	for _, j := range s.jobs {
		u, err := buildUnit(j)
		if err != nil {
			return err
		}
		u.sys.Compile()
	}
	rec, err := campaign.ExecuteJob(ctx, s.warmup, runOptions(nil, nil))
	if err == nil && rec.Error != "" {
		err = fmt.Errorf("warm-up unit %s: %s", s.warmup.ID(), rec.Error)
	}
	return err
}

// pass runs the unit set once through campaign.RunJobs into a fresh
// store and checks every record.
func (s sweep) pass(ctx context.Context, b *bench, order []campaign.Job, path string, progress campaign.Progress) (time.Duration, error) {
	st, err := campaign.OpenStore(path, false)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	rep, err := campaign.RunJobs(ctx, order, runOptions(st, progress))
	wall := time.Since(start)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("campaign pass: %w", err)
	}
	checkReport(b, order, rep)
	return wall, nil
}

func checkReport(b *bench, order []campaign.Job, rep *campaign.Report) {
	for _, j := range order {
		if rec, ok := rep.Records[j.ID()]; ok {
			b.check.unit(j.ID(), recordOutcome(rec))
		} else {
			b.check.failUnit("%s: no record", j.ID())
		}
	}
}

// traced runs one untraced pass, for the campaign runner's own overhead
// and the Go GC pauses. Then, unit by unit, it runs the unit untraced as
// the runner does (campaign.ExecuteJob) and at once again with every layer
// called directly inside spans, alternating which of the two goes first.
// The untraced time is the unit's reference for its coverage and for the
// tracing overhead; taking the two back to back gives both the same heap
// and the same stretch of host time.
func (s sweep) traced(ctx context.Context, b *bench, order []campaign.Job) error {
	timer := &unitTimer{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := s.pass(ctx, b, order, filepath.Join(b.dir, "untraced.jsonl"), timer)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	unitMS := timer.gcMS
	for _, ms := range timer.ms {
		unitMS += ms
	}
	b.set("campaign.overhead_ms", float64(plain.Nanoseconds())/1e6-unitMS)
	b.set("go.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)

	reg := obs.NewRegistry()
	var sum engineSums
	untraced := make([]float64, len(order))
	for i, j := range order {
		plainUnit := func() error {
			runtime.GC() // as unitTimer does before each unit
			start := time.Now()
			rec, err := campaign.ExecuteJob(ctx, j, runOptions(nil, nil))
			untraced[i] = msSince(start)
			b.check.unit(j.ID(), recordOutcome(rec))
			return err
		}
		tracedRun := func() error {
			runtime.GC()
			got, stats, err := tracedUnit(ctx, b.tracer, i, j, reg)
			if err != nil {
				b.check.failUnit("%s: %v", j.ID(), err)
				return nil
			}
			b.check.unit(j.ID(), got)
			sum.add(j.Engine, stats)
			return nil
		}
		first, second := plainUnit, tracedRun
		if i%2 == 1 {
			first, second = tracedRun, plainUnit
		}
		if err := errors.Join(first(), second()); err != nil {
			return err
		}
	}
	sum.report(b, reg)
	b.spanMetrics(untraced)
	return nil
}
