package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/obs"
	"ttastartup/internal/tta"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

// RunOptions tunes campaign execution.
type RunOptions struct {
	// Workers bounds the worker pool (default: GOMAXPROCS). Each worker
	// builds a private suite per job — BDD managers and SAT solvers are
	// never shared across goroutines.
	Workers int
	// Timeout is the per-job budget (0: none). A job that exceeds it is
	// recorded as "inconclusive (deadline)" — unless FallbackBMC rescues
	// it — and the campaign moves on.
	Timeout time.Duration
	// FallbackBMC retries deadline-exceeded non-BMC jobs with the bounded
	// engine under a fresh budget; a bounded verdict ("holds (bounded)" or
	// a refutation) replaces the inconclusive record, tagged with
	// FallbackEngine.
	FallbackBMC bool
	// Options tunes the engines of every job (each job still constructs
	// its own engine instances from this shared value).
	Options core.Options
	// Store, when non-nil, receives one fsynced JSONL record per finished
	// job, and jobs it already holds are skipped (resume).
	Store *Store
	// Progress receives job lifecycle events and heartbeats (nil: none).
	// The runner serialises all sink calls; sinks need no locking.
	Progress Progress
	// Heartbeat is the interval between Progress.Heartbeat calls
	// (0: no heartbeat goroutine).
	Heartbeat time.Duration
}

func (o RunOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run expands spec and executes the jobs; see RunJobs.
func Run(ctx context.Context, spec Spec, opts RunOptions) (*Report, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	return RunJobs(ctx, jobs, opts)
}

// RunJobs executes a job list on a ForEach pool. Jobs already present in
// opts.Store are skipped; every other job runs exactly once and its record
// is appended to the store before the next job is handed out to that
// worker. Cancellation of ctx stops feeding the pool, interrupts the
// engines' hot loops, waits for all workers to exit, and returns ctx's
// error together with the partial report — finished jobs keep their
// records, so a later resume run completes only the remainder. A failed
// store append stops the feed the same way and returns the wrapped
// "campaign: result store:" error with the partial report.
func RunJobs(ctx context.Context, jobs []Job, opts RunOptions) (*Report, error) {
	rep := NewReport(jobs)
	progress := opts.Progress
	if progress == nil {
		progress = NopProgress{}
	}
	start := time.Now()

	var pending []Job
	var mu sync.Mutex // guards rep, store appends, progress sinks, workerJob
	for _, j := range jobs {
		if opts.Store != nil {
			if rec, ok := opts.Store.Get(j.ID()); ok {
				rep.add(rec)
				rep.Skipped++
				progress.JobSkipped(j)
				continue
			}
		}
		pending = append(pending, j)
	}

	nw := opts.workers()
	if nw > len(pending) && len(pending) > 0 {
		nw = len(pending)
	}
	workerJob := make([]string, nw) // current job ID per worker ("" idle)

	scope := opts.Options.Obs
	scope.Reg.Gauge(obs.MCampaignWorkers).Set(int64(nw))
	cJobs := scope.Reg.Counter(obs.MCampaignJobs)
	cBusy := scope.Reg.Counter(obs.MCampaignBusyMS)

	snapshot := func() Snapshot {
		s := Snapshot{
			Total:   len(jobs),
			Done:    len(rep.Records),
			Skipped: rep.Skipped,
			Elapsed: time.Since(start),
		}
		for _, id := range workerJob {
			if id != "" {
				s.Running = append(s.Running, id)
			}
		}
		ran := s.Done - s.Skipped
		if left := s.Total - s.Done; ran > 0 && left > 0 {
			s.ETA = time.Duration(int64(s.Elapsed) / int64(ran) * int64(left))
		}
		return s
	}

	// Heartbeat reporter, stopped after the pool drains.
	hbDone := make(chan struct{})
	if opts.Heartbeat > 0 {
		go func() {
			t := time.NewTicker(opts.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-hbDone:
					return
				case <-t.C:
					mu.Lock()
					s := snapshot()
					progress.Heartbeat(s)
					mu.Unlock()
				}
			}
		}()
	}

	err := ForEach(ctx, nw, len(pending), func(ctx context.Context, w, i int) error {
		job := pending[i]
		mu.Lock()
		workerJob[w] = job.ID()
		progress.JobStarted(w, job)
		mu.Unlock()

		// One span per job, on the worker's own trace lane (tid w+1) so
		// the Chrome viewer shows pool utilisation.
		sp := scope.Trace.StartOn(w+1, obs.CatCampaign, job.ID())
		rec, err := runJob(ctx, job, opts)
		if err == nil {
			sp.Attr("verdict", rec.Verdict)
			cJobs.Inc()
			cBusy.Add(rec.WallMS)
		}
		sp.End()

		mu.Lock()
		defer mu.Unlock()
		workerJob[w] = ""
		if err != nil {
			// Only campaign cancellation: the job is deliberately not
			// recorded (it has no verdict) and stays pending for a resume.
			return err
		}
		rep.add(rec)
		progress.JobFinished(w, rec)
		if opts.Store != nil {
			if err := opts.Store.Append(rec); err != nil {
				// A record that cannot be made durable stops the campaign:
				// running on would only compute results nobody keeps.
				return fmt.Errorf("campaign: result store: %w", err)
			}
		}
		return nil
	})
	close(hbDone)

	mu.Lock()
	final := snapshot()
	progress.Done(final)
	mu.Unlock()

	if err == nil {
		err = ctx.Err()
	}
	return rep, err
}

// ExecuteJob checks one job outside any pool: the job-level entry point
// used by the verification service's worker processes (internal/serve),
// which own their scheduling and durability and only need the check
// itself — deadline classification, bounded-engine rescue, and error
// capture included. It is runJob exported: a verdict record, an
// "inconclusive (deadline)" record, or an error record; a non-nil error
// is returned only when ctx itself is cancelled (the job has no verdict
// and stays pending).
func ExecuteJob(ctx context.Context, job Job, opts RunOptions) (Record, error) {
	return runJob(ctx, job, opts)
}

// runJob checks one job, classifying the outcome: a verdict record, an
// "inconclusive (deadline)" record (with optional bounded-engine rescue),
// an error record, or — only when the campaign context itself is done — a
// non-nil error and no record.
func runJob(ctx context.Context, job Job, opts RunOptions) (Record, error) {
	start := time.Now()
	jctx := ctx
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	res, sys, err := CheckJob(jctx, job, opts.Options)
	rec := Record{Job: job}
	if Transitioned(job) {
		rec.Transition = TransitionSkippedExecuted
	}
	switch {
	case err == nil:
		fillResult(&rec, res, sys)
	case ctx.Err() != nil:
		// The campaign itself was cancelled (or its deadline passed):
		// no record, the job stays pending for a resume run.
		return Record{}, ctx.Err()
	case errors.Is(err, context.DeadlineExceeded):
		rec.Verdict = "inconclusive (deadline)"
		rec.Inconclusive = true
		if opts.FallbackBMC && job.Engine != "bmc" {
			fctx := ctx
			var cancel context.CancelFunc
			if opts.Timeout > 0 {
				fctx, cancel = context.WithTimeout(ctx, opts.Timeout)
			}
			fjob := job
			fjob.Engine = "bmc"
			fres, fsys, ferr := CheckJob(fctx, fjob, opts.Options)
			if cancel != nil {
				cancel()
			}
			if ferr == nil {
				fillResult(&rec, fres, fsys)
				rec.Inconclusive = false
				rec.FallbackEngine = "bmc"
			} else if ctx.Err() != nil {
				return Record{}, ctx.Err()
			}
			// A fallback that errors or times out too leaves the
			// inconclusive record in place.
		}
	default:
		rec.Verdict = "error"
		rec.Error = err.Error()
	}
	rec.WallMS = time.Since(start).Milliseconds()
	if rec.WallMS == 0 {
		rec.WallMS = 1 // sub-millisecond jobs still count as work done
	}
	return rec, nil
}

func fillResult(rec *Record, res *mc.Result, sys *gcl.System) {
	rec.Verdict = res.Verdict.String()
	rec.Holds = res.Holds()
	rec.ModelDigest = sys.ShortDigest()
	if res.Trace != nil {
		rec.CexLen = res.Trace.Len()
		rec.CexDigest = traceDigest(sys, res.Trace)
	}
	st := res.Stats
	rec.Stats = RecordStats{
		Engine:       st.Engine,
		StateBits:    st.StateBits,
		BDDVars:      st.BDDVars,
		Visited:      st.Visited,
		Iterations:   st.Iterations,
		PeakNodes:    st.PeakNodes,
		Reorders:     st.Reorders,
		Conflicts:    st.Conflicts,
		SATQueries:   st.SATQueries,
		Decisions:    st.Decisions,
		Propagations: st.Propagations,
		Restarts:     st.Restarts,
		Obligations:  st.Obligations,
		CoreShrink:   st.CoreShrink,

		OptVarsDropped: st.OptVarsDropped,
		OptCmdsDropped: st.OptCmdsDropped,
		OptBitsSaved:   st.OptBitsSaved,
	}
	if st.Reachable != nil {
		rec.Stats.Reachable = st.Reachable.String()
	}
}

// traceDigest hashes the counterexample's state sequence (plus the lasso
// loop-back index) into a short reproducible fingerprint: the engines are
// deterministic, so identical configurations yield identical digests.
func traceDigest(sys *gcl.System, t *mc.Trace) string {
	h := sha256.New()
	vars := sys.StateVars()
	for _, st := range t.States {
		io.WriteString(h, gcl.Key(st, vars))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "loop=%d", t.LoopsTo)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// CheckJob checks one job on a private model, so concurrent jobs share
// nothing: JobModel, then core.Check with opts (BMCDepth defaults to the
// model's 2·w_sup). It returns the result and the checked source system.
func CheckJob(ctx context.Context, job Job, opts core.Options) (*mc.Result, *gcl.System, error) {
	eng, err := core.ParseEngine(job.Engine)
	if err != nil {
		return nil, nil, err
	}
	sys, prop, depth, err := JobModel(job, opts)
	if err != nil {
		return nil, nil, err
	}
	if opts.BMCDepth == 0 {
		opts.BMCDepth = depth
	}
	// With -opt the trace (and its digest) come back inflated to full
	// source-model states, so records stay comparable across opt settings.
	res, err := core.Check(ctx, sys, prop, eng, opts)
	return res, sys, err
}

// HubConfig maps a hub-topology job onto its model configuration.
func HubConfig(job Job) startup.Config {
	cfg := startup.DefaultConfig(job.N)
	cfg.DeltaInit = job.DeltaInit
	cfg.DisableBigBang = !job.BigBang
	switch {
	case job.FaultyNode >= 0:
		cfg = cfg.WithFaultyNode(job.FaultyNode)
		cfg.FaultDegree = job.Degree
	case job.FaultyHub >= 0:
		cfg = cfg.WithFaultyHub(job.FaultyHub)
	}
	return cfg
}

// BusConfig maps a bus-topology job onto its model configuration.
func BusConfig(job Job) original.Config {
	cfg := original.Config{
		N:           job.N,
		FaultyNode:  job.FaultyNode,
		FaultDegree: job.Degree,
		DeltaInit:   job.DeltaInit,
	}
	if cfg.FaultyNode < 0 {
		cfg.FaultDegree = maxBusDegree // degree is irrelevant but must validate
	}
	return cfg
}

// JobModel builds a job's model without checking anything: the finalized
// system, the lemma's property on it, and the SAT engines' default depth
// 2·w_sup (what a Suite gives an unset Options.BMCDepth). Hub-topology
// lemmas resolve through core.Suite.Property, so opts.TimelinessBound
// applies to the timeliness lemmas; the bus topology defines safety and
// liveness only.
func JobModel(job Job, opts core.Options) (*gcl.System, mc.Property, int, error) {
	depth := 2 * (tta.Params{N: job.N}).WorstCaseStartup()
	switch job.Topology {
	case TopologyHub:
		lemmas, err := core.ParseLemmas(job.Lemma)
		if err != nil || len(lemmas) != 1 {
			return nil, mc.Property{}, 0, fmt.Errorf("campaign: bad lemma %q", job.Lemma)
		}
		suite, err := core.NewSuite(HubConfig(job), opts)
		if err != nil {
			return nil, mc.Property{}, 0, err
		}
		prop, err := suite.Property(lemmas[0])
		return suite.Model.Sys, prop, depth, err
	case TopologyBus:
		m, err := original.Build(BusConfig(job))
		if err != nil {
			return nil, mc.Property{}, 0, err
		}
		switch job.Lemma {
		case "safety":
			return m.Sys, m.Safety(), depth, nil
		case "liveness":
			return m.Sys, m.Liveness(), depth, nil
		}
		return nil, mc.Property{}, 0, fmt.Errorf("campaign: bus topology has no lemma %q", job.Lemma)
	default:
		return nil, mc.Property{}, 0, fmt.Errorf("campaign: unknown topology %q", job.Topology)
	}
}

// JobModelDigest returns the canonical content address of the job's
// finalized system (gcl.System.Digest). The verification service computes
// it at submission time to probe the verdict cache before scheduling a
// single job.
func JobModelDigest(job Job) (string, error) {
	sys, _, _, err := JobModel(job, core.Options{})
	if err != nil {
		return "", err
	}
	return sys.Digest(), nil
}
