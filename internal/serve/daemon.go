package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ttastartup/internal/campaign"
	"ttastartup/internal/jsonl"
	"ttastartup/internal/obs"
	"ttastartup/internal/sim/mcfi"
)

// Config configures a Daemon.
type Config struct {
	// Dir is the daemon's data directory (created if absent): the verdict
	// cache lives in Dir/cache, jobs in Dir/jobs/<id>.
	Dir string
	// Workers is the number of worker slots (<=0: 1).
	Workers int
	// WorkerCmd is the argv used to spawn one worker process per slot
	// (typically the daemon's own binary with a -worker flag). Empty:
	// units run in-process — the mode library tests use.
	WorkerCmd []string
	// Scope receives serve.* metrics and per-job trace spans.
	Scope obs.Scope
	// Log receives scheduler and worker-stderr noise (default: discard).
	Log io.Writer
}

// JobStatus is the API view of one job.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"` // queued | running | done | failed
	// Total counts the job's work units (campaign jobs or mcfi batches).
	Total int `json:"total"`
	// Done = Cached + Executed (+ units that failed).
	Done int `json:"done"`
	// Cached units were answered by the verdict cache without running.
	Cached int `json:"cached"`
	// Executed units ran on a worker this daemon lifetime or a previous
	// one (journaled executions survive restarts).
	Executed int `json:"executed"`
	// Recovered units had a dangling lease after a crash and were re-run.
	Recovered int `json:"recovered"`
	// Failed counts units whose execution errored (after worker retries).
	Failed int `json:"failed"`
	// ExecMS sums the wall time of the job's executed units, milliseconds.
	ExecMS int64 `json:"exec_ms"`
	// SavedMS sums the wall time the verdict cache saved this job: for each
	// cached unit, the cost of the execution that populated its entry.
	SavedMS int64 `json:"saved_ms"`
	// Error is the job-level failure message (state == "failed").
	Error string `json:"error,omitempty"`
	// Summary is the one-line result tally (terminal states).
	Summary string `json:"summary,omitempty"`
}

// tallyLocked folds one unit result into the job's counters. It is the
// single accounting path for live completions and journal replay, so a
// recovered job's saved/executed totals match an uninterrupted run's.
// Caller holds j.mu (or owns j exclusively during recovery).
func (j *jobRun) tallyLocked(ur unitResult) {
	switch {
	case ur.Err != "":
		j.failed++
	case ur.Cached:
		j.cached++
		if ur.Stats != nil {
			j.savedMS += ur.Stats.WallMS
		}
	default:
		j.executed++
		if ur.Stats != nil {
			j.execMS += ur.Stats.WallMS
		}
	}
	if ur.Recovered {
		j.recovered++
	}
}

// dispatch pairs a unit with its job for the scheduler queue.
type dispatch struct {
	job *jobRun
	u   unit
}

// jobRun is the in-memory state of one job.
type jobRun struct {
	id  string
	dir string
	req SubmitRequest
	// units is the deterministic expansion; results arrive keyed by unit ID.
	units []unit

	mu        sync.Mutex
	state     string
	results   map[string]unitResult
	cached    int
	executed  int
	recovered int
	failed    int
	execMS    int64
	savedMS   int64
	errMsg    string
	summary   string
	journal   *jsonl.Log
	leases    *jsonl.Log
	// recoverSet marks units with a dangling lease from a previous daemon
	// process: they were in flight when it died.
	recoverSet map[string]bool

	events   *eventLog
	finished chan struct{}
}

// Daemon is the embeddable serve engine; cmd/ttaserved wraps it with an
// HTTP listener and process management.
type Daemon struct {
	cfg   Config
	cache *cache
	// epoch anchors unit dispatch times: every journaled StartUS is
	// microseconds since this instant, the time base of the merged trace.
	epoch time.Time

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan dispatch
	depth  atomic.Int64
	busy   atomic.Int64
	wg     sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*jobRun
	order   []string
	usedIDs map[string]bool
	closed  bool
}

// New opens (or creates) the data directory, recovers every unfinished
// job found in it — re-expanding specs, truncating torn journal tails,
// and re-queueing the un-journaled remainder — and starts the scheduler.
func New(cfg Config) (*Daemon, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.Scope.Reg == nil {
		// The HTTP API always exposes /metricsz and the fleet accounting
		// behind it, so the daemon needs a live registry even when the
		// caller did not wire any other obs sink.
		cfg.Scope.Reg = obs.NewRegistry()
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	c, err := openCache(filepath.Join(cfg.Dir, "cache"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:     cfg,
		cache:   c,
		epoch:   time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		queue:   make(chan dispatch),
		jobs:    make(map[string]*jobRun),
		usedIDs: make(map[string]bool),
	}
	d.cfg.Scope.Reg.Gauge(obs.MServeWorkers).Set(int64(cfg.Workers))
	if err := d.recover(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		d.wg.Add(1)
		go d.workerLoop(i)
	}
	return d, nil
}

// recover scans Dir/jobs and rebuilds every job: finished jobs load their
// final status, unfinished ones re-queue their pending units.
func (d *Daemon) recover() error {
	entries, err := os.ReadDir(filepath.Join(d.cfg.Dir, "jobs"))
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, id := range names {
		if err := d.recoverJob(id); err != nil {
			return fmt.Errorf("serve: recover job %s: %w", id, err)
		}
	}
	return nil
}

func (d *Daemon) recoverJob(id string) error {
	dir := filepath.Join(d.cfg.Dir, "jobs", id)
	specData, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if err != nil {
		// A crash between mkdir and the atomic spec write leaves an empty
		// shell; drop it.
		if os.IsNotExist(err) {
			return os.RemoveAll(dir)
		}
		return err
	}
	var req SubmitRequest
	if err := json.Unmarshal(specData, &req); err != nil {
		return err
	}

	// report.txt is written last at finalization, so its presence means
	// the job (and its status.json) is complete.
	if _, err := os.Stat(filepath.Join(dir, "report.txt")); err == nil {
		statusData, err := os.ReadFile(filepath.Join(dir, "status.json"))
		if err != nil {
			return err
		}
		var st JobStatus
		if err := json.Unmarshal(statusData, &st); err != nil {
			return err
		}
		j := &jobRun{
			id: id, dir: dir, req: req,
			state:    st.State,
			cached:   st.Cached,
			executed: st.Executed, recovered: st.Recovered,
			failed: st.Failed, execMS: st.ExecMS, savedMS: st.SavedMS,
			errMsg: st.Error, summary: st.Summary,
			results:  map[string]unitResult{},
			events:   newEventLog(),
			finished: make(chan struct{}),
		}
		// Total survives in status.json; no need to re-expand the spec.
		j.units = make([]unit, st.Total)
		close(j.finished)
		j.events.finish()
		d.register(j)
		return nil
	}

	j, err := d.newJobRun(id, dir, req)
	if err != nil {
		return err
	}
	d.register(j)
	d.start(j)
	return nil
}

// newJobRun builds the in-memory state for an unfinished job: it expands
// the units and opens the journal and lease logs, replaying the intact
// prefix of each (both are empty for a new job).
func (d *Daemon) newJobRun(id, dir string, req SubmitRequest) (*jobRun, error) {
	units, err := expand(req)
	if err != nil {
		return nil, err
	}
	var (
		journaled []unitResult
		leased    []lease
	)
	journal, err := jsonl.Open(filepath.Join(dir, "journal.jsonl"), jsonl.Into(&journaled))
	if err != nil {
		return nil, err
	}
	leases, err := jsonl.Open(filepath.Join(dir, "leases.jsonl"), jsonl.Into(&leased))
	if err != nil {
		journal.Close()
		return nil, err
	}
	j := &jobRun{
		id: id, dir: dir, req: req, units: units,
		state:      "queued",
		results:    make(map[string]unitResult, len(units)),
		recoverSet: map[string]bool{},
		journal:    journal,
		leases:     leases,
		events:     newEventLog(),
		finished:   make(chan struct{}),
	}
	for _, r := range journaled {
		j.results[r.Unit] = r
		j.tallyLocked(r)
	}
	for _, l := range leased {
		if _, ok := j.results[l.Unit]; !ok {
			j.recoverSet[l.Unit] = true
		}
	}
	return j, nil
}

func (d *Daemon) register(j *jobRun) {
	d.mu.Lock()
	d.jobs[j.id] = j
	d.order = append(d.order, j.id)
	d.mu.Unlock()
}

// start publishes the queued event and feeds the job's pending units to
// the scheduler queue from a goroutine (the queue is unbuffered; feeding
// asynchronously keeps Submit non-blocking).
func (d *Daemon) start(j *jobRun) {
	j.mu.Lock()
	pending := make([]unit, 0, len(j.units))
	for _, u := range j.units {
		if _, ok := j.results[u.ID]; !ok {
			pending = append(pending, u)
		}
	}
	j.state = "running"
	j.mu.Unlock()
	j.events.publish(Event{Type: "queued", Total: len(j.units), Done: len(j.units) - len(pending)})
	if len(pending) == 0 {
		d.finalize(j)
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for _, u := range pending {
			d.depth.Add(1)
			d.cfg.Scope.Reg.Gauge(obs.MServeQueueDepth).Set(d.depth.Load())
			select {
			case d.queue <- dispatch{job: j, u: u}:
			case <-d.ctx.Done():
				d.depth.Add(-1)
				return
			}
		}
	}()
}

// Submit validates and durably accepts a request, returning the queued
// job's status. The job directory and spec file exist before Submit
// returns, so an accepted job survives an immediate crash.
func (d *Daemon) Submit(req SubmitRequest) (JobStatus, error) {
	if err := req.Validate(); err != nil {
		return JobStatus{}, err
	}
	if req.MCFI != nil {
		n := req.MCFI.Normalize()
		req.MCFI = &n
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return JobStatus{}, fmt.Errorf("serve: daemon is shut down")
	}
	id := d.nextIDLocked(req.Digest())
	d.mu.Unlock()

	dir := filepath.Join(d.cfg.Dir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return JobStatus{}, err
	}
	j, err := d.newJobRun(id, dir, req)
	if err != nil {
		os.RemoveAll(dir)
		return JobStatus{}, err
	}
	specData, err := json.Marshal(req)
	if err != nil {
		return JobStatus{}, err
	}
	if err := jsonl.WriteAtomic(filepath.Join(dir, "spec.json"), specData); err != nil {
		return JobStatus{}, err
	}
	d.cfg.Scope.Reg.Counter(obs.MServeJobsSubmitted).Add(1)
	d.register(j)
	d.start(j)
	return d.status(j), nil
}

// nextIDLocked allocates "<digest[:12]>-<seq>", scanning existing and
// reserved job IDs so sequence numbers survive restarts and concurrent
// submissions never collide.
func (d *Daemon) nextIDLocked(digest string) string {
	prefix := digest[:12] + "-"
	seq := 0
	bump := func(id string) {
		if rest, ok := strings.CutPrefix(id, prefix); ok {
			if n, err := strconv.Atoi(rest); err == nil && n >= seq {
				seq = n + 1
			}
		}
	}
	for id := range d.jobs {
		bump(id)
	}
	for id := range d.usedIDs {
		bump(id)
	}
	id := fmt.Sprintf("%s%d", prefix, seq)
	d.usedIDs[id] = true
	return id
}

// workerLoop owns one executor slot: it pulls dispatches off the queue
// until shutdown, consulting the verdict cache before paying for a
// worker execution.
func (d *Daemon) workerLoop(slot int) {
	defer d.wg.Done()
	var ex executor
	defer func() {
		if ex != nil {
			ex.close()
		}
	}()
	for {
		select {
		case <-d.ctx.Done():
			return
		case dp := <-d.queue:
			d.depth.Add(-1)
			d.cfg.Scope.Reg.Gauge(obs.MServeQueueDepth).Set(d.depth.Load())
			ex = d.runUnit(slot, ex, dp)
		}
	}
}

// runUnit resolves one unit — cache hit or worker execution with respawn
// retries — and journals the outcome. It returns the (possibly respawned
// or newly created) executor for the slot.
func (d *Daemon) runUnit(slot int, ex executor, dp dispatch) executor {
	j, u := dp.job, dp.u
	if e, ok := d.cache.get(u.CacheKey); ok && e.Kind == j.req.Kind {
		ur := unitResult{
			V: journalVersion, Unit: u.ID, CacheKey: u.CacheKey, Cached: true,
			// A dangling-lease unit counts as recovered however it gets
			// re-resolved: the crash abandoned it mid-flight, and whether
			// its re-resolution finds the cache populated (the crash hit
			// between journal append and cache put, or another job cached
			// the key since) is an accident of timing the operator should
			// not have to reason about.
			Recovered: j.recoverSet[u.ID],
			StartUS:   time.Since(d.epoch).Microseconds(),
			// The entry's stats are the cost of the execution that populated
			// it — what this hit saved.
			Stats: e.Stats,
		}
		switch {
		case e.Record != nil:
			ur.Record = *e.Record
		case e.BatchRecord != nil:
			ur.Record = *e.BatchRecord
		}
		d.cfg.Scope.Reg.Counter(obs.MServeUnitsCached).Add(1)
		if ur.Recovered {
			d.cfg.Scope.Reg.Counter(obs.MServeUnitsRecovered).Add(1)
		}
		if e.Stats != nil {
			d.cfg.Scope.Reg.Counter(obs.MServeSavedMS).Add(e.Stats.WallMS)
		}
		d.complete(j, ur)
		return ex
	}

	if err := j.leases.Append(lease{Unit: u.ID, Worker: slot}); err != nil {
		d.failJob(j, fmt.Errorf("serve: lease append: %w", err))
		return ex
	}
	d.cfg.Scope.Reg.Gauge(obs.MServeWorkersBusy).Set(d.busy.Add(1))
	defer func() {
		d.cfg.Scope.Reg.Gauge(obs.MServeWorkersBusy).Set(d.busy.Add(-1))
	}()
	startUS := time.Since(d.epoch).Microseconds()
	t := task{Kind: j.req.Kind, Unit: u.ID}
	switch j.req.Kind {
	case KindVerify:
		t.Job, t.Config = u.Job, j.req.Config
	case KindMCFI:
		t.MCFI, t.Batch = j.req.MCFI, u.Batch
	}

	var (
		res result
		err error
	)
	for attempt := 0; attempt < 3; attempt++ {
		if ex == nil {
			ex, err = d.newExecutor()
			if err != nil {
				continue
			}
		}
		res, err = ex.execute(d.ctx, t)
		if err == nil {
			break
		}
		if d.ctx.Err() != nil {
			// Shutdown: leave the unit un-journaled; its dangling lease
			// makes the next daemon re-run it as "recovered".
			return ex
		}
		fmt.Fprintf(d.cfg.Log, "serve: worker %d: %v (respawning)\n", slot, err)
		ex.close()
		ex = nil
		d.cfg.Scope.Reg.Counter(obs.MServeWorkerRestarts).Add(1)
	}

	ur := unitResult{
		V: journalVersion, Unit: u.ID, CacheKey: u.CacheKey,
		Recovered: j.recoverSet[u.ID],
		Worker:    slot, StartUS: startUS, Stats: res.Stats,
	}
	if ur.Recovered {
		d.cfg.Scope.Reg.Counter(obs.MServeUnitsRecovered).Add(1)
	}
	switch {
	case err != nil:
		ur.Err = err.Error()
	case res.Err != "":
		ur.Err = res.Err
	default:
		var payload any = res.Record
		if res.BatchRecord != nil {
			payload = res.BatchRecord
		}
		data, merr := json.Marshal(payload)
		if merr != nil {
			ur.Err = merr.Error()
		} else {
			ur.Record = data
		}
	}
	d.cfg.Scope.Reg.Counter(obs.MServeUnitsExecuted).Add(1)
	if res.Stats != nil {
		// Fold the worker's registry snapshot into the fleet registry and
		// observe the unit's cost in the fleet-wide distributions.
		d.cfg.Scope.Reg.Merge(res.Stats.Metrics)
		d.cfg.Scope.Reg.Histogram(obs.MServeUnitWallMS).Observe(res.Stats.WallMS)
		d.cfg.Scope.Reg.Histogram(obs.MServeUnitCPUMS).Observe(res.Stats.CPUMS)
		d.cfg.Scope.Reg.Histogram(obs.MServeUnitRSSKB).Observe(res.Stats.MaxRSSKB)
	}
	d.complete(j, ur)

	// Populate the verdict cache — but never with failures, and never
	// with engine-level errors (a Record carrying Error is a transient
	// outcome, not a content-addressed fact about the model).
	if ur.Err == "" && cacheable(j.req.Kind, ur.Record) {
		e := cacheEntry{Key: u.CacheKey, Kind: j.req.Kind, Stats: res.Stats.withoutSpans()}
		raw := json.RawMessage(ur.Record)
		if j.req.Kind == KindVerify {
			e.Record = &raw
		} else {
			e.BatchRecord = &raw
		}
		if cerr := d.cache.put(e); cerr != nil {
			fmt.Fprintf(d.cfg.Log, "serve: cache put: %v\n", cerr)
		}
	}
	return ex
}

// cacheable rejects verify records that carry an engine-level error.
func cacheable(kind string, record json.RawMessage) bool {
	if kind != KindVerify {
		return true
	}
	var rec campaign.Record
	if err := json.Unmarshal(record, &rec); err != nil {
		return false
	}
	return rec.Error == ""
}

func (d *Daemon) newExecutor() (executor, error) {
	if len(d.cfg.WorkerCmd) == 0 {
		return inprocExec{}, nil
	}
	return startProc(d.cfg.WorkerCmd, d.cfg.Log)
}

// complete journals one unit result (fsynced — the unit's durability
// point), updates counters, publishes the event, and finalizes the job
// when it was the last unit.
func (d *Daemon) complete(j *jobRun, ur unitResult) {
	j.mu.Lock()
	if err := j.journal.Append(ur); err != nil {
		j.mu.Unlock()
		d.failJob(j, fmt.Errorf("serve: journal append: %w", err))
		return
	}
	j.results[ur.Unit] = ur
	j.tallyLocked(ur)
	done, total := len(j.results), len(j.units)
	j.mu.Unlock()
	j.events.publish(Event{
		Type: "unit_done", Unit: ur.Unit,
		Cached: ur.Cached, Recovered: ur.Recovered, Err: ur.Err,
		Done: done, Total: total,
	})
	if done == total {
		d.finalize(j)
	}
}

// finalize renders and atomically persists the job's reports — the
// canonical, timing-free report.txt last, as the completion marker — and
// closes the event stream.
func (d *Daemon) finalize(j *jobRun) {
	text, jsonData, summary, err := buildReport(j)
	j.mu.Lock()
	if err == nil {
		j.state = "done"
		j.summary = summary
	} else {
		j.state = "failed"
		j.errMsg = err.Error()
	}
	j.journal.Close()
	j.leases.Close()
	st := d.statusLocked(j)
	j.mu.Unlock()

	if err == nil {
		if werr := jsonl.WriteAtomic(filepath.Join(j.dir, "report.json"), jsonData); werr == nil {
			statusData, _ := json.Marshal(st)
			if werr = jsonl.WriteAtomic(filepath.Join(j.dir, "status.json"), statusData); werr == nil {
				werr = jsonl.WriteAtomic(filepath.Join(j.dir, "report.txt"), []byte(text))
			}
		} else {
			err = werr
		}
	}
	d.cfg.Scope.Reg.Counter(obs.MServeJobsDone).Add(1)
	if err != nil {
		d.cfg.Scope.Reg.Counter(obs.MServeJobsFailed).Add(1)
	}
	j.events.publish(Event{Type: j.state, Err: j.errMsg, Done: len(j.results), Total: len(j.units)})
	j.events.finish()
	close(j.finished)
}

// failJob transitions a job to failed on an infrastructure error (journal
// or lease write failure) without waiting for remaining units.
func (d *Daemon) failJob(j *jobRun, err error) {
	j.mu.Lock()
	if j.state == "failed" || j.state == "done" {
		j.mu.Unlock()
		return
	}
	j.state = "failed"
	j.errMsg = err.Error()
	j.mu.Unlock()
	d.cfg.Scope.Reg.Counter(obs.MServeJobsFailed).Add(1)
	j.events.publish(Event{Type: "failed", Err: err.Error()})
	j.events.finish()
	close(j.finished)
}

// buildReport reconstructs the job's final report from its unit results.
// Verify jobs rebuild a campaign.Report (its Canonical() text is the
// byte-comparison target of the crash-recovery tests); mcfi jobs reduce
// their batch records in batch order.
func buildReport(j *jobRun) (text string, jsonData []byte, summary string, err error) {
	j.mu.Lock()
	results := make(map[string]unitResult, len(j.results))
	for k, v := range j.results {
		results[k] = v
	}
	j.mu.Unlock()

	switch j.req.Kind {
	case KindVerify:
		jobs := make([]campaign.Job, len(j.units))
		for i, u := range j.units {
			jobs[i] = *u.Job
		}
		rep := campaign.NewReport(jobs)
		for _, ur := range results {
			if ur.Err != "" {
				continue
			}
			var rec campaign.Record
			if uerr := json.Unmarshal(ur.Record, &rec); uerr != nil {
				return "", nil, "", fmt.Errorf("serve: journal record %s: %w", ur.Unit, uerr)
			}
			rep.Records[rec.Job.ID()] = rec
		}
		text = rep.Canonical()
		summary = rep.Summary()
		jsonData, err = json.MarshalIndent(struct {
			Summary string            `json:"summary"`
			Records []campaign.Record `json:"records"`
		}{Summary: summary, Records: recordsInOrder(rep)}, "", "  ")
		return text, jsonData, summary, err
	case KindMCFI:
		recs := make([]mcfi.BatchRecord, 0, len(results))
		for _, ur := range results {
			if ur.Err != "" {
				return "", nil, "", fmt.Errorf("serve: unit %s failed: %s", ur.Unit, ur.Err)
			}
			var rec mcfi.BatchRecord
			if uerr := json.Unmarshal(ur.Record, &rec); uerr != nil {
				return "", nil, "", fmt.Errorf("serve: journal record %s: %w", ur.Unit, uerr)
			}
			recs = append(recs, rec)
		}
		rep, rerr := mcfi.ReduceRecords(*j.req.MCFI, recs)
		if rerr != nil {
			return "", nil, "", rerr
		}
		var buf strings.Builder
		if werr := rep.WriteJSON(&buf); werr != nil {
			return "", nil, "", werr
		}
		return buf.String(), []byte(buf.String()), rep.String(), nil
	default:
		return "", nil, "", fmt.Errorf("serve: unknown kind %q", j.req.Kind)
	}
}

func recordsInOrder(rep *campaign.Report) []campaign.Record {
	out := make([]campaign.Record, 0, len(rep.Jobs))
	for _, job := range rep.Jobs {
		if rec, ok := rep.Records[job.ID()]; ok {
			out = append(out, rec)
		}
	}
	return out
}

// status renders the API view of a job.
func (d *Daemon) status(j *jobRun) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return d.statusLocked(j)
}

func (d *Daemon) statusLocked(j *jobRun) JobStatus {
	return JobStatus{
		ID: j.id, Kind: j.req.Kind, State: j.state,
		Total: len(j.units), Done: len(j.results),
		Cached: j.cached, Executed: j.executed,
		Recovered: j.recovered, Failed: j.failed,
		ExecMS: j.execMS, SavedMS: j.savedMS,
		Error: j.errMsg, Summary: j.summary,
	}
}

// Job returns one job's status.
func (d *Daemon) Job(id string) (JobStatus, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return d.status(j), true
}

// Jobs lists all jobs in registration order.
func (d *Daemon) Jobs() []JobStatus {
	d.mu.Lock()
	ids := make([]string, len(d.order))
	copy(ids, d.order)
	d.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := d.Job(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// Wait blocks until the job reaches a terminal state or ctx is cancelled.
func (d *Daemon) Wait(ctx context.Context, id string) (JobStatus, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: no job %s", id)
	}
	select {
	case <-j.finished:
		return d.status(j), nil
	case <-ctx.Done():
		return d.status(j), ctx.Err()
	}
}

// Events subscribes to a job's progress feed (history replay + live).
func (d *Daemon) Events(id string) (<-chan Event, func(), error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("serve: no job %s", id)
	}
	ch, cancel := j.events.subscribe()
	return ch, cancel, nil
}

// ReportText returns a finished job's canonical report.
func (d *Daemon) ReportText(id string) ([]byte, error) {
	return d.reportFile(id, "report.txt")
}

// ReportJSON returns a finished job's JSON report.
func (d *Daemon) ReportJSON(id string) ([]byte, error) {
	return d.reportFile(id, "report.json")
}

func (d *Daemon) reportFile(id, name string) ([]byte, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: no job %s", id)
	}
	data, err := os.ReadFile(filepath.Join(j.dir, name))
	if err != nil {
		return nil, fmt.Errorf("serve: job %s has no report yet", id)
	}
	return data, nil
}

// CacheLen reports the number of verdict-cache entries (metrics/tests).
func (d *Daemon) CacheLen() (int, error) { return d.cache.len() }

// Close stops the scheduler and worker processes. In-flight units are
// abandoned un-journaled — exactly the state a crash leaves behind — so
// a successor daemon resumes them.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.cancel()
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, j := range d.jobs {
		j.mu.Lock()
		if j.journal != nil {
			j.journal.Close()
		}
		if j.leases != nil {
			j.leases.Close()
		}
		j.mu.Unlock()
	}
	return nil
}
