package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ttastartup/internal/core"
)

// testSpec is a small but representative sweep: both topologies, big-bang
// on and off, two degrees, two lemmas.
func testSpec() Spec {
	return Spec{
		Ns:         []int{3},
		Topologies: []string{TopologyHub, TopologyBus},
		BigBang:    []bool{true, false},
		Degrees:    []int{1, 2},
		Lemmas:     []string{"safety", "liveness"},
		DeltaInit:  4,
	}
}

func testJobs(t *testing.T) []Job {
	t.Helper()
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestSpecJobsDeterministic(t *testing.T) {
	a := testJobs(t)
	b := testJobs(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same spec differ")
	}
	seen := make(map[string]bool)
	for _, j := range a {
		id := j.ID()
		if seen[id] {
			t.Fatalf("duplicate job %s", id)
		}
		seen[id] = true
	}
	// hub: 2 bigbang × 2 degrees × 2 lemmas = 8; bus: 2 degrees × 2 lemmas = 4.
	if len(a) != 12 {
		t.Fatalf("want 12 jobs, got %d", len(a))
	}
}

func TestSpecJobsSafety2Collapses(t *testing.T) {
	jobs, err := Spec{Ns: []int{3}, Lemmas: []string{"safety_2"}, Degrees: []int{1, 2, 3}}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("faulty-hub lemma should collapse the degree sweep to 1 job, got %d", len(jobs))
	}
	if jobs[0].FaultyHub != 0 || jobs[0].FaultyNode != -1 {
		t.Fatalf("safety_2 job should target the hub: %+v", jobs[0])
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Topologies: []string{"ring"}},
		{Ns: []int{2}},
		{Degrees: []int{7}},
		{Lemmas: []string{"nope"}},
		{Engines: []string{"magic"}},
	}
	for _, s := range bad {
		if _, err := s.Jobs(); err == nil {
			t.Errorf("spec %+v should be rejected", s)
		}
	}
}

// TestParallelMatchesSerial: the canonical report of a parallel run is
// byte-identical to a serial run of the same job list.
func TestParallelMatchesSerial(t *testing.T) {
	jobs := testJobs(t)
	serial, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Complete() || !parallel.Complete() {
		t.Fatal("incomplete report from an uncancelled run")
	}
	if s, p := serial.Canonical(), parallel.Canonical(); s != p {
		t.Fatalf("parallel run diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

// countingProgress cancels the campaign after n finished jobs, mimicking
// an operator interrupt at a deterministic point.
type countingProgress struct {
	NopProgress
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *countingProgress) JobFinished(worker int, rec Record) {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

// TestCancelMidFlight: cancelling a running campaign returns ctx.Err(),
// keeps the already-finished records, and leaks no goroutines.
func TestCancelMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	jobs := testJobs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := &countingProgress{n: 3, cancel: cancel}
	rep, err := RunJobs(ctx, jobs, RunOptions{Workers: 2, Progress: prog, Heartbeat: time.Millisecond})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(rep.Records) < 3 {
		t.Fatalf("finished records lost on cancel: %d", len(rep.Records))
	}
	if rep.Complete() {
		t.Fatal("cancelled campaign claims completion")
	}
	// All workers and the heartbeat goroutine must have exited; allow the
	// runtime a moment to reap them.
	for i := 0; ; i++ {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResumeByteIdentical: interrupt a campaign mid-flight, resume it from
// the store, and require the final canonical report to be byte-identical
// to an uninterrupted serial run.
func TestResumeByteIdentical(t *testing.T) {
	jobs := testJobs(t)

	fresh, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	prog := &countingProgress{n: 4, cancel: cancel}
	_, err = RunJobs(ctx, jobs, RunOptions{Workers: 2, Store: store, Progress: prog})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	store.Close()

	resumed, err := OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Len() < 4 {
		t.Fatalf("store lost records across the interrupt: %d", resumed.Len())
	}
	rep, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 2, Store: resumed})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == 0 {
		t.Fatal("resume run recomputed everything (no records skipped)")
	}
	if !rep.Complete() {
		t.Fatal("resumed campaign incomplete")
	}
	if f, r := fresh.Canonical(), rep.Canonical(); f != r {
		t.Fatalf("resumed report differs from fresh run:\n--- fresh ---\n%s--- resumed ---\n%s", f, r)
	}
}

// TestStoreTornTail: a crash mid-append leaves a torn trailing line; the
// store must keep the intact prefix and drop the tail.
func TestStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	store, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Job: Job{Topology: TopologyHub, N: 3, FaultyNode: 1, FaultyHub: -1, Degree: 1, Lemma: "safety", Engine: "symbolic"}, Verdict: "holds", Holds: true, WallMS: 5}
	if err := store.Append(rec); err != nil {
		t.Fatal(err)
	}
	store.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"job":{"topology":"hub","n":3,` /* torn mid-record */)
	f.Close()

	reopened, err := OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 1 {
		t.Fatalf("want 1 intact record, got %d", reopened.Len())
	}
	if _, ok := reopened.Get(rec.Job.ID()); !ok {
		t.Fatal("intact record lost")
	}
	// Appending after recovery must yield a parseable file.
	rec2 := rec
	rec2.Job.Degree = 2
	if err := reopened.Append(rec2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range splitLines(data) {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("corrupt line after recovery: %v", err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("want 2 lines after recovery+append, got %d", lines)
	}
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// TestTimeoutRecordsInconclusive: a job whose budget cannot fit the check
// is recorded as inconclusive, and with FallbackBMC the bounded engine
// produces a bounded verdict tagged with the fallback engine.
func TestTimeoutRecordsInconclusive(t *testing.T) {
	jobs := []Job{{
		Topology: TopologyHub, N: 4, BigBang: true,
		FaultyNode: 2, FaultyHub: -1, Degree: 6,
		Lemma: "safety", Engine: "symbolic",
	}}
	rep, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 1, Timeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := rep.Record(jobs[0])
	if !ok {
		t.Fatal("timed-out job not recorded")
	}
	if !rec.Inconclusive || rec.Verdict != "inconclusive (deadline)" {
		t.Fatalf("want inconclusive record, got %+v", rec)
	}
	if c := rep.Counts(); c.Inconclusive != 1 {
		t.Fatalf("counts: %+v", c)
	}
}

// TestRecoveryJobDeadline: a recovery job honours the per-job budget like
// the other lemmas — both CTL evaluators poll the context — and is
// recorded inconclusive instead of running on to its verdict.
func TestRecoveryJobDeadline(t *testing.T) {
	for _, engine := range []string{"symbolic", "explicit"} {
		job := Job{
			Topology: TopologyHub, N: 3, BigBang: true, FaultyNode: -1, FaultyHub: -1,
			DeltaInit: 4, Lemma: "recovery", Engine: engine, Restartable: true,
		}
		rec, err := ExecuteJob(context.Background(), job, RunOptions{Timeout: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Inconclusive || rec.Verdict != "inconclusive (deadline)" {
			t.Errorf("%s: want inconclusive record, got %+v", engine, rec)
		}
	}
}

func TestTimeoutFallbackBMC(t *testing.T) {
	// The BMC fallback gets a fresh budget; give it room at a shallow depth
	// so the rescue deterministically succeeds where symbolic cannot start.
	jobs := []Job{{
		Topology: TopologyHub, N: 3, BigBang: true,
		FaultyNode: 1, FaultyHub: -1, Degree: 6, DeltaInit: 4,
		Lemma: "safety", Engine: "symbolic",
	}}
	opts := RunOptions{Workers: 1, Timeout: time.Nanosecond, FallbackBMC: true}
	opts.Options.BMCDepth = 2
	// A nanosecond kills the fallback too; rerun with a budget only the
	// bounded engine can meet is timing-dependent, so instead check the
	// plumbing: nanosecond budget + fallback that also times out must stay
	// inconclusive and record no fallback engine.
	rep, err := RunJobs(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := rep.Record(jobs[0])
	if !rec.Inconclusive {
		t.Fatalf("want inconclusive under 1ns budget, got %+v", rec)
	}
	if rec.FallbackEngine != "" {
		t.Fatalf("fallback cannot have succeeded under 1ns: %+v", rec)
	}

	// Now run the fallback path for real: symbolic budget too small, but
	// runJob's fallback is exercised directly with a workable budget.
	frec, err := runJob(context.Background(), jobs[0], RunOptions{
		Timeout: 30 * time.Second, FallbackBMC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if frec.Verdict == "error" {
		t.Fatalf("direct job errored: %s", frec.Error)
	}
}

// TestFallbackRescue forces the deadline-exceeded path deterministically
// by stubbing nothing: a 4-node symbolic liveness check cannot finish in
// 20ms, while a depth-2 BMC pass finishes comfortably within its fresh
// budget of the same 20ms... on slow machines it may not; so assert only
// the two legal outcomes (bounded verdict via fallback, or inconclusive).
func TestFallbackRescue(t *testing.T) {
	jobs := []Job{{
		Topology: TopologyHub, N: 4, BigBang: true,
		FaultyNode: 2, FaultyHub: -1, Degree: 6,
		Lemma: "safety", Engine: "symbolic",
	}}
	opts := RunOptions{Workers: 1, Timeout: 300 * time.Millisecond, FallbackBMC: true}
	opts.Options.BMCDepth = 1
	rep, err := RunJobs(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := rep.Record(jobs[0])
	switch {
	case rec.FallbackEngine == "bmc":
		if rec.Verdict != "holds (bounded)" {
			t.Fatalf("fallback verdict: %+v", rec)
		}
	case rec.Inconclusive:
		// Legal on a very slow machine: both budgets expired.
	case rec.Holds && rec.Stats.Engine == "symbolic":
		// Legal on a very fast machine: symbolic finished inside 300ms.
	default:
		t.Fatalf("unexpected record: %+v", rec)
	}
}

// TestForEach covers the pool helper: full coverage, bounded concurrency,
// worker indexes in range and never shared by two concurrent calls,
// first-error propagation, and cancellation.
func TestForEach(t *testing.T) {
	const workers = 3
	var mu sync.Mutex
	seen := make(map[int]bool)
	var busy [workers]int32
	var active, peak int32
	err := ForEach(context.Background(), workers, 50, func(ctx context.Context, w, i int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker index %d outside [0,%d)", w, workers)
		}
		if !atomic.CompareAndSwapInt32(&busy[w], 0, 1) {
			return fmt.Errorf("worker index %d used by two concurrent calls", w)
		}
		defer atomic.StoreInt32(&busy[w], 0)
		cur := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		atomic.AddInt32(&active, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Fatalf("covered %d of 50 indexes", len(seen))
	}
	if peak > workers {
		t.Fatalf("concurrency bound violated: peak %d workers", peak)
	}

	// Remaining indexes are skipped once an error is seen. Every index from
	// 3 on fails, so a worker that ran one of them has seen an error before
	// it takes its next index: each worker calls fn for at most one index
	// >= 3, however the scheduler interleaves the workers. (Counting calls
	// after a single failing index would measure the scheduler instead: a
	// worker descheduled before running index 3 lets the others run on.)
	boom := errors.New("boom")
	var late int32
	err = ForEach(context.Background(), workers, 100, func(ctx context.Context, _, i int) error {
		if i < 3 {
			return nil
		}
		atomic.AddInt32(&late, 1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if late > workers {
		t.Fatalf("error did not stop the sweep: %d calls at indexes >= 3 on %d workers", late, workers)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = ForEach(ctx, 2, 10, func(ctx context.Context, _, _ int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunJobsStoreFailureStops: once a record cannot be appended to the
// store, RunJobs stops handing out jobs and returns the wrapped store
// error with the partial report instead of running the rest for nothing.
func TestRunJobsStoreFailureStops(t *testing.T) {
	jobs := testJobs(t)
	st, err := OpenStore(filepath.Join(t.TempDir(), "closed.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var started int32
	prog := &startCounter{n: &started}
	rep, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 1, Store: st, Progress: prog})
	if err == nil || !strings.HasPrefix(err.Error(), "campaign: result store:") {
		t.Fatalf("want a campaign: result store: error, got %v", err)
	}
	if n := int(atomic.LoadInt32(&started)); n >= len(jobs) {
		t.Fatalf("all %d jobs ran after the store failed", n)
	}
	if rep == nil || rep.Complete() {
		t.Fatal("a stopped campaign must return an incomplete partial report")
	}
}

// startCounter counts JobStarted calls.
type startCounter struct {
	NopProgress
	n *int32
}

func (s *startCounter) JobStarted(int, Job) { atomic.AddInt32(s.n, 1) }

// TestRecordJSONRoundTrip: records survive the store encoding unchanged.
func TestRecordJSONRoundTrip(t *testing.T) {
	rec := Record{
		Job:       Job{Topology: TopologyBus, N: 4, FaultyNode: 2, FaultyHub: -1, Degree: 3, DeltaInit: 3, Lemma: "liveness", Engine: "symbolic"},
		Verdict:   "VIOLATED",
		CexLen:    16,
		CexDigest: "3cf19f361ba17d35",
		WallMS:    121,
		Stats:     RecordStats{Engine: "symbolic", BDDVars: 120, Reachable: "41322", Iterations: 9},
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("round trip changed the record:\n%+v\n%+v", rec, back)
	}
}

// TestResumeTornLastLine: a kill -9 mid-append leaves the checkpoint
// ending in a truncated record. Resume must drop the partial record,
// re-run exactly that job, and complete the campaign with a report
// byte-identical to an uninterrupted run — not fail, and not trust the
// torn bytes.
func TestResumeTornLastLine(t *testing.T) {
	jobs := testJobs(t)

	fresh, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 2, Store: store}); err != nil {
		t.Fatal(err)
	}
	store.Close()

	// Tear the final record in half, as a crash mid-write would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	if len(lines) != len(jobs) {
		t.Fatalf("store has %d lines for %d jobs", len(lines), len(jobs))
	}
	last := lines[len(lines)-1]
	var lost Record
	if err := json.Unmarshal(last, &lost); err != nil {
		t.Fatal(err)
	}
	torn := len(data) - len(last)/2 - 1 // keep a strict prefix of the last line
	if err := os.Truncate(path, int64(torn)); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenStore(path, true)
	if err != nil {
		t.Fatalf("resume after torn tail failed the campaign: %v", err)
	}
	defer reopened.Close()
	if reopened.Len() != len(jobs)-1 {
		t.Fatalf("want %d intact records after tearing one, got %d", len(jobs)-1, reopened.Len())
	}
	if _, ok := reopened.Get(lost.Job.ID()); ok {
		t.Fatal("torn record must not be trusted")
	}

	rep, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 2, Store: reopened})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != len(jobs)-1 {
		t.Fatalf("resume should re-run exactly the torn job: skipped %d of %d", rep.Skipped, len(jobs))
	}
	if !rep.Complete() {
		t.Fatal("resumed campaign incomplete")
	}
	if f, r := fresh.Canonical(), rep.Canonical(); f != r {
		t.Fatalf("resumed report differs from fresh run:\n--- fresh ---\n%s--- resumed ---\n%s", f, r)
	}
}

// TestRecordModelDigest: every verdict record carries the canonical model
// content address, it matches the digest computed without running the
// check, and semantically different configurations get different
// addresses.
func TestRecordModelDigest(t *testing.T) {
	jobs, err := Spec{
		Ns: []int{3}, Topologies: []string{TopologyHub, TopologyBus},
		Degrees: []int{1, 2}, Lemmas: []string{"safety"}, DeltaInit: 4,
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string) // digest -> job ID (same-model jobs may share)
	for _, j := range jobs {
		rec, ok := rep.Record(j)
		if !ok {
			t.Fatalf("missing record for %s", j.ID())
		}
		if rec.ModelDigest == "" || len(rec.ModelDigest) != 16 {
			t.Fatalf("record %s has no model digest: %+v", j.ID(), rec)
		}
		full, err := JobModelDigest(j)
		if err != nil {
			t.Fatal(err)
		}
		if full[:16] != rec.ModelDigest {
			t.Fatalf("record digest %s disagrees with JobModelDigest %s for %s", rec.ModelDigest, full[:16], j.ID())
		}
		seen[rec.ModelDigest] = j.ID()
	}
	// Degree 1 vs 2 and hub vs bus are different transition systems: the
	// four jobs must span four distinct model digests.
	if len(seen) != 4 {
		t.Fatalf("want 4 distinct model digests across the sweep, got %d: %v", len(seen), seen)
	}
}

// TestJobDesignSwitches: each design switch adds its ID segment and
// reaches the model configuration, and a switched job is a different
// model.
func TestJobDesignSwitches(t *testing.T) {
	base := Job{
		Topology: TopologyHub, N: 3, BigBang: true, FaultyNode: 1, FaultyHub: -1,
		Degree: 6, DeltaInit: 4, Lemma: "liveness", Engine: "symbolic",
	}
	set := base
	set.NoFeedback, set.NoCSPriority, set.NoCSWindow = true, true, true
	set.NoInterlinks, set.NoWatchdog, set.Restartable = true, true, true
	const want = "hub/n=3/bb=on/fnode=1/deg=6/di=4/no-feedback/no-cs-priority/no-cs-window/no-interlinks/no-watchdog/restartable/liveness/symbolic"
	if id := set.ID(); id != want {
		t.Errorf("ID %q, want %q", id, want)
	}
	cfg := HubConfig(set)
	if cfg.Feedback || !cfg.DisableCSPriority || !cfg.DisableCSWindow || !cfg.DisableInterlinks ||
		!cfg.DisableWatchdog || !cfg.RestartableNodes {
		t.Errorf("HubConfig dropped a switch: %+v", cfg)
	}
	if cfg := HubConfig(base); !cfg.Feedback || cfg.DisableCSPriority || cfg.RestartableNodes {
		t.Errorf("HubConfig of the full design: %+v", cfg)
	}
	d0, err := JobModelDigest(base)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := JobModelDigest(set)
	if err != nil {
		t.Fatal(err)
	}
	if d0 == d1 {
		t.Error("switched job has the full design's model digest")
	}
}

// TestTransitionSkippedExecuted: campaign expanders before the
// liveness-to-safety transform silently dropped (induction|ic3)×liveness
// jobs. The same spec now expands to a superset, the new jobs execute and
// carry the explicit "skipped->executed" transition marker, and resuming
// a checkpoint written by the old expander replays its records
// byte-identically — the store grows strictly by appending the
// transitioned jobs.
func TestTransitionSkippedExecuted(t *testing.T) {
	spec := Spec{
		Ns:         []int{3},
		Topologies: []string{TopologyBus},
		Degrees:    []int{3},
		Lemmas:     []string{"safety", "liveness"},
		Engines:    []string{"symbolic", "induction", "ic3"},
		DeltaInit:  2,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var oldJobs, newJobs []Job
	for _, j := range jobs {
		if Transitioned(j) {
			newJobs = append(newJobs, j)
		} else {
			oldJobs = append(oldJobs, j)
		}
	}
	if len(newJobs) != 2 {
		t.Fatalf("want induction+ic3 liveness in the expansion, got %d transitioned jobs", len(newJobs))
	}

	// Write an old-era checkpoint: the expansion without the SAT liveness
	// jobs, fully executed.
	path := filepath.Join(t.TempDir(), "results.jsonl")
	store, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunJobs(context.Background(), oldJobs, RunOptions{Workers: 1, Store: store}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Resume the old checkpoint against the new, larger expansion.
	reopened, err := OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rep, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 1, Store: reopened})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != len(oldJobs) {
		t.Fatalf("resume replayed %d records, want every old-era record (%d)", rep.Skipped, len(oldJobs))
	}
	if !rep.Complete() {
		t.Fatal("resumed campaign incomplete")
	}

	// Old records replay byte-identically: the store grew strictly by
	// appending.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) || string(after[:len(before)]) != string(before) {
		t.Fatal("resume rewrote old-era records instead of appending the transitioned jobs")
	}

	// The transitioned jobs executed, carry the marker, and agree with the
	// symbolic liveness verdict; untransitioned records carry no marker.
	var symLive *Record
	for _, j := range oldJobs {
		rec, ok := rep.Record(j)
		if !ok {
			t.Fatalf("old job %s missing", j.ID())
		}
		if rec.Transition != "" {
			t.Errorf("untransitioned job %s carries marker %q", j.ID(), rec.Transition)
		}
		if j.Engine == "symbolic" && j.Lemma == "liveness" {
			r := rec
			symLive = &r
		}
	}
	if symLive == nil {
		t.Fatal("no symbolic liveness job in the expansion")
	}
	for _, j := range newJobs {
		rec, ok := rep.Record(j)
		if !ok {
			t.Fatalf("transitioned job %s missing", j.ID())
		}
		if rec.Error != "" {
			t.Fatalf("transitioned job %s errored: %s", j.ID(), rec.Error)
		}
		if rec.Transition != TransitionSkippedExecuted {
			t.Errorf("job %s transition %q, want %q", j.ID(), rec.Transition, TransitionSkippedExecuted)
		}
		if rec.Holds != symLive.Holds {
			t.Errorf("job %s holds=%v disagrees with symbolic liveness holds=%v", j.ID(), rec.Holds, symLive.Holds)
		}
		if !rec.Holds && rec.CexLen == 0 {
			t.Errorf("job %s refuted liveness without a lasso", j.ID())
		}
	}
}

// TestJobsBuild: every job a Spec expands to, and every job shape the
// store and the verdict cache already hold (the jobs of the identity
// golden test in internal/exp, as their recorded JSON), maps onto a model
// that defines the job's lemma. Jobs differing only in lemma and engine
// share one model build.
func TestJobsBuild(t *testing.T) {
	jobs, err := Spec{
		Ns: []int{3, 4}, Topologies: []string{TopologyHub, TopologyBus}, BigBang: []bool{true, false},
		Lemmas: []string{"safety", "liveness", "timeliness", "safety_2",
			"no-error", "locks-only-faulty", "hubs-agree", "node-hub-agree"},
		Engines: []string{"symbolic", "explicit", "bmc", "induction", "ic3"},
	}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range []string{
		`{"topology":"hub","n":3,"big_bang":true,"faulty_node":1,"faulty_hub":-1,"degree":1,"delta_init":4,"lemma":"safety","engine":"symbolic"}`,
		`{"topology":"bus","n":3,"big_bang":false,"faulty_node":1,"faulty_hub":-1,"degree":3,"delta_init":4,"lemma":"liveness","engine":"symbolic"}`,
		`{"topology":"hub","n":3,"big_bang":true,"faulty_node":-1,"faulty_hub":0,"degree":0,"delta_init":4,"lemma":"safety_2","engine":"symbolic"}`,
		`{"topology":"hub","n":3,"big_bang":true,"faulty_node":1,"faulty_hub":-1,"degree":1,"lemma":"safety","engine":"symbolic"}`,
		`{"topology":"hub","n":3,"big_bang":true,"faulty_node":1,"faulty_hub":-1,"degree":5,"delta_init":4,"lemma":"timeliness","engine":"symbolic"}`,
		`{"topology":"hub","n":3,"big_bang":true,"faulty_node":1,"faulty_hub":-1,"degree":6,"delta_init":4,"lemma":"timeliness","engine":"symbolic"}`,
		`{"topology":"hub","n":4,"big_bang":true,"faulty_node":-1,"faulty_hub":0,"degree":0,"delta_init":5,"lemma":"safety_2","engine":"symbolic"}`,
		`{"topology":"bus","n":3,"big_bang":false,"faulty_node":1,"faulty_hub":-1,"degree":1,"delta_init":4,"lemma":"safety","engine":"ic3"}`,
		`{"topology":"hub","n":3,"big_bang":false,"faulty_node":-1,"faulty_hub":0,"degree":0,"delta_init":4,"lemma":"safety","engine":"ic3"}`,
	} {
		var j Job
		if err := json.Unmarshal([]byte(js), &j); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	models := map[string]*Model{}
	for _, j := range jobs {
		cfg := j
		cfg.Lemma, cfg.Engine = "", ""
		m, ok := models[cfg.ID()]
		if !ok {
			if m, err = BuildModel(j, core.Options{}); err != nil {
				t.Fatalf("%s: %v", j.ID(), err)
			}
			models[cfg.ID()] = m
		}
		l, err := jobLemma(j)
		if err != nil {
			t.Fatalf("%s: %v", j.ID(), err)
		}
		if _, err := m.Property(l); err != nil {
			t.Errorf("%s: %v", j.ID(), err)
		}
		if !slices.Contains(m.Lemmas(), l) {
			t.Errorf("%s: lemma %v missing from the model's lemma list %v", j.ID(), l, m.Lemmas())
		}
	}
}

// TestContradictoryJobsRejected: the job mapping refuses a faulty node
// next to a faulty hub, hub-only settings on the bus, and a lemma the bus
// does not define, instead of silently dropping a field the job's ID
// still names.
func TestContradictoryJobsRejected(t *testing.T) {
	hub := Job{Topology: TopologyHub, N: 3, BigBang: true, FaultyNode: 1, FaultyHub: -1, Degree: 6, Lemma: "safety", Engine: "symbolic"}
	bus := Job{Topology: TopologyBus, N: 3, FaultyNode: 1, FaultyHub: -1, Degree: 3, Lemma: "safety", Engine: "symbolic"}
	with := func(j Job, set func(*Job)) Job {
		set(&j)
		return j
	}
	for _, c := range []struct {
		job  Job
		want string
	}{
		{with(hub, func(j *Job) { j.FaultyHub = 0 }), "single-failure hypothesis"},
		{with(bus, func(j *Job) { j.FaultyNode, j.FaultyHub = -1, 0 }), "bus job: faulty-hub"},
		{with(bus, func(j *Job) { j.BigBang = true }), "bus job: big-bang"},
		{with(bus, func(j *Job) { j.NoFeedback = true }), "bus job: no-feedback"},
		{with(bus, func(j *Job) { j.NoCSPriority = true }), "bus job: no-cs-priority"},
		{with(bus, func(j *Job) { j.NoCSWindow = true }), "bus job: no-cs-window"},
		{with(bus, func(j *Job) { j.NoInterlinks = true }), "bus job: no-interlinks"},
		{with(bus, func(j *Job) { j.NoWatchdog = true }), "bus job: no-watchdog"},
		{with(bus, func(j *Job) { j.Restartable = true }), "bus job: restartable"},
		{with(bus, func(j *Job) { j.Lemma = "timeliness" }), "no lemma timeliness"},
		{with(hub, func(j *Job) { j.FaultyNode, j.Degree = -1, 9 }), "fault degree 9"},
		{with(hub, func(j *Job) { j.Topology = "ring" }), `unknown topology "ring"`},
	} {
		_, err := JobModelDigest(c.job)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.job.ID(), err, c.want)
		}
		rec, err := ExecuteJob(context.Background(), c.job, RunOptions{})
		if err != nil || rec.Verdict != "error" || !strings.Contains(rec.Error, c.want) {
			t.Errorf("%s: record %+v (err %v), want an error record with %q", c.job.ID(), rec, err, c.want)
		}
	}
}
