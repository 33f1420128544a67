package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/jsonl"
	"ttastartup/internal/sim/mcfi"
)

// TestMain doubles as the worker-process entry point: the process-worker
// tests re-exec this test binary with TTASERVE_WORKER=1, turning it into
// a JSONL worker on stdin/stdout — the same shape cmd/ttaserved uses.
func TestMain(m *testing.M) {
	if os.Getenv("TTASERVE_WORKER") == "1" {
		if err := RunWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerSelfCmd re-execs the test binary as a worker process.
func workerSelfCmd(t *testing.T) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return []string{"/usr/bin/env", "TTASERVE_WORKER=1", exe}
}

// testVerifySpec is a 3-job hub campaign (safety at two degrees plus the
// degree-less faulty-hub lemma), small enough for in-process tests.
func testVerifySpec() *campaign.Spec {
	return &campaign.Spec{
		Ns:        []int{3},
		Degrees:   []int{1, 2},
		Lemmas:    []string{"safety", "safety_2"},
		Engines:   []string{"symbolic"},
		DeltaInit: 4,
	}
}

func testMCFISpec() *mcfi.Spec {
	return &mcfi.Spec{N: 4, Samples: 600, Seed: 42, Batch: 200}
}

func newTestDaemon(t *testing.T, dir string, workers int, workerCmd []string) *Daemon {
	t.Helper()
	d, err := New(Config{Dir: dir, Workers: workers, WorkerCmd: workerCmd, Log: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func waitDone(t *testing.T, d *Daemon, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	st, err := d.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

// localCanonical runs the same campaign locally and renders its canonical
// report — the reference every daemon-produced report must match.
func localCanonical(t *testing.T, spec campaign.Spec) string {
	t.Helper()
	rep, err := campaign.Run(context.Background(), spec, campaign.RunOptions{
		Options: core.Options{Opt: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Canonical()
}

// TestVerifyJobMatchesLocalRun: a served verify campaign produces the
// same canonical report as a direct campaign.Run, all units executed.
func TestVerifyJobMatchesLocalRun(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 2, nil)
	defer d.Close()
	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 {
		t.Fatalf("want 3 units, got %d", st.Total)
	}
	st = waitDone(t, d, st.ID)
	if st.State != "done" || st.Executed != 3 || st.Cached != 0 || st.Failed != 0 {
		t.Fatalf("unexpected final status: %+v", st)
	}
	got, err := d.ReportText(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := localCanonical(t, *testVerifySpec()); string(got) != want {
		t.Fatalf("served report differs from local run:\n--- served ---\n%s--- local ---\n%s", got, want)
	}
}

// TestResubmitFullyCached: resubmitting an identical spec schedules a new
// job whose every unit is answered by the verdict cache — 0 executed.
func TestResubmitFullyCached(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 1, nil)
	defer d.Close()
	first, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, first.ID)

	second, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatal("resubmission reused the job ID")
	}
	st := waitDone(t, d, second.ID)
	if st.Executed != 0 || st.Cached != st.Total || st.Total != 3 {
		t.Fatalf("resubmission not fully cached: %+v", st)
	}
	r1, _ := d.ReportText(first.ID)
	r2, _ := d.ReportText(second.ID)
	if !bytes.Equal(r1, r2) {
		t.Fatal("cached report differs from executed report")
	}
}

// TestOverlapSchedulesDelta: a submission overlapping a previous one only
// executes the units the cache has not seen.
func TestOverlapSchedulesDelta(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 1, nil)
	defer d.Close()
	small := &campaign.Spec{Ns: []int{3}, Degrees: []int{1}, Lemmas: []string{"safety"}, Engines: []string{"symbolic"}, DeltaInit: 4}
	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: small})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 1 {
		t.Fatalf("want 1 unit, got %d", st.Total)
	}
	waitDone(t, d, st.ID)

	st, err = d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, d, st.ID)
	if st.Cached != 1 || st.Executed != 2 {
		t.Fatalf("overlap not served from cache: %+v", st)
	}
}

// TestConfigKeysCache: a different run config must not share cached
// verdicts with a previous submission of the same spec.
func TestConfigKeysCache(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 1, nil)
	defer d.Close()
	small := &campaign.Spec{Ns: []int{3}, Degrees: []int{1}, Lemmas: []string{"safety"}, Engines: []string{"symbolic"}, DeltaInit: 4}
	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: small})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, st.ID)
	st, err = d.Submit(SubmitRequest{Kind: KindVerify, Verify: small, Config: RunConfig{NoOpt: true}})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, d, st.ID)
	if st.Cached != 0 || st.Executed != 1 {
		t.Fatalf("config change wrongly shared the cache: %+v", st)
	}
}

// TestMCFIJobMatchesLocalRun: a served mcfi campaign reduces its batch
// records to the exact report mcfi.Run produces, and resubmission is
// fully cached.
func TestMCFIJobMatchesLocalRun(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 2, nil)
	defer d.Close()
	st, err := d.Submit(SubmitRequest{Kind: KindMCFI, MCFI: testMCFISpec()})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 {
		t.Fatalf("want 3 batches, got %d", st.Total)
	}
	st = waitDone(t, d, st.ID)
	if st.State != "done" || st.Executed != 3 {
		t.Fatalf("unexpected final status: %+v", st)
	}
	got, err := d.ReportText(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mcfi.Run(context.Background(), *testMCFISpec(), mcfi.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("served mcfi report differs from local mcfi.Run")
	}

	st2, err := d.Submit(SubmitRequest{Kind: KindMCFI, MCFI: testMCFISpec()})
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, d, st2.ID)
	if st2.Cached != 3 || st2.Executed != 0 {
		t.Fatalf("mcfi resubmission not fully cached: %+v", st2)
	}
}

// journalPath locates a job's journal on disk.
func journalPath(dir, id string) string {
	return filepath.Join(dir, "jobs", id, "journal.jsonl")
}

func journalLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// TestCrashRecoveryByteIdentical is the library-level version of the
// served-smoke script: stop a daemon mid-campaign (abandoning in-flight
// work exactly as kill -9 would), tear the journal's last line, plant a
// dangling lease, restart on the same directory, and require (a) the
// resumed report to be byte-identical to an untouched fresh daemon's and
// (b) the torn and leased units to be re-run and accounted as recovered.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir, 1, nil)
	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	jpath := journalPath(dir, id)
	deadline := time.Now().Add(2 * time.Minute)
	for journalLines(t, jpath) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no journaled unit before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.Close() // in-flight units are abandoned un-journaled, like a crash

	// If the single worker outran the poll and finished the whole job,
	// simulate a crash between the last journal append and the report
	// writes by removing the completion artifacts: recovery must then take
	// the resume path regardless of how far the first daemon got.
	for _, name := range []string{"report.txt", "report.json", "status.json"} {
		os.Remove(filepath.Join(dir, "jobs", id, name))
	}

	// Tear the last journal line mid-record and plant a dangling lease
	// for one pending unit.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jpath, int64(len(data)-3)); err != nil {
		t.Fatal(err)
	}
	var intact []unitResult
	if err := jsonl.Scan(jpath, jsonl.Into(&intact)); err != nil {
		t.Fatal(err)
	}
	units, err := expand(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[string]bool{}
	for _, r := range intact {
		journaled[r.Unit] = true
	}
	var leaseUnit string
	for _, u := range units {
		if !journaled[u.ID] {
			leaseUnit = u.ID
			break
		}
	}
	lf, err := os.OpenFile(filepath.Join(dir, "jobs", id, "leases.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(lf, "{\"unit\":%q,\"worker\":0}\n", leaseUnit)
	lf.Close()

	d2 := newTestDaemon(t, dir, 1, nil)
	defer d2.Close()
	st = waitDone(t, d2, id)
	if st.State != "done" || st.Done != 3 || st.Failed != 0 {
		t.Fatalf("resumed job did not complete cleanly: %+v", st)
	}
	if st.Recovered < 1 {
		t.Fatalf("dangling lease not accounted as recovered: %+v", st)
	}
	got, err := d2.ReportText(id)
	if err != nil {
		t.Fatal(err)
	}

	fresh := newTestDaemon(t, t.TempDir(), 1, nil)
	defer fresh.Close()
	fst, err := fresh.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, fresh, fst.ID)
	want, err := fresh.ReportText(fst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from fresh run:\n--- resumed ---\n%s--- fresh ---\n%s", got, want)
	}

	// A third open of the same directory must load the finished job
	// without re-expanding or re-running anything.
	d3 := newTestDaemon(t, dir, 1, nil)
	defer d3.Close()
	st3, ok := d3.Job(id)
	if !ok || st3.State != "done" || st3.Total != 3 {
		t.Fatalf("finished job not recovered: %+v ok=%v", st3, ok)
	}
	if _, err := d3.ReportText(id); err != nil {
		t.Fatal(err)
	}
}

// TestProcessWorkers: the same campaign through real worker processes
// (the re-exec'd test binary) matches the local run.
func TestProcessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	d := newTestDaemon(t, t.TempDir(), 2, workerSelfCmd(t))
	defer d.Close()
	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, d, st.ID)
	if st.State != "done" || st.Executed != 3 || st.Failed != 0 {
		t.Fatalf("unexpected final status: %+v", st)
	}
	got, err := d.ReportText(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := localCanonical(t, *testVerifySpec()); string(got) != want {
		t.Fatal("process-worker report differs from local run")
	}
}

// TestWorkerCrashRetries: a worker command that dies instantly exhausts
// the retry budget and the job finishes with every unit failed — the
// daemon must not hang or crash.
func TestWorkerCrashRetries(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 1, []string{"/bin/false"})
	defer d.Close()
	small := &campaign.Spec{Ns: []int{3}, Degrees: []int{1}, Lemmas: []string{"safety"}, Engines: []string{"symbolic"}, DeltaInit: 4}
	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: small})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, d, st.ID)
	if st.State != "done" || st.Failed != 1 || st.Executed != 0 {
		t.Fatalf("want 1 failed unit, got %+v", st)
	}
}

// TestEventsFeed: subscribers get the queued bookend, one unit_done per
// unit, and the done bookend, with increasing sequence numbers; late
// subscribers replay the same history.
func TestEventsFeed(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 1, nil)
	defer d.Close()
	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := d.Events(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var events []Event
	for e := range ch {
		events = append(events, e)
	}
	if len(events) != 5 { // queued + 3 unit_done + done
		t.Fatalf("want 5 events, got %d: %+v", len(events), events)
	}
	if events[0].Type != "queued" || events[len(events)-1].Type != "done" {
		t.Fatalf("missing bookends: %+v", events)
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}

	// Late subscriber: same feed, already closed.
	ch2, cancel2, err := d.Events(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	var replay []Event
	for e := range ch2 {
		replay = append(replay, e)
	}
	if len(replay) != len(events) {
		t.Fatalf("late subscriber got %d events, want %d", len(replay), len(events))
	}
}

// TestHTTPAPI drives the full HTTP surface: submit, status, ndjson
// events, report, healthz, metricsz, and error paths.
func TestHTTPAPI(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 1, nil)
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	body, _ := json.Marshal(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The ndjson event stream ends when the job does.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("events content-type: %s", got)
	}
	var last Event
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		lines++
	}
	resp.Body.Close()
	if last.Type != "done" || lines != 5 {
		t.Fatalf("event stream ended with %+v after %d lines", last, lines)
	}

	// Status and report.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "done" {
		t.Fatalf("job not done over HTTP: %+v", st)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	rep := new(strings.Builder)
	sc = bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rep.WriteString(sc.Text() + "\n")
	}
	resp.Body.Close()
	if want := localCanonical(t, *testVerifySpec()); rep.String() != want {
		t.Fatal("HTTP report differs from local run")
	}

	// SSE stream replays the full feed for a finished job.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := strings.Count(raw.String(), "data: "); got != 5 {
		t.Fatalf("SSE replay has %d frames, want 5", got)
	}

	for _, path := range []string{"/healthz", "/metricsz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", path, resp.Status)
		}
	}

	// Error paths: unknown job, malformed submit.
	resp, _ = http.Get(srv.URL + "/v1/jobs/nope")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s", resp.Status)
	}
	resp, _ = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"wat"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad submit: %s", resp.Status)
	}
}

// TestSubmitValidation: structural errors are rejected synchronously.
func TestSubmitValidation(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 1, nil)
	defer d.Close()
	cases := []SubmitRequest{
		{},
		{Kind: KindVerify},
		{Kind: KindMCFI},
		{Kind: KindVerify, Verify: testVerifySpec(), MCFI: testMCFISpec()},
		{Kind: KindVerify, Verify: &campaign.Spec{Topologies: []string{"ring"}}},
		{Kind: KindMCFI, MCFI: &mcfi.Spec{N: 1}},
	}
	for i, req := range cases {
		if _, err := d.Submit(req); err == nil {
			t.Fatalf("case %d accepted: %+v", i, req)
		}
	}
}
