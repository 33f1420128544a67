package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ttastartup/internal/jsonl"
	"ttastartup/internal/obs"
)

// TestUnitStatsFleetAccounting: every executed unit ships a UnitStats the
// daemon merges into its fleet registry; a warm resubmission answers from
// the cache and reports the cost it saved.
func TestUnitStatsFleetAccounting(t *testing.T) {
	fleet := obs.NewRegistry()
	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Scope: obs.Scope{Reg: fleet}, Log: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, d, st.ID)
	if st.Executed != 3 {
		t.Fatalf("want 3 executed units: %+v", st)
	}

	units, err := d.Units(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("want 3 unit entries, got %d", len(units))
	}
	var wallSum int64
	for _, u := range units {
		if u.Stats == nil {
			t.Fatalf("unit %s has no stats", u.Unit)
		}
		if u.Stats.Spans != nil {
			t.Errorf("unit %s: units API must not carry spans", u.Unit)
		}
		if got := u.Stats.Metrics.Counters[obs.MRuns]; got != 1 {
			t.Errorf("unit %s: metrics snapshot has %s=%d, want 1", u.Unit, obs.MRuns, got)
		}
		wallSum += u.Stats.WallMS
	}
	if st.ExecMS != wallSum {
		t.Errorf("status exec_ms=%d, want sum of unit walls %d", st.ExecMS, wallSum)
	}

	// The fleet registry merged each worker's snapshot: counters summed,
	// one wall-time observation per executed unit.
	if got := fleet.Counter(obs.MRuns).Value(); got != 3 {
		t.Errorf("fleet %s=%d, want 3", obs.MRuns, got)
	}
	if got := fleet.Histogram(obs.MServeUnitWallMS).Count(); got != 3 {
		t.Errorf("fleet %s count=%d, want 3", obs.MServeUnitWallMS, got)
	}

	// Warm resubmission: all cached, zero executed, saved cost reported
	// from the cache entries' stored stats.
	st2, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, d, st2.ID)
	if st2.Executed != 0 || st2.Cached != 3 {
		t.Fatalf("resubmission not fully cached: %+v", st2)
	}
	if st2.SavedMS != wallSum {
		t.Errorf("saved_ms=%d, want the executed walls %d", st2.SavedMS, wallSum)
	}
	units2, err := d.Units(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units2 {
		if !u.Cached || u.Stats == nil {
			t.Fatalf("cached unit %s lacks saved-cost stats: %+v", u.Unit, u)
		}
	}
	if got := fleet.Counter(obs.MServeSavedMS).Value(); got != wallSum {
		t.Errorf("fleet %s=%d, want %d", obs.MServeSavedMS, got, wallSum)
	}
}

// TestJournalV1Replay: journal records written before the stats fields
// existed (no v / worker / start_us / stats) replay cleanly — the job
// recovers with nil per-unit stats and an unchanged report.
func TestJournalV1Replay(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir, 1, nil)
	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, d, st.ID)
	want, err := d.ReportText(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Rewrite the journal as a v1 daemon would have written it: same
	// records, stats-era fields stripped. Remove the completion artifacts
	// so recovery takes the journal-replay path.
	jpath := journalPath(dir, st.ID)
	var recs []map[string]json.RawMessage
	if err := jsonl.Scan(jpath, jsonl.Into(&recs)); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	for _, rec := range recs {
		for _, f := range []string{"v", "worker", "start_us", "stats"} {
			delete(rec, f)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		v1.Write(append(line, '\n'))
	}
	if err := os.WriteFile(jpath, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"report.txt", "report.json", "status.json"} {
		os.Remove(filepath.Join(dir, "jobs", st.ID, name))
	}

	d2 := newTestDaemon(t, dir, 1, nil)
	defer d2.Close()
	st2 := waitDone(t, d2, st.ID)
	if st2.State != "done" || st2.Done != 3 || st2.ExecMS != 0 {
		t.Fatalf("v1 journal did not replay cleanly: %+v", st2)
	}
	units, err := d2.Units(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("want 3 units, got %d", len(units))
	}
	for _, u := range units {
		if u.Stats != nil {
			t.Errorf("v1 record for %s grew stats from nowhere", u.Unit)
		}
	}
	got, err := d2.ReportText(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report changed across the v1 replay")
	}
}

// TestJobTraceMerged: the merged trace has the daemon lane (pid 0) plus
// one lane per worker slot, with per-lane monotone timestamps — the
// invariant ttatrace validates.
func TestJobTraceMerged(t *testing.T) {
	d := newTestDaemon(t, t.TempDir(), 2, nil)
	defer d.Close()
	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, d, st.ID)

	events, err := d.JobTrace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.SpanEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	pids := map[int]bool{}
	daemonSlices := 0
	named := map[int]bool{}
	lastTS := map[[2]int]int64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			if e.Name == "process_name" {
				named[e.PID] = true
			}
			continue
		}
		pids[e.PID] = true
		if e.PID == 0 && e.Ph == "X" && e.Cat == obs.CatServe {
			daemonSlices++
		}
		lane := [2]int{e.PID, e.TID}
		if e.TS < lastTS[lane] {
			t.Fatalf("timestamps not monotone in lane pid=%d tid=%d: %d after %d",
				e.PID, e.TID, e.TS, lastTS[lane])
		}
		lastTS[lane] = e.TS
	}
	if daemonSlices != 3 {
		t.Errorf("daemon lane has %d unit slices, want 3", daemonSlices)
	}
	if !pids[0] {
		t.Error("no daemon-lane events (pid 0)")
	}
	workerPids := 0
	for pid := range pids {
		if !named[pid] {
			t.Errorf("pid %d has no process_name metadata", pid)
		}
		if pid > 0 {
			workerPids++
		}
	}
	if workerPids == 0 {
		t.Error("no worker-lane events: worker spans were not merged")
	}
}

// TestHTTPUnitsTraceProm drives the three new HTTP surfaces: the units
// API, the merged-trace endpoint, and Prometheus content negotiation on
// /metricsz.
func TestHTTPUnitsTraceProm(t *testing.T) {
	fleet := obs.NewRegistry()
	d, err := New(Config{Dir: t.TempDir(), Workers: 1, Scope: obs.Scope{Reg: fleet}, Log: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	st, err := d.Submit(SubmitRequest{Kind: KindVerify, Verify: testVerifySpec()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, st.ID)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/units")
	if err != nil {
		t.Fatal(err)
	}
	var ur UnitsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ur.ID != st.ID || len(ur.Units) != 3 {
		t.Fatalf("units response wrong: %+v", ur)
	}
	for _, u := range ur.Units {
		if u.Stats == nil || u.Pending {
			t.Fatalf("unit %s incomplete over HTTP: %+v", u.Unit, u)
		}
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.SpanEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace endpoint returned no events")
	}

	resp, err = http.Get(srv.URL + "/metricsz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("prom content type %q", ct)
	}
	n, verr := obs.ValidatePromText(resp.Body)
	resp.Body.Close()
	if verr != nil {
		t.Fatalf("prom exposition invalid: %v", verr)
	}
	if n == 0 {
		t.Fatal("prom exposition empty")
	}

	// Unknown job on the new routes.
	for _, path := range []string{"/v1/jobs/nope/units", "/v1/jobs/nope/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %s", path, resp.Status)
		}
	}
}
