package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ttastartup/internal/sim/mcfi"
)

// tinyMCFIRequest is a three-unit mcfi job that runs in milliseconds and
// expands without building a model.
func tinyMCFIRequest() SubmitRequest {
	return SubmitRequest{Kind: KindMCFI, MCFI: &mcfi.Spec{N: 3, Samples: 6, Seed: 7, Batch: 2}}
}

// finishedJournal runs req to completion on a fresh daemon in dir and
// returns the job ID, its report and its journal's complete lines.
func finishedJournal(t *testing.T, dir string, req SubmitRequest) (id string, report []byte, lines [][]byte) {
	t.Helper()
	d := newTestDaemon(t, dir, 1, nil)
	defer d.Close()
	st, err := d.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, d, st.ID)
	if st.State != "done" {
		t.Fatalf("job did not finish: %+v", st)
	}
	report, err = d.ReportText(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journalPath(dir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	lines = bytes.SplitAfter(data, []byte("\n"))
	return st.ID, report, lines[:len(lines)-1]
}

// TestUnterminatedJournalTail: a journal whose last record parses but
// lost its '\n' must treat that record as torn. Recovery re-runs its
// unit, and every record appended after recovery survives a reload
// instead of being glued onto the unterminated line and lost with it.
func TestUnterminatedJournalTail(t *testing.T) {
	dir := t.TempDir()
	req := tinyMCFIRequest()
	id, want, lines := finishedJournal(t, dir, req)
	if len(lines) != 3 {
		t.Fatalf("want 3 journal lines, got %d", len(lines))
	}
	for _, name := range []string{"report.txt", "report.json", "status.json"} {
		os.Remove(filepath.Join(dir, "jobs", id, name))
	}
	jpath := journalPath(dir, id)
	unterminated := append(append([]byte{}, lines[0]...), bytes.TrimSuffix(lines[1], []byte("\n"))...)
	if err := os.WriteFile(jpath, unterminated, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := newTestDaemon(t, dir, 1, nil)
	st := waitDone(t, d2, id)
	d2.Close()
	if st.State != "done" || st.Done != 3 {
		t.Fatalf("recovered job did not complete: %+v", st)
	}

	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.SplitAfter(data, []byte("\n"))
	if len(got) != 4 || len(got[3]) != 0 {
		t.Fatalf("journal is not 3 terminated lines:\n%s", data)
	}
	for _, line := range got[:3] {
		var ur unitResult
		if err := json.Unmarshal(line, &ur); err != nil {
			t.Fatalf("merged or corrupt journal line %q: %v", line, err)
		}
	}

	// Reload: a finished job's units are read from its journal, read-only
	// (a torn tail planted now must survive the read).
	torn := append(data, `{"unit":`...)
	if err := os.WriteFile(jpath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	d3 := newTestDaemon(t, dir, 1, nil)
	defer d3.Close()
	units, err := d3.Units(id)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, u := range units {
		if u.Pending || seen[u.Unit] {
			t.Fatalf("unit %s pending or journaled twice: %+v", u.Unit, units)
		}
		seen[u.Unit] = true
	}
	if len(seen) != 3 {
		t.Fatalf("reload lost journaled units: %+v", units)
	}
	if after, err := os.ReadFile(jpath); err != nil || !bytes.Equal(after, torn) {
		t.Fatalf("reading a finished job's units modified its journal (err %v)", err)
	}
	report, err := d3.ReportText(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, want) {
		t.Fatal("report changed across the unterminated-tail recovery")
	}
}

// TestJournalEveryTear tears a finished job's journal at every byte
// offset and reopens it through newJobRun, the recovery path. The job
// must load exactly the records whose lines are complete before the
// offset and cut the journal back to their end; one more record must
// then append and survive a reopen.
func TestJournalEveryTear(t *testing.T) {
	req := tinyMCFIRequest()
	_, _, lines := finishedJournal(t, t.TempDir(), req)
	data := bytes.Join(lines, nil)
	all := make([]unitResult, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &all[i]); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d bytes, %d records", len(data), len(all))
	extra := unitResult{V: journalVersion, Unit: "extra", Record: json.RawMessage("{}")}

	var d Daemon
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	boundary, complete := 0, 0
	for k := 0; k <= len(data); k++ {
		if complete < len(lines) && boundary+len(lines[complete]) <= k {
			boundary += len(lines[complete])
			complete++
		}
		if err := os.WriteFile(jpath, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := d.newJobRun("torn", dir, req)
		if err != nil {
			t.Fatalf("offset %d: %v", k, err)
		}
		if len(j.results) != complete {
			t.Fatalf("offset %d: loaded %d records, want %d", k, len(j.results), complete)
		}
		for _, want := range all[:complete] {
			if !reflect.DeepEqual(j.results[want.Unit], want) {
				t.Fatalf("offset %d: record %s lost or changed", k, want.Unit)
			}
		}
		got, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:boundary]) {
			t.Fatalf("offset %d: journal is %d bytes, want the %d-byte intact prefix", k, len(got), boundary)
		}
		if err := j.journal.Append(extra); err != nil {
			t.Fatalf("offset %d: append: %v", k, err)
		}
		j.journal.Close()
		j.leases.Close()
		j, err = d.newJobRun("torn", dir, req)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", k, err)
		}
		if _, ok := j.results[extra.Unit]; !ok || len(j.results) != complete+1 {
			t.Fatalf("offset %d: appended record lost on reopen (%d records)", k, len(j.results))
		}
		j.journal.Close()
		j.leases.Close()
	}
}
