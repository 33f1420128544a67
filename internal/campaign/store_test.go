package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestStoreEveryTear tears a real store at every byte offset and resumes
// it through OpenStore. The store must load exactly the records whose
// lines are complete before the offset and cut the file back to their
// end; one more record must then append and survive a reopen.
func TestStoreEveryTear(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	store, err := OpenStore(full, false)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t)[:4]
	if _, err := RunJobs(context.Background(), jobs, RunOptions{Workers: 1, Store: store}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last '\n'
	all := make([]Record, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &all[i]); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d bytes, %d records", len(data), len(all))
	extra := all[0]
	extra.Job.N = 4 // a job ID the file does not hold

	path := filepath.Join(dir, "torn.jsonl")
	boundary, complete := 0, 0
	for k := 0; k <= len(data); k++ {
		if complete < len(lines) && boundary+len(lines[complete]) <= k {
			boundary += len(lines[complete])
			complete++
		}
		if err := os.WriteFile(path, data[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(path, true)
		if err != nil {
			t.Fatalf("offset %d: %v", k, err)
		}
		if st.Len() != complete {
			t.Fatalf("offset %d: loaded %d records, want %d", k, st.Len(), complete)
		}
		for _, want := range all[:complete] {
			if got, ok := st.Get(want.Job.ID()); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("offset %d: record %s lost or changed", k, want.Job.ID())
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:boundary]) {
			t.Fatalf("offset %d: file is %d bytes, want the %d-byte intact prefix", k, len(got), boundary)
		}
		if err := st.Append(extra); err != nil {
			t.Fatalf("offset %d: append: %v", k, err)
		}
		st.Close()
		st, err = OpenStore(path, true)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", k, err)
		}
		if _, ok := st.Get(extra.Job.ID()); !ok || st.Len() != complete+1 {
			t.Fatalf("offset %d: appended record lost on reopen (%d records)", k, st.Len())
		}
		st.Close()
	}
}
