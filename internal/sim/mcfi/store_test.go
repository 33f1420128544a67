package mcfi

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckpointEveryTear tears a real checkpoint at every byte offset
// and resumes it through OpenStore. The store must load exactly the
// batches whose lines are complete before the offset and cut the file
// back to their end; a torn header means a fresh header. One more batch
// must then append and survive a reopen.
func TestCheckpointEveryTear(t *testing.T) {
	sp := Spec{N: 3, Samples: 6, Seed: 7, Batch: 2}.Normalize()
	dir := t.TempDir()
	ck := filepath.Join(dir, "full.jsonl")
	if _, err := Run(context.Background(), sp, RunOptions{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last '\n'
	var all []BatchRecord
	for _, line := range lines[1:] {
		var rec BatchRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		all = append(all, rec)
	}
	t.Logf("%d bytes, %d batches", len(data), len(all))

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
		st, err := OpenStore(path, sp, true)
		if err != nil {
			t.Fatalf("offset %d: %v", k, err)
		}
		want := all[:max(complete-1, 0)]
		if len(st.Done) != len(want) || (len(want) > 0 && !reflect.DeepEqual(st.Done, want)) {
			t.Fatalf("offset %d: loaded %d batches, want %d", k, len(st.Done), len(want))
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if cut := data[:max(boundary, len(lines[0]))]; !bytes.Equal(got, cut) {
			t.Fatalf("offset %d: file is %d bytes, want the %d-byte intact prefix", k, len(got), len(cut))
		}
		extra := BatchRecord{Batch: len(want), Kinds: map[string]*KindStats{}}
		if err := st.Append(extra); err != nil {
			t.Fatalf("offset %d: append: %v", k, err)
		}
		st.Close()
		st, err = OpenStore(path, sp, true)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", k, err)
		}
		if len(st.Done) != len(want)+1 || st.Done[len(want)].Batch != extra.Batch {
			t.Fatalf("offset %d: appended batch lost on reopen (%d batches)", k, len(st.Done))
		}
		st.Close()
	}

	// A resume under a mismatched spec leaves every byte in place, torn
	// tail included.
	torn := data[:len(data)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, torn) {
			t.Fatalf("%s modified the checkpoint (err %v)", what, err)
		}
	}
	other := sp
	other.Seed++
	if _, err := OpenStore(path, other, true); err == nil {
		t.Fatal("resume under a different spec succeeded")
	}
	unchanged("a failed resume")
}
