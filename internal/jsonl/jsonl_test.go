package jsonl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

type rec struct {
	G int    `json:"g"`
	I int    `json:"i"`
	S string `json:"s,omitempty"`
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// reopen opens path, decoding every intact record, and closes it again.
func reopen(t *testing.T, path string) []rec {
	t.Helper()
	var got []rec
	l, err := Open(path, Into(&got))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestUnterminatedLineIsTorn: a last line that parses but lacks its '\n'
// is torn. Open drops it, so the next append lands on a clean boundary
// instead of being glued onto it.
func TestUnterminatedLineIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	writeFile(t, path, `{"g":1}`+"\n"+`{"g":2}`)
	var got []rec
	l, err := Open(path, Into(&got))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].G != 1 {
		t.Fatalf("want only the terminated record, got %+v", got)
	}
	if s := readFile(t, path); s != `{"g":1}`+"\n" {
		t.Fatalf("unterminated tail not truncated: %q", s)
	}
	for g := 3; g <= 4; g++ {
		if err := l.Append(rec{G: g}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if got := reopen(t, path); len(got) != 3 || got[1].G != 3 || got[2].G != 4 {
		t.Fatalf("appends after recovery lost: %+v", got)
	}
}

// TestEveryTearOffset: truncating a log at any byte offset and reopening
// it yields exactly the complete lines before the offset, cuts the file
// back to their end, and leaves it ready for appends.
func TestEveryTearOffset(t *testing.T) {
	var full strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&full, `{"g":%d,"i":%d,"s":"x"}`+"\n", i, i*i)
	}
	data := full.String()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	for k := 0; k <= len(data); k++ {
		writeFile(t, path, data[:k])
		boundary := strings.LastIndexByte(data[:k], '\n') + 1
		got0 := reopen(t, path)
		if want := strings.Count(data[:k], "\n"); len(got0) != want {
			t.Fatalf("offset %d: %d records, want %d", k, len(got0), want)
		}
		if s := readFile(t, path); s != data[:boundary] {
			t.Fatalf("offset %d: file is %q, want %q", k, s, data[:boundary])
		}
		l, err := Open(path, Into(&[]rec{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec{G: 9}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if got := reopen(t, path); len(got) != len(got0)+1 || got[len(got0)].G != 9 {
			t.Fatalf("offset %d: appended record lost on reopen: %+v", k, got)
		}
	}
}

// TestKeepRejectEndsPrefix: the first rejected line ends the prefix; it
// and everything after it are truncated away.
func TestKeepRejectEndsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	writeFile(t, path, "{\"g\":1}\nnot json\n{\"g\":3}\n")
	if got := reopen(t, path); len(got) != 1 {
		t.Fatalf("want 1 record before the corrupt line, got %+v", got)
	}
	if s := readFile(t, path); s != "{\"g\":1}\n" {
		t.Fatalf("file not cut at the rejected line: %q", s)
	}
}

// TestKeepErrorLeavesFileUntouched: an error from keep aborts Open and
// the file keeps every byte, torn tail included.
func TestKeepErrorLeavesFileUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	const data = "{\"g\":1}\n{\"g\":2}\n{\"g\""
	writeFile(t, path, data)
	boom := errors.New("boom")
	_, err := Open(path, func(line []byte) (bool, error) {
		if bytes.Contains(line, []byte("2")) {
			return false, boom
		}
		return true, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want keep's error, got %v", err)
	}
	if s := readFile(t, path); s != data {
		t.Fatalf("failed Open modified the file: %q", s)
	}
}

// TestScanIsReadOnly: Scan sees the same intact prefix as Open but never
// truncates, and a missing file scans as empty.
func TestScanIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	const data = "{\"g\":1}\n{\"g\":2}"
	writeFile(t, path, data)
	var got []rec
	if err := Scan(path, Into(&got)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("want 1 intact record, got %+v", got)
	}
	if s := readFile(t, path); s != data {
		t.Fatalf("Scan modified the file: %q", s)
	}
	if err := Scan(filepath.Join(dir, "missing.jsonl"), Into(&got)); err != nil {
		t.Fatalf("missing file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "missing.jsonl")); !os.IsNotExist(err) {
		t.Fatal("Scan created a missing file")
	}
}

// TestReadErrorIsNotATear: a read error is returned, not mistaken for a
// torn tail that would be truncated away.
func TestReadErrorIsNotATear(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("{\"g\":1}\n{\"g\""), iotest.ErrReader(boom))
	var got []rec
	if _, err := prefix(r, Into(&got)); !errors.Is(err, boom) {
		t.Fatalf("want the read error, got %v", err)
	}
	if err := Scan(t.TempDir(), Into(&got)); err == nil {
		t.Fatal("scanning a directory reported no error")
	}
}

// TestConcurrentAppend: appenders sharing one log never interleave bytes;
// every record comes back intact exactly once.
func TestConcurrentAppend(t *testing.T) {
	const n, k = 8, 25
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 4096) // lines longer than a page
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < k; i++ {
				if err := l.Append(rec{G: g, I: i, S: pad}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()
	size := len(readFile(t, path))
	got := reopen(t, path)
	if len(got) != n*k {
		t.Fatalf("want %d intact records, got %d", n*k, len(got))
	}
	if after := len(readFile(t, path)); after != size {
		t.Fatalf("reopen cut %d interleaved bytes", size-after)
	}
	next := make([]int, n)
	for _, r := range got {
		if r.I != next[r.G] || r.S != pad {
			t.Fatalf("record g=%d i=%d out of order or damaged", r.G, r.I)
		}
		next[r.G]++
	}
}

// TestWriteAtomic: the target holds exactly the new data and no
// temporary file is left behind.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "status.json")
	for _, data := range []string{"old", "new"} {
		if err := WriteAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if s := readFile(t, path); s != data {
			t.Fatalf("want %q, got %q", data, s)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temporary files left behind: %v", entries)
	}
	if err := WriteAtomic(filepath.Join(dir, "no", "such", "dir"), nil); err == nil {
		t.Fatal("WriteAtomic into a missing directory succeeded")
	}
}
