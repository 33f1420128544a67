// Package jsonl is the verifier's one durable log: an append-only file of
// JSON values, one per '\n'-terminated line, that survives a crash at any
// byte. The campaign result store, the mcfi checkpoint and the serve
// journal and lease files are all built on it; each caller contributes
// only the rule that says whether a decoded line is a valid record.
//
// Framing. A record is a JSON value followed by '\n'. A line without its
// '\n' is torn, whether or not its bytes happen to parse: the writer never
// produced it whole, and a later append would be glued onto it.
//
// Recovery. Open streams the file and hands every complete line to the
// caller's keep function. The intact prefix runs up to the first torn
// line or the first line keep rejects; Open truncates the file to the
// end of that prefix, so the next append starts on a clean boundary.
// If keep returns an error, Open fails and leaves the file untouched.
// A read error is an error, never a torn tail.
//
// Durability. Append writes one line with a single write call and fsyncs
// it before returning, under the log's mutex, so concurrent appenders
// never interleave bytes and every returned Append survives a crash.
// WriteAtomic is the companion for whole files: tmp file, fsync, rename.
package jsonl

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Keep judges one complete line (without its '\n'). It returns true to
// accept the line into the intact prefix, false to end the prefix there,
// or an error to abort the read.
type Keep func(line []byte) (bool, error)

// Into returns a Keep that decodes each line as a T and appends it to
// out, ending the prefix at the first line that does not decode.
func Into[T any](out *[]T) Keep {
	return func(line []byte) (bool, error) {
		var v T
		if json.Unmarshal(line, &v) != nil {
			return false, nil
		}
		*out = append(*out, v)
		return true, nil
	}
}

// Log is an open durable log, positioned for appends.
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// Create creates the log at path, discarding any existing contents.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// Open opens (or creates) the log at path, replays its intact prefix
// through keep, and truncates everything after that prefix.
func Open(path string, keep Keep) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	n, err := prefix(f, keep)
	if err == nil {
		err = f.Truncate(n)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Scan replays the intact prefix of the log at path through keep without
// modifying the file. A missing file scans as empty.
func Scan(path string, keep Keep) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = prefix(f, keep)
	return err
}

// prefix feeds r's complete lines to keep and returns the byte length of
// the intact prefix.
func prefix(r io.Reader, keep Keep) (int64, error) {
	br := bufio.NewReader(r)
	var n int64
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return n, nil // clean end, or a torn last line
		}
		if err != nil {
			return 0, err
		}
		ok, err := keep(line[:len(line)-1])
		if err != nil {
			return 0, err
		}
		if !ok {
			return n, nil
		}
		n += int64(len(line))
	}
}

// Append marshals v as one line, writes it, and fsyncs the file. When
// Append returns nil the record survives a crash.
func (l *Log) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(line); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the log's file.
func (l *Log) Close() error { return l.f.Close() }

// WriteAtomic replaces path with data so that readers only ever observe
// the old file or the complete new one: the data goes to a temporary
// file in the same directory, is fsynced, and is renamed over path.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
