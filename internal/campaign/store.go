package campaign

import (
	"encoding/json"
	"sync"

	"ttastartup/internal/jsonl"
)

// Store is the campaign's durable result log: one JSON record per line
// on a jsonl.Log, each line fsynced before the runner hands the worker
// its next job. The job ID is the primary key. Opening an existing store
// in resume mode loads every intact record; the log drops a torn trailing
// line (the fingerprint of a crash mid-write) so appends start on a clean
// boundary.
type Store struct {
	log  *jsonl.Log
	mu   sync.Mutex
	done map[string]Record
}

// OpenStore opens (or creates) the JSONL store at path. With resume true
// existing records are loaded and kept; otherwise the file is truncated.
func OpenStore(path string, resume bool) (*Store, error) {
	s := &Store{done: make(map[string]Record)}
	var err error
	if resume {
		s.log, err = jsonl.Open(path, func(line []byte) (bool, error) {
			var rec Record
			if json.Unmarshal(line, &rec) != nil || rec.Job.Topology == "" {
				// Everything after the last good record is untrustworthy.
				return false, nil
			}
			s.done[rec.Job.ID()] = rec
			return true, nil
		})
	} else {
		s.log, err = jsonl.Create(path)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Get returns the stored record for a job ID, if any.
func (s *Store) Get(id string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.done[id]
	return rec, ok
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Append writes one record as a JSONL line and fsyncs it — after Append
// returns, the record survives a crash or kill of the campaign process.
func (s *Store) Append(rec Record) error {
	if err := s.log.Append(rec); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[rec.Job.ID()] = rec
	return nil
}

// Close closes the underlying file.
func (s *Store) Close() error { return s.log.Close() }
