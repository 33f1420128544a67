package mcfi

// Crash-safe campaign checkpointing. The checkpoint is a jsonl.Log: a
// header line binding the file to a spec digest, then one record per
// completed batch, each fsynced before the worker pool hands out more
// work. Batches are recorded in index order (the reducer consumes results
// strictly in order regardless of worker scheduling), so a resumed
// campaign only needs the intact prefix: everything after the first torn
// or corrupt line is dropped and re-simulated. Because scenario expansion
// is a pure function of (campaign seed, index), re-simulated batches are
// byte-identical to the lost ones, and the final report of an interrupted-
// then-resumed campaign equals an uninterrupted run's.

import (
	"encoding/json"
	"fmt"

	"ttastartup/internal/jsonl"
)

// storeHeader is the first line of a checkpoint file.
type storeHeader struct {
	MCFI   string `json:"mcfi"` // format tag, "v1"
	Digest string `json:"digest"`
	Spec   Spec   `json:"spec"`
}

// Candidate is a corpus candidate surfaced by a batch: a run that
// violated, nearly violated, exceeded beyond-hypothesis expectations, or
// was the batch-locally first to exercise a coverage edge. The reducer
// re-checks coverage candidates against the campaign-global edge set, so
// flagging too many here is harmless.
type Candidate struct {
	Index      uint64   `json:"index"`
	Seed       int64    `json:"seed"`
	Kind       string   `json:"kind"`
	Violations []string `json:"violations,omitempty"`
	Exceeds    []string `json:"exceeds,omitempty"`
	Near       bool     `json:"near,omitempty"`
	Startup    int      `json:"startup"`
	Slots      int      `json:"slots"`
	// Edges lists the coverage edges this run was the first in its batch
	// to exercise.
	Edges []uint32 `json:"edges,omitempty"`
	Desc  string   `json:"desc"`
}

// BatchRecord is one completed batch: aggregate statistics plus the batch-
// local coverage union and corpus candidates. Records carry everything the
// reducer needs, so resume never re-simulates a checkpointed batch.
type BatchRecord struct {
	Batch int    `json:"batch"`
	First uint64 `json:"first"`
	Count int    `json:"count"`
	// Kinds aggregates per-scenario-kind statistics for the batch.
	Kinds map[string]*KindStats `json:"kinds"`
	// States and Edges are the batch-local coverage unions (sorted).
	States []uint64 `json:"states"`
	Edges  []uint32 `json:"edges"`
	// Candidates are the batch's corpus candidates in index order.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// Store is the durable batch log, a jsonl.Log whose first line is the
// header.
type Store struct {
	log *jsonl.Log
	// Done is the intact checkpointed prefix, batches 0..len(Done)-1.
	Done []BatchRecord
}

// OpenStore opens (or creates) the checkpoint at path for a campaign with
// the given spec. With resume true the intact prefix of an existing file
// is loaded — after verifying its header digest matches, so a checkpoint
// can never silently resume a different campaign — and any torn tail is
// truncated away. Without resume the file is truncated and a fresh header
// written; so is a resumed file whose header never landed intact.
func OpenStore(path string, sp Spec, resume bool) (*Store, error) {
	ck := ckDecoder{path: path, digest: sp.Digest()}
	var (
		log *jsonl.Log
		err error
	)
	if resume {
		log, err = jsonl.Open(path, ck.line)
	} else {
		log, err = jsonl.Create(path)
	}
	if err != nil {
		return nil, err
	}
	if !ck.header {
		if err := log.Append(storeHeader{MCFI: "v1", Digest: ck.digest, Spec: sp}); err != nil {
			log.Close()
			return nil, err
		}
	}
	return &Store{log: log, Done: ck.done}, nil
}

// ckDecoder decodes a checkpoint's intact prefix line by line: the
// header, then batch records in strict batch order.
type ckDecoder struct {
	path, digest string
	header       bool
	done         []BatchRecord
}

func (c *ckDecoder) line(line []byte) (bool, error) {
	if !c.header {
		var hdr storeHeader
		if err := json.Unmarshal(line, &hdr); err != nil || hdr.MCFI != "v1" {
			return false, fmt.Errorf("mcfi: %s is not a v1 checkpoint", c.path)
		}
		if hdr.Digest != c.digest {
			return false, fmt.Errorf("mcfi: checkpoint %s was written for spec %s, this campaign is %s",
				c.path, hdr.Digest, c.digest)
		}
		c.header = true
		return true, nil
	}
	var rec BatchRecord
	if json.Unmarshal(line, &rec) != nil || rec.Kinds == nil || rec.Batch != len(c.done) {
		// Corrupt or out of order: everything from here on is suspect.
		return false, nil
	}
	c.done = append(c.done, rec)
	return true, nil
}

// Append durably records one batch. Records must arrive in batch order;
// after Append returns the batch survives a crash.
func (s *Store) Append(rec BatchRecord) error {
	if rec.Batch != len(s.Done) {
		return fmt.Errorf("mcfi: batch %d appended out of order (have %d)", rec.Batch, len(s.Done))
	}
	if err := s.log.Append(rec); err != nil {
		return err
	}
	s.Done = append(s.Done, rec)
	return nil
}

// Close closes the underlying file.
func (s *Store) Close() error { return s.log.Close() }
