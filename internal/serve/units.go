package serve

import (
	"fmt"
	"path/filepath"

	"ttastartup/internal/jsonl"
)

// UnitInfo is the API view of one work unit: provenance flags plus the
// merged per-unit accounting (GET /v1/jobs/{id}/units, ttactl top).
type UnitInfo struct {
	Unit string `json:"unit"`
	// Cached / Recovered mirror the journal provenance flags. A cached
	// unit's Stats are the cost of the execution that populated its cache
	// entry — the cost the hit saved.
	Cached    bool `json:"cached,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
	// Worker is the slot that executed the unit.
	Worker int `json:"worker,omitempty"`
	// Err is the unit's execution failure, if any.
	Err string `json:"err,omitempty"`
	// Pending marks a unit that has not finished yet.
	Pending bool `json:"pending,omitempty"`
	// Stats is the unit's resource/metric profile (span payload omitted —
	// spans are served by the trace endpoint). Nil for pending units and
	// for units journaled by a pre-v2 daemon.
	Stats *UnitStats `json:"stats,omitempty"`
}

// resultsInOrder returns the job's finished unit results plus the IDs of
// units still pending, in a stable order: expansion order while the
// in-memory expansion is live, journal order for finished jobs recovered
// from status.json (recovery skips re-expanding those, leaving
// placeholder units with empty IDs, so their journal is read from disk).
func (j *jobRun) resultsInOrder() (results []unitResult, pending []string, err error) {
	j.mu.Lock()
	expanded := len(j.units) == 0 || j.units[0].ID != ""
	if expanded {
		for _, u := range j.units {
			if r, ok := j.results[u.ID]; ok {
				results = append(results, r)
			} else {
				pending = append(pending, u.ID)
			}
		}
		j.mu.Unlock()
		return results, pending, nil
	}
	j.mu.Unlock()
	if err := jsonl.Scan(filepath.Join(j.dir, "journal.jsonl"), jsonl.Into(&results)); err != nil {
		return nil, nil, err
	}
	return results, nil, nil
}

// Units returns the per-unit accounting view of a job: one entry per
// finished unit (with its journaled stats) plus one pending entry per
// unit still in flight.
func (d *Daemon) Units(id string) ([]UnitInfo, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: no job %s", id)
	}
	results, pending, err := j.resultsInOrder()
	if err != nil {
		return nil, err
	}
	out := make([]UnitInfo, 0, len(results)+len(pending))
	for _, ur := range results {
		out = append(out, UnitInfo{
			Unit: ur.Unit, Cached: ur.Cached, Recovered: ur.Recovered,
			Worker: ur.Worker, Err: ur.Err,
			Stats: ur.Stats.withoutSpans(),
		})
	}
	for _, uid := range pending {
		out = append(out, UnitInfo{Unit: uid, Pending: true})
	}
	return out, nil
}
