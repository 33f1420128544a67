package serve

import "encoding/json"

// The per-job journal and lease files. Both are append-only JSONL:
//
//   - journal.jsonl holds one unitResult line per finished unit, fsynced
//     before the scheduler considers the unit done. It is the job's
//     durable state: on restart, pending = deterministic re-expansion
//     minus the journal's intact prefix.
//   - leases.jsonl holds one line per dispatch to a worker. Leases are
//     advisory — a lease without a matching journal line marks a unit
//     that was in flight when the daemon died, reported as "recovered"
//     when the restarted daemon re-runs it.
//
// Both are jsonl.Logs: a crash can tear the last line of either file, and
// recovery keeps the intact prefix and drops the torn tail (the unit
// simply re-runs — results are pure functions of the spec, so
// re-execution is idempotent).

// journalVersion is the schema version stamped on new journal lines.
// Version 2 added per-unit accounting (Worker, StartUS, Stats); version
// 0/absent is the original stats-free shape. All added fields are
// optional, so loaders replay both without a migration step.
const journalVersion = 2

// unitResult is one journal line: the unit's outcome plus provenance
// (cache hit vs executed vs recovered after a crash).
type unitResult struct {
	// V is the record's schema version (see journalVersion).
	V        int    `json:"v,omitempty"`
	Unit     string `json:"unit"`
	CacheKey string `json:"cache_key"`
	// Cached marks a verdict answered by the content-addressed cache
	// without running a worker.
	Cached bool `json:"cached,omitempty"`
	// Recovered marks a unit that had a dangling lease at recovery time —
	// it was in flight when the previous daemon process died.
	Recovered bool `json:"recovered,omitempty"`
	// Record is the unit's result payload: a campaign.Record for verify
	// units, an mcfi.BatchRecord for mcfi units.
	Record json.RawMessage `json:"record"`
	// Err records an execution failure (worker crash after retries).
	Err string `json:"err,omitempty"`
	// Worker is the slot that executed the unit (trace lane; v2).
	Worker int `json:"worker,omitempty"`
	// StartUS is the unit's dispatch time, microseconds since the daemon
	// epoch — the rebasing offset for its worker spans in the merged
	// trace (v2).
	StartUS int64 `json:"start_us,omitempty"`
	// Stats is the unit's resource/metric profile. For cached units it is
	// the profile of the execution that populated the cache — the cost the
	// hit saved (v2).
	Stats *UnitStats `json:"stats,omitempty"`
}

// lease is one leases.jsonl line.
type lease struct {
	Unit   string `json:"unit"`
	Worker int    `json:"worker"`
}
