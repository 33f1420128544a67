package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"ttastartup/internal/campaign"
	"ttastartup/internal/obs"
	"ttastartup/internal/sim/mcfi"
)

// The worker protocol: the daemon re-execs its own binary with a -worker
// flag and speaks JSONL over the child's stdin/stdout — one task line
// down, one result line back, strictly in order. Workers are share-
// nothing processes, so a wedged or crashed engine takes down only its
// own task (the scheduler respawns the child and retries), and on a
// one-core container separate processes are still the honest story for
// memory isolation of BDD managers and SAT solvers.

// task is one work unit shipped to a worker.
type task struct {
	Kind string `json:"kind"`
	Unit string `json:"unit"`
	// Verify units: the expanded job plus the submission config.
	Job    *campaign.Job `json:"job,omitempty"`
	Config RunConfig     `json:"config,omitempty"`
	// MCFI units: the normalized spec plus the batch index.
	MCFI  *mcfi.Spec `json:"mcfi,omitempty"`
	Batch int        `json:"batch,omitempty"`
}

// result is the worker's answer. Err is an infrastructure-level failure
// (an engine-level error is inside Record, like in a local campaign run).
// Stats is the unit's resource/metric profile captured around execution.
type result struct {
	Unit        string            `json:"unit"`
	Record      *campaign.Record  `json:"record,omitempty"`
	BatchRecord *mcfi.BatchRecord `json:"batch_record,omitempty"`
	Stats       *UnitStats        `json:"unitStats,omitempty"`
	Err         string            `json:"err,omitempty"`
}

// runTask executes one task in this process — shared by worker processes
// and the in-process executor used in tests. Engines publish into scope;
// the caller (runTaskInstrumented) exports it into the result's Stats.
func runTask(ctx context.Context, t task, scope obs.Scope) result {
	res := result{Unit: t.Unit}
	switch t.Kind {
	case KindVerify:
		if t.Job == nil {
			res.Err = "serve: verify task without a job"
			return res
		}
		opts := t.Config.runOptions()
		opts.Options.Obs = scope
		rec, err := campaign.ExecuteJob(ctx, *t.Job, opts)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Record = &rec
	case KindMCFI:
		if t.MCFI == nil {
			res.Err = "serve: mcfi task without a spec"
			return res
		}
		rec, err := mcfi.ExecuteBatch(*t.MCFI, t.Batch)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.BatchRecord = &rec
		// ExecuteBatch has no obs hook; publish the batch's counters
		// exactly as mcfi.Run does, so mcfi units profile like verify units
		// and sim.* means the same in ttasimfuzz and ttaserved.
		mcfi.PublishBatch(scope, &rec)
	default:
		res.Err = fmt.Sprintf("serve: unknown task kind %q", t.Kind)
	}
	return res
}

// RunWorker is the worker-process main loop: decode one task per line
// from r, execute it, write one result line to w. It returns nil when r
// reaches EOF (the daemon closed our stdin — normal shutdown). Cancelling
// ctx interrupts the engines of the task in flight.
func RunWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 0, 1<<20), 1<<26)
	out := bufio.NewWriter(w)
	enc := json.NewEncoder(out)
	for in.Scan() {
		var t task
		res := result{}
		if err := json.Unmarshal(in.Bytes(), &t); err != nil {
			res.Err = fmt.Sprintf("serve: malformed task: %v", err)
		} else {
			res = runTaskInstrumented(ctx, t)
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return in.Err()
}
