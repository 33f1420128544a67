package exp

// The serving experiment (`ttabench -exp serve`): submission-to-report
// latency of the ttaserved daemon, cold (every unit executed on worker
// processes) versus warm (the identical spec resubmitted and answered
// entirely from the content-addressed verdict cache), across worker-
// process counts. Committed as BENCH_serve.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ttastartup/internal/campaign"
	"ttastartup/internal/serve"
)

// ServeRow is one worker-count measurement.
type ServeRow struct {
	Workers int `json:"workers"`
	Units   int `json:"units"`
	// Cold: first submission, every unit executed on a worker process.
	ColdMS          int64   `json:"cold_ms"`
	ColdUnitsPerSec float64 `json:"cold_units_per_sec"`
	// Warm: identical resubmission, every unit a verdict-cache hit.
	WarmMS          int64   `json:"warm_ms"`
	WarmUnitsPerSec float64 `json:"warm_units_per_sec"`
	CacheHits       int     `json:"cache_hits"`
	Speedup         float64 `json:"speedup"`
}

// ServeReport is the BENCH_serve.json document.
type ServeReport struct {
	Scale string     `json:"scale"`
	Spec  string     `json:"spec"`
	Rows  []ServeRow `json:"rows"`
}

func serveSpec(scale Scale) *campaign.Spec {
	spec := &campaign.Spec{Ns: []int{3}, Degrees: []int{1, 2, 3}, DeltaInit: 4}
	if scale == Full {
		spec.Degrees = []int{1, 2, 3, 4, 5, 6}
		spec.Engines = []string{"symbolic", "bmc"}
	}
	return spec
}

// ServeBench measures cold vs warm submission latency across worker
// process counts. workerCmd is the argv for one worker process (the
// ttabench binary re-execing itself with -serve-worker); empty runs units
// in-process.
func ServeBench(ctx context.Context, scale Scale, workerCmd []string) (*ServeReport, string, error) {
	spec := serveSpec(scale)
	rep := &ServeReport{Scale: scale.String(), Spec: specLabel(spec)}

	for _, workers := range []int{1, 2, 4} {
		row, err := serveOne(ctx, spec, workers, workerCmd)
		if err != nil {
			return nil, "", fmt.Errorf("serve bench (%d workers): %w", workers, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, serveTable(rep), nil
}

func serveOne(ctx context.Context, spec *campaign.Spec, workers int, workerCmd []string) (ServeRow, error) {
	dir, err := os.MkdirTemp("", "ttaserve-bench-*")
	if err != nil {
		return ServeRow{}, err
	}
	defer os.RemoveAll(dir)

	d, err := serve.New(serve.Config{Dir: dir, Workers: workers, WorkerCmd: workerCmd})
	if err != nil {
		return ServeRow{}, err
	}
	defer d.Close()

	submitWait := func() (serve.JobStatus, time.Duration, error) {
		begin := time.Now()
		st, err := d.Submit(serve.SubmitRequest{Kind: serve.KindVerify, Verify: spec})
		if err != nil {
			return serve.JobStatus{}, 0, err
		}
		st, err = d.Wait(ctx, st.ID)
		if err != nil {
			return serve.JobStatus{}, 0, err
		}
		if st.State != "done" || st.Failed > 0 {
			return st, 0, fmt.Errorf("job ended %s (%d failed units)", st.State, st.Failed)
		}
		return st, time.Since(begin), nil
	}

	cold, coldDur, err := submitWait()
	if err != nil {
		return ServeRow{}, err
	}
	if cold.Cached != 0 {
		return ServeRow{}, fmt.Errorf("cold run hit the cache (%d units) in a fresh directory", cold.Cached)
	}
	warm, warmDur, err := submitWait()
	if err != nil {
		return ServeRow{}, err
	}
	if warm.Executed != 0 {
		return ServeRow{}, fmt.Errorf("warm run executed %d units; want 100%% cache hits", warm.Executed)
	}

	row := ServeRow{
		Workers: workers, Units: cold.Total,
		ColdMS:          coldDur.Milliseconds(),
		ColdUnitsPerSec: float64(cold.Total) / coldDur.Seconds(),
		WarmMS:          warmDur.Milliseconds(),
		WarmUnitsPerSec: float64(warm.Total) / warmDur.Seconds(),
		CacheHits:       warm.Cached,
	}
	if warmDur > 0 {
		row.Speedup = coldDur.Seconds() / warmDur.Seconds()
	}
	return row, nil
}

func specLabel(spec *campaign.Spec) string {
	jobs, err := spec.Jobs()
	if err != nil {
		return "invalid spec"
	}
	return fmt.Sprintf("hub n=%v degrees=%v (%d jobs)", spec.Ns, spec.Degrees, len(jobs))
}

func serveTable(r *ServeReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Verification service (ttaserved, %s scale): %s\n", r.Scale, r.Spec)
	b.WriteString("  workers   cold        jobs/s     warm (cached)  jobs/s     speedup\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9d %-11s %-10.1f %-14s %-10.0f %.0fx\n",
			row.Workers,
			(time.Duration(row.ColdMS) * time.Millisecond).String(), row.ColdUnitsPerSec,
			(time.Duration(row.WarmMS) * time.Millisecond).String(), row.WarmUnitsPerSec,
			row.Speedup)
	}
	b.WriteString("  warm resubmissions are answered entirely by the content-addressed\n")
	b.WriteString("  verdict cache: zero units executed, identical canonical reports\n")
	return b.String()
}

// WriteServeReport writes the report as the BENCH_serve.json document.
func WriteServeReport(w io.Writer, r *ServeReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
