// Command perfbench is the repository's benchmark. It drives the verifier
// through its public Go API on three workloads and prints one JSON result
// line:
//
//	bash perfbench/run.sh --workload fig6-bdd --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// once untraced and once with spans around every layer call, and reports
// the per-layer metrics, writing the spans to
// .bench_build/<workload>.trace.json as a Chrome trace. Every
// run checks each unit's verdict, counterexample digest and deterministic
// counters against the tables in expected/. --steady k runs a workload k
// times with successive seeds and prints each end-to-end metric's spread.
// README.md has the workloads, the metric map and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ttastartup/internal/obs"
	"ttastartup/internal/serve"
)

// buildDir is the scratch directory, relative to the repository root the
// benchmark runs from; run.sh builds the binary there too.
const buildDir = ".bench_build"

// setupReps is how many times each run repeats its set-up; setup_s is
// the median, so a few slow set-ups do not move it.
const setupReps = 15

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	steady   int
	record   bool
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the --trace 0 metrics. Every workload reports all of
// them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layers maps each span the traced run records around a layer call to
// its time metric and its share-of-unit-wall metric.
var layers = []struct{ span, ms, share string }{
	{"tta.build", "tta.build_ms", "tta.build_share"},
	{"gcl.digest", "gcl.digest_ms", "gcl.digest_share"},
	{"opt", "opt.ms", "opt.share"},
	{"l2s", "l2s.ms", "l2s.share"},
	{"gcl.compile", "gcl.compile_ms", "gcl.compile_share"},
	{"symbolic.build", "symbolic.build_ms", "symbolic.build_share"},
	{"symbolic.check", "symbolic.check_ms", "symbolic.check_share"},
	{"bmc.check", "bmc.check_ms", "bmc.check_share"},
	{"induction.check", "induction.check_ms", "induction.check_share"},
	{"ic3.check", "ic3.check_ms", "ic3.check_share"},
	{"core.finish", "core.finish_ms", "core.finish_share"},
	{"serve.submit", "serve.submit_ms", "serve.submit_share"},
	{"serve.wait", "serve.wait_ms", "serve.wait_share"},
}

// perLayer lists the --trace 1 metrics beyond the layer times and
// shares. A layer a workload does not use reports 0.
var perLayer = []metricDef{
	{"unit.wall_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.coverage_min_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"campaign.overhead_ms", "ms"},
	{"go.gc_pause_ms", "ms"},
	{"opt.bits_saved", "count"},
	{"bdd.peak_nodes", "count"},
	{"bdd.cache_hit_ratio", "ratio"},
	{"bdd.gc_count", "count"},
	{"bdd.gc_pause_ms_max", "ms"},
	{"symbolic.iterations", "count"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"sat.queries", "count"},
	{"sat.props_per_ms", "1/ms"},
	{"ic3.frames", "count"},
	{"ic3.obligations", "count"},
	{"serve.warm_p50_ms", "ms"},
	{"serve.warm_p90_ms", "ms"},
	{"serve.warm_ms_per_unit", "ms"},
	{"serve.exec_ms_per_unit", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.worker_cpu_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"mcfi.runs_per_s", "1/s"},
}

func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l.ms, "ms"}, metricDef{l.share, "%"})
	}
	return append(defs, perLayer...)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *bench) error{
	"fig6-bdd":    func(ctx context.Context, b *bench) error { return runSweep(ctx, b, fig6Sweep()) },
	"sat-engines": func(ctx context.Context, b *bench) error { return runSweep(ctx, b, satSweep()) },
	"serve-mixed": runServe,
}

// bench is one run's state.
type bench struct {
	cfg     config
	dir     string // scratch directory, removed at exit
	check   *checker
	metrics map[string]float64
	tracer  *obs.Tracer
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	worker := flag.Bool("serve-worker", false, "run as a verification-service worker on stdin/stdout (the serve-mixed re-exec hook)")
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "fig6-bdd, sat-engines or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: fixes unit order (and serve-mixed's job stream)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measure whole passes of the workload while they fit in this many seconds (at least one)")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.IntVar(&cfg.steady, "steady", 0, "run the workload this many times with successive seeds and print each end-to-end metric's spread")
	flag.BoolVar(&cfg.record, "record", false, "write the observed outcomes to expected/<workload>.json instead of checking them")
	flag.Parse()

	if *worker {
		os.Exit(workerMain())
	}
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workerMain is the serve-mixed workers' entry point: the daemon re-execs
// this binary with -serve-worker and speaks to it over stdin/stdout.
func workerMain() int {
	if err := serve.RunWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

func run(cfg config) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want fig6-bdd, sat-engines or serve-mixed)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	// All load comes from this process and its two serve workers; cap
	// the runtime at two threads so the figures do not depend on how
	// many cores the host has beyond that.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if cfg.steady > 0 {
		return steadiness(cfg)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{cfg: cfg, dir: dir, metrics: map[string]float64{}}
	if cfg.record {
		b.check = &checker{want: &table{Units: map[string]outcome{}}, record: true}
	} else {
		want, err := loadTable(cfg.workload)
		if err != nil {
			return err
		}
		b.check = &checker{want: want}
	}
	if cfg.trace {
		b.tracer = obs.NewTracer()
	}
	if err := runner(context.Background(), b); err != nil {
		return err
	}
	b.check.report()
	if cfg.record {
		if err := writeTable(cfg.workload, b.check.want); err != nil {
			return err
		}
	}
	if cfg.trace {
		path := filepath.Join(buildDir, cfg.workload+".trace.json")
		if err := obs.WriteChromeFile(b.tracer, path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
	}
	return printResult(b)
}

func printResult(b *bench) error {
	defs := endToEnd
	if b.cfg.trace {
		defs = perLayerDefs()
	}
	out := resultLine{
		Correct:   b.check.failed == 0,
		Attempted: b.check.attempted,
		Failed:    b.check.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok && !b.cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", b.cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if out.Attempted == 0 {
		return errors.New("no unit was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// medianSetup runs fn setupReps times, each after a collection so each
// starts from the same heap, and returns the median wall time in seconds.
func medianSetup(fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// peakRSSMB is the largest resident set of this process and of any
// waited-for child (the serve workers), in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024 // KiB on Linux
}

// latencies sets the median and p90 metrics for one class of requests
// and says on stderr how many samples back them.
func (b *bench) latencies(class string, ms []float64) {
	p50, _ := percentile(ms, 0.5)
	p90, beyond := percentile(ms, 0.9)
	b.set(class+"_p50_ms", p50)
	b.set(class+"_p90_ms", p90)
	note := ""
	if beyond < minBeyond {
		note = fmt.Sprintf(" (fewer than %d beyond p90: an estimate over a fixed set, not over a sample)", minBeyond)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s latency n=%d p50=%.3fms p90=%.3fms, %d samples beyond p90%s\n",
		class, len(ms), p50, p90, beyond, note)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
