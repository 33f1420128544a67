package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// SetupOptions selects the sinks a command-line front-end wants. The zero
// value enables nothing.
type SetupOptions struct {
	// TracePath, when set, writes a Chrome trace_event JSON file at teardown.
	TracePath string
	// SpanLog, when set, streams one JSON line per finished span to a file.
	SpanLog string
	// Metrics prints the registry to MetricsW at teardown.
	Metrics bool
	// PprofAddr serves /debug/pprof and /metricsz on this address.
	PprofAddr string
	// Heartbeat prints a one-line progress summary to LogW at this interval.
	Heartbeat time.Duration
	// LogW receives the heartbeat lines and the pprof banner (default stderr).
	LogW io.Writer
	// MetricsW receives the final metrics dump (default stdout).
	MetricsW io.Writer
}

// BindFlags declares the sink flags -trace, -spanlog, -metrics and -pprof
// on fs; parsing fs fills the matching fields of o. The front end sets
// Heartbeat, LogW and MetricsW itself.
func (o *SetupOptions) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.TracePath, "trace", "", "write a Chrome trace_event JSON file here at exit (view in chrome://tracing or Perfetto)")
	fs.StringVar(&o.SpanLog, "spanlog", "", "append one JSON line per finished span to this file")
	fs.BoolVar(&o.Metrics, "metrics", false, "dump the metrics registry at exit")
	fs.StringVar(&o.PprofAddr, "pprof", "", "serve /debug/pprof and /metricsz on this address (e.g. :6060)")
}

func (o SetupOptions) enabled() bool {
	return o.TracePath != "" || o.SpanLog != "" || o.Metrics || o.PprofAddr != "" || o.Heartbeat > 0
}

// Setup wires the sinks o asks for and returns the scope to thread through
// the engines plus a teardown that stops the heartbeat, flushes files,
// closes the debug server, and prints the final metrics dump. When nothing
// is enabled the returned scope is the zero (disabled) value and teardown
// is a no-op.
//
// When ctx can be cancelled (a daemon's lifetime), cancelling it tears the
// sinks down exactly as if the returned done function had been called —
// the heartbeat goroutine stops and the debug HTTP listener closes, so a
// cancelled daemon leaks neither. Calling done (always safe, and still
// required to observe the teardown error) stops that watcher goroutine.
//
// The teardown is idempotent: the first call does the work and every
// later call returns the first call's error without re-flushing files or
// double-closing sinks, however many paths race into it.
func Setup(ctx context.Context, o SetupOptions) (Scope, func() error, error) {
	if !o.enabled() {
		return Scope{}, func() error { return nil }, nil
	}
	scope, done, err := setup(o)
	if err != nil || ctx.Done() == nil {
		return scope, done, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
			done()
		case <-stop:
		}
	}()
	var once sync.Once
	wrapped := func() error {
		once.Do(func() { close(stop) })
		wg.Wait()
		return done()
	}
	return scope, wrapped, nil
}

// setup wires the enabled sinks of o (Setup without the context watcher).
func setup(o SetupOptions) (Scope, func() error, error) {
	var scope Scope
	if o.LogW == nil {
		o.LogW = os.Stderr
	}
	if o.MetricsW == nil {
		o.MetricsW = os.Stdout
	}
	scope.Reg = NewRegistry()
	var spanlogFile *os.File
	if o.TracePath != "" || o.SpanLog != "" {
		scope.Trace = NewTracer()
		if o.SpanLog != "" {
			f, err := os.Create(o.SpanLog)
			if err != nil {
				return scope, nil, err
			}
			spanlogFile = f
			scope.Trace.SetSpanLog(f)
		}
	}
	var srv *DebugServer
	if o.PprofAddr != "" {
		s, err := ServeDebug(o.PprofAddr, scope)
		if err != nil {
			if spanlogFile != nil {
				spanlogFile.Close()
			}
			return scope, nil, err
		}
		srv = s
		fmt.Fprintf(o.LogW, "obs: serving /debug/pprof and /metricsz on http://%s\n", s.Addr())
	}
	stopHB := StartHeartbeat(o.LogW, scope, o.Heartbeat)
	var (
		once  sync.Once
		first error
	)
	done := func() error {
		once.Do(func() {
			stopHB()
			if o.TracePath != "" {
				if err := WriteChromeFile(scope.Trace, o.TracePath); err != nil {
					first = err
				}
			}
			if spanlogFile != nil {
				if err := spanlogFile.Close(); err != nil && first == nil {
					first = err
				}
			}
			if srv != nil {
				srv.Close()
			}
			if o.Metrics {
				fmt.Fprintln(o.MetricsW, "metrics:")
				scope.Reg.Fprint(o.MetricsW)
			}
		})
		return first
	}
	return scope, done, nil
}
