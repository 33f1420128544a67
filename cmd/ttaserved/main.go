// Command ttaserved is the verification-as-a-service daemon: it accepts
// verification-campaign and Monte-Carlo fault-injection specs over HTTP
// (POST /v1/jobs), expands them into deterministic work units, runs them
// on worker processes (re-execs of this binary with -worker), and streams
// progress as SSE/JSONL (GET /v1/jobs/{id}/events). Results live in a
// journaled per-job store fronted by a content-addressed verdict cache,
// so a daemon killed mid-campaign resumes on restart with a final report
// byte-identical to an uninterrupted run's, and resubmitting an
// overlapping spec only schedules the delta.
//
// Examples:
//
//	ttaserved -addr 127.0.0.1:8414 -data /var/lib/ttaserved -j 4
//	ttaserved -addr 127.0.0.1:0 -addr-file served.addr   (tests: ephemeral port)
//	ttaserved -worker                                    (internal: worker mode)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ttastartup/internal/obs"
	"ttastartup/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ttaserved:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		worker    = flag.Bool("worker", false, "run as a worker process: execute JSONL tasks from stdin (internal)")
		addr      = flag.String("addr", "127.0.0.1:8414", "HTTP listen address (port 0: ephemeral)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file once listening")
		data      = flag.String("data", ".ttaserved", "data directory (jobs, journals, verdict cache)")
		workers   = flag.Int("j", 2, "worker processes")
		inproc    = flag.Bool("inproc", false, "run units in the daemon process instead of worker processes")
		heartbeat = flag.Duration("heartbeat", 0, "interval between progress heartbeats on stderr (0: off)")
	)
	var obsOpts obs.SetupOptions
	obsOpts.BindFlags(flag.CommandLine)
	flag.Parse()

	if *worker {
		// Worker mode: a child of the daemon speaking the JSONL protocol.
		// EOF on stdin is the normal shutdown signal.
		return serve.RunWorker(context.Background(), os.Stdin, os.Stdout)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Setup ties the obs sinks to the daemon's lifetime: on SIGTERM the
	// heartbeat goroutine and the extra debug listener stop with the rest.
	obsOpts.Heartbeat, obsOpts.MetricsW = *heartbeat, os.Stderr
	scope, obsDone, err := obs.Setup(ctx, obsOpts)
	if err != nil {
		return err
	}
	defer func() {
		if derr := obsDone(); derr != nil {
			fmt.Fprintln(os.Stderr, "ttaserved: obs:", derr)
		}
	}()

	var workerCmd []string
	if !*inproc {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		workerCmd = []string{exe, "-worker"}
	}
	d, err := serve.New(serve.Config{
		Dir:       *data,
		Workers:   *workers,
		WorkerCmd: workerCmd,
		Scope:     scope,
		Log:       os.Stderr,
	})
	if err != nil {
		return err
	}
	defer d.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "ttaserved: listening on http://%s (data %s, %d workers)\n",
		ln.Addr(), *data, *workers)

	srv := &http.Server{Handler: d.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
