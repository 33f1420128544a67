package obs

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to the
// baseline (the runtime reaps asynchronously) or the deadline passes.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; ; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if i > 200 {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSetupCtxCancelStopsSinks: cancelling the context must stop the
// heartbeat goroutine and close the debug HTTP listener without anyone
// calling the teardown function — the daemon-crash path.
func TestSetupCtxCancelStopsSinks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// The heartbeat goroutine writes the log while this test reads it.
	var log syncBuffer
	scope, done, err := Setup(ctx, SetupOptions{
		Heartbeat: time.Millisecond,
		PprofAddr: "127.0.0.1:0",
		LogW:      &log,
		MetricsW:  io.Discard,
	})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if scope.Reg == nil {
		t.Fatal("scope has no registry")
	}

	// The debug endpoint is live before cancellation.
	const banner = "obs: serving /debug/pprof and /metricsz on http://"
	var addr string
	for _, line := range strings.Split(log.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, banner); ok {
			addr = strings.TrimSpace(rest)
		}
	}
	if addr == "" {
		t.Fatalf("no pprof banner in log: %q", log.String())
	}
	// A keep-alive connection would park the client's read and write loops
	// past the leak check, so every request gets its own connection and
	// every body is closed.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func() error {
		resp, err := client.Get("http://" + addr + "/metricsz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	if err := get(); err != nil {
		t.Fatalf("debug endpoint not serving before cancel: %v", err)
	}

	cancel()
	// After cancel, the listener must refuse connections and the heartbeat
	// goroutine must exit — without done() ever being called.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := get(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("debug endpoint still serving after context cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := done(); err != nil {
		t.Fatalf("teardown after cancel: %v", err)
	}
	waitGoroutines(t, before)
}

// TestSetupTeardownIdempotent: calling teardown repeatedly (and from a
// racing context watcher) performs the shutdown once and returns a stable
// result; the trace file is written exactly once.
func TestSetupTeardownIdempotent(t *testing.T) {
	before := runtime.NumGoroutine()
	tracePath := filepath.Join(t.TempDir(), "out.trace.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scope, done, err := Setup(ctx, SetupOptions{
		TracePath: tracePath,
		Heartbeat: time.Millisecond,
		LogW:      io.Discard,
		MetricsW:  io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := scope.Trace.StartOn(0, CatEngine, "probe")
	sp.End()

	if err := done(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(tracePath)
	if err != nil {
		t.Fatalf("trace not written at teardown: %v", err)
	}
	stamp := st.ModTime()

	// Second teardown and a context cancellation racing in: no rewrite,
	// no error, no panic.
	cancel()
	for i := 0; i < 3; i++ {
		if err := done(); err != nil {
			t.Fatalf("repeat teardown %d: %v", i, err)
		}
	}
	st2, err := os.Stat(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.ModTime().Equal(stamp) || st2.Size() != st.Size() {
		t.Fatal("repeat teardown rewrote the trace file")
	}
	waitGoroutines(t, before)
}

// TestSetupCtxDisabled: with nothing enabled, Setup spawns nothing and
// teardown is a no-op even under cancellation.
func TestSetupCtxDisabled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	scope, done, err := Setup(ctx, SetupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if scope.Enabled() {
		t.Fatal("zero options produced an enabled scope")
	}
	cancel()
	if err := done(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestBindFlags: the sink flags fill the matching SetupOptions fields and
// leave the front end's own fields alone.
func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("obs", flag.ContinueOnError)
	o := SetupOptions{Heartbeat: time.Second}
	o.BindFlags(fs)
	if err := fs.Parse([]string{"-trace", "t.json", "-spanlog", "s.jsonl", "-metrics", "-pprof", ":6060"}); err != nil {
		t.Fatal(err)
	}
	want := SetupOptions{TracePath: "t.json", SpanLog: "s.jsonl", Metrics: true, PprofAddr: ":6060", Heartbeat: time.Second}
	if o != want {
		t.Fatalf("options = %+v, want %+v", o, want)
	}
}
