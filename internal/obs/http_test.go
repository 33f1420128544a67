package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

func TestServeDebugMetricsz(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MSATConflicts).Add(9)
	reg.Gauge(MBDDNodes).Set(123)
	srv, err := ServeDebug("127.0.0.1:0", Scope{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/metricsz is not JSON: %v\n%s", err, raw)
	}
	if doc.Counters[MSATConflicts] != 9 || doc.Gauges[MBDDNodes] != 123 {
		t.Fatalf("unexpected /metricsz payload: %s", raw)
	}

	// The pprof index must be mounted on the same server.
	resp2, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp2.StatusCode)
	}
	io.Copy(io.Discard, resp2.Body)
}

// getMetricsz serves scope's registry and returns the /metricsz JSON body.
func getMetricsz(t *testing.T, scope Scope) []byte {
	t.Helper()
	srv, err := ServeDebug("127.0.0.1:0", scope)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestMetricszGolden pins the /metricsz JSON bytes: counters, gauges, and
// histograms with empty, zero and multi-bucket distributions, plus the
// disabled registry's empty document.
func TestMetricszGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MSATConflicts).Add(9)
	reg.Counter(MRuns).Inc()
	reg.Counter("zero.counter")
	reg.Gauge(MBDDNodes).Set(123)
	reg.Gauge(MIC3Frames).SetMax(4)
	reg.Histogram("empty.hist")
	for _, v := range []int64{0, 1, 3, 300, 301, 70000} {
		reg.Histogram(MRunMS).Observe(v)
	}
	reg.Histogram(MBDDGCPauseUS).Observe(5)
	got := getMetricsz(t, Scope{Reg: reg})

	golden := filepath.Join("testdata", "metricsz_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run TestMetricszGolden -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/metricsz differs from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := getMetricsz(t, Scope{}); string(got) != "{}\n" {
		t.Fatalf("disabled registry /metricsz = %q, want %q", got, "{}\n")
	}
}

func TestServeDebugMetricszProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MSATConflicts).Add(9)
	reg.Histogram(MRunMS).Observe(12)
	srv, err := ServeDebug("127.0.0.1:0", Scope{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// ?format=prom and a scraper-style Accept header both negotiate the
	// Prometheus text format; the default stays JSON.
	for _, req := range []func() (*http.Request, error){
		func() (*http.Request, error) {
			return http.NewRequest("GET", "http://"+srv.Addr()+"/metricsz?format=prom", nil)
		},
		func() (*http.Request, error) {
			r, err := http.NewRequest("GET", "http://"+srv.Addr()+"/metricsz", nil)
			if r != nil {
				r.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
			}
			return r, err
		},
	} {
		r, err := req()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
			t.Errorf("content type %q, want %q", ct, PromContentType)
		}
		n, verr := ValidatePromText(resp.Body)
		resp.Body.Close()
		if verr != nil {
			t.Errorf("prom exposition invalid: %v", verr)
		}
		if n < 2 {
			t.Errorf("prom exposition has %d samples, want >= 2", n)
		}
	}
}

func TestServeDebugBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.256.256.256:0", Scope{}); err == nil {
		t.Fatal("expected error for bad address")
	}
}
