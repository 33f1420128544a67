package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines through
// the registry lookup path; run under -race by `make race`.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Deliberately re-look-up each time to stress the RLock path.
				r.Counter("test.hits").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("test.hits").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterAddIgnoresNonPositive(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(5)
	c.Add(0)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(10)
	g.SetMax(7)
	if got := g.Value(); got != 10 {
		t.Fatalf("SetMax lowered gauge to %d", got)
	}
	g.SetMax(15)
	if got := g.Value(); got != 15 {
		t.Fatalf("SetMax failed to raise gauge: %d", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	n := int64(workers * perWorker)
	if got := h.Count(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	if got, want := h.Sum(), n*(n-1)/2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if got := h.Max(); got != n-1 {
		t.Fatalf("max = %d, want %d", got, n-1)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -7} {
		h.Observe(v)
	}
	// -7 clamps to 0, so bucket 0 (value 0) holds two observations;
	// bucket 1 holds {1}; bucket 2 holds {2,3}; bucket 3 holds {4};
	// bucket 10 holds {1000}.
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 10: 1}
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if got := h.Max(); got != 1000 {
		t.Fatalf("max = %d, want 1000", got)
	}
}

// TestNilSafety checks the disabled fast path: every operation on the
// zero Scope and nil metrics must be a silent no-op.
func TestNilSafety(t *testing.T) {
	var scope Scope
	if scope.Enabled() {
		t.Fatal("zero Scope reports Enabled")
	}
	scope.Reg.Counter("x").Inc()
	scope.Reg.Counter("x").Add(3)
	scope.Reg.Gauge("y").Set(1)
	scope.Reg.Gauge("y").SetMax(2)
	scope.Reg.Histogram("z").Observe(4)
	if scope.Reg.Snapshot() != nil || !scope.Reg.Export().Empty() {
		t.Fatal("nil registry snapshot not nil")
	}
	if got := scope.Reg.Summary(); got != "(no activity)" {
		t.Fatalf("nil registry summary = %q", got)
	}
	var buf bytes.Buffer
	scope.Reg.Fprint(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil registry Fprint wrote %q", buf.String())
	}
	if err := scope.Reg.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}

	sp := scope.Trace.Start(CatEngine, "noop")
	sp.Attr("k", "v")
	child := sp.Start(CatSAT, "inner")
	child.End()
	sp.End()
	scope.Trace.Instant(CatFrame, "i")
	scope.Trace.CounterEvent(CatBDD, "n", 1)
	if got := scope.Trace.EventCount(); got != 0 {
		t.Fatalf("nil tracer recorded %d events", got)
	}
	if err := scope.Trace.WriteChrome(&buf); err != nil {
		t.Fatalf("nil tracer WriteChrome: %v", err)
	}
}

func TestSnapshotAndFprint(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Gauge("a.gauge").Set(7)
	r.Histogram("c.hist").Observe(9)
	snap := r.Snapshot()
	for name, want := range map[string]int64{
		"b.count": 2, "a.gauge": 7,
		"c.hist.count": 1, "c.hist.sum": 9, "c.hist.max": 9,
	} {
		if snap[name] != want {
			t.Errorf("snapshot[%q] = %d, want %d", name, snap[name], want)
		}
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("Fprint wrote %d lines, want 5:\n%s", len(lines), buf.String())
	}
	if !sortedLines(lines) {
		t.Fatalf("Fprint output not sorted:\n%s", buf.String())
	}
}

func sortedLines(lines []string) bool {
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			return false
		}
	}
	return true
}

func TestWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter(MSATConflicts).Add(11)
	r.Gauge(MIC3Frames).Set(4)
	r.Histogram(MBDDGCPauseUS).Observe(300)
	var a, b bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("WriteJSON not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64            `json:"count"`
			Buckets map[string]int64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v", err)
	}
	if doc.Counters[MSATConflicts] != 11 || doc.Gauges[MIC3Frames] != 4 {
		t.Fatalf("unexpected doc: %+v", doc)
	}
	h := doc.Histograms[MBDDGCPauseUS]
	// 300 has bit length 9, so its bucket's lower bound is 2^8 = 256.
	if h.Count != 1 || h.Buckets["256"] != 1 {
		t.Fatalf("unexpected histogram: %+v", h)
	}
}

func TestSummary(t *testing.T) {
	r := NewRegistry()
	if got := r.Summary(); got != "(no activity)" {
		t.Fatalf("empty summary = %q", got)
	}
	r.Counter(MSATQueries).Add(42)
	r.Gauge(MIC3Frames).Set(3)
	r.Counter("unlisted.metric").Add(9)
	got := r.Summary()
	if want := "ic3.frames=3 sat.queries=42"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}
