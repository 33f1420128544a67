package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops so a disabled registry costs one branch per update.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (queue depth, live nodes).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per bit length of the observed value: bucket
// i holds values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i). Bucket 0
// holds zero. Log-scale with zero arithmetic on the hot path.
const histBuckets = 65

// Histogram is a log2-bucketed histogram of non-negative values.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records v (negative values are clamped to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Registry is a concurrency-safe namespace of metrics. Lookup takes a
// read lock; callers on hot paths fetch the metric once and keep the
// pointer, whose update methods are lock-free atomics. A nil *Registry
// is valid and returns nil metrics, whose methods are all no-ops.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot flattens every metric to name→value: counters and gauges
// verbatim, histograms as name.count, name.sum, and name.max.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+3*len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name+".count"] = h.Count()
		out[name+".sum"] = h.Sum()
		out[name+".max"] = h.Max()
	}
	return out
}

// WriteJSON writes the full registry as deterministic JSON (map keys are
// sorted by encoding/json): the Export snapshot, as /metricsz and -metrics
// dumps serve it.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	s := r.Export()
	return enc.Encode(&s)
}

// Fprint writes a sorted "name value" line per metric, the final-dump
// format behind the -metrics flag.
func (r *Registry) Fprint(w io.Writer) {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-24s %d\n", name, snap[name])
	}
}

// summaryOrder is the preferred key order for the heartbeat line: the
// numbers an operator watches during a long run, most informative first.
// Inside the daemon the serve.* scheduler keys lead — queue depth and
// busy workers are the fleet's health at a glance — followed by the
// engine counters the workers merge back.
var summaryOrder = []string{
	MServeQueueDepth, MServeWorkersBusy, MServeUnitsExecuted, MServeUnitsCached,
	MServeUnitsRecovered, MServeJobsDone,
	MIC3Frames, MIC3QueueDepth, MSATQueries, MSATConflicts, MSATPropagations,
	MSymbolicIters, MExplicitLayers, MExplicitVisited, MExplicitFrontier,
	MBDDNodes, MBDDNodesPeak, MCampaignJobs, MRuns,
}

// Summary renders a one-line snapshot of the non-zero preferred metrics,
// e.g. "ic3.frames=12 sat.queries=4403 sat.conflicts=1761". Returns
// "(no activity)" when nothing has been recorded yet.
func (r *Registry) Summary() string {
	snap := r.Snapshot()
	line := ""
	for _, name := range summaryOrder {
		if v, ok := snap[name]; ok && v != 0 {
			if line != "" {
				line += " "
			}
			line += name + "=" + strconv.FormatInt(v, 10)
		}
	}
	if line == "" {
		return "(no activity)"
	}
	return line
}
