package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"sort"
	"strconv"
)

// Snapshot is a point-in-time, wire-ready copy of a registry: the value
// type worker processes ship back to the daemon (internal/serve) so that
// counters, gauges, and histograms recorded in a short-lived process
// survive it. Snapshots merge into a fleet registry with per-kind
// semantics — see Registry.Merge.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one histogram's totals plus its non-empty log2
// buckets, keyed by each bucket's inclusive lower bound rendered in
// decimal ("0", "1", "2", "4", ...) — the same shape /metricsz uses.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Empty reports whether the snapshot carries no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// bucketLow returns bucket i's inclusive lower bound (0 for bucket 0,
// 2^(i-1) otherwise).
func bucketLow(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

// bucketIndex inverts bucketLow: the bucket whose lower bound is lo.
// Lower bounds that are not powers of two (corrupt input) land in the
// bucket covering them, which keeps totals consistent.
func bucketIndex(lo int64) int {
	if lo <= 0 {
		return 0
	}
	return bits.Len64(uint64(lo))
}

// Export copies every metric out of the registry as a Snapshot. The copy
// is not atomic across metrics (each value is read once, racing updates
// land in the next export), which is the usual scrape semantics.
func (r *Registry) Export() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Max: h.Max()}
			for i := range h.buckets {
				if n := h.buckets[i].Load(); n > 0 {
					if hs.Buckets == nil {
						hs.Buckets = make(map[string]int64)
					}
					hs.Buckets[strconv.FormatInt(bucketLow(i), 10)] = n
				}
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// Merge folds a snapshot into the registry with per-kind semantics:
//
//   - counters are summed — a fleet count is the total work done anywhere;
//   - gauges are max-merged — the instantaneous values that matter across
//     processes are high-water marks (bdd.nodes.peak, ic3.frames), and a
//     max never goes backwards when workers report out of order;
//   - histograms merge bucket-wise — counts and sums add, maxes max, so
//     the fleet distribution is exactly the union of the per-process
//     observations.
//
// Merge is safe under concurrent updates and concurrent merges.
func (r *Registry) Merge(s Snapshot) {
	if r == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).SetMax(v)
	}
	for name, hs := range s.Histograms {
		r.Histogram(name).absorb(hs)
	}
}

// absorb folds a histogram snapshot into h bucket-wise.
func (h *Histogram) absorb(hs HistogramSnapshot) {
	if h == nil {
		return
	}
	h.count.Add(hs.Count)
	h.sum.Add(hs.Sum)
	for {
		cur := h.max.Load()
		if hs.Max <= cur || h.max.CompareAndSwap(cur, hs.Max) {
			break
		}
	}
	for lo, n := range hs.Buckets {
		v, err := strconv.ParseInt(lo, 10, 64)
		if err != nil || n <= 0 {
			continue
		}
		h.buckets[bucketIndex(v)].Add(n)
	}
}

// SpanEvent is one trace event as a Tracer records it, and its wire-ready
// form: what a worker ships to the daemon so its spans can join the fleet
// trace, and what the merged-trace endpoint serialises. Field order is the
// JSON field order (matching the Chrome trace_event schema).
type SpanEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Export copies every recorded event out of the tracer as SpanEvents,
// sorted by timestamp with recording order as the tiebreaker (the order
// WriteChrome emits). limit > 0 truncates to the first limit events so
// per-unit exports stay bounded; 0 means no limit.
func (t *Tracer) Export(limit int) []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := make([]SpanEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	if limit > 0 && len(events) > limit {
		events = events[:limit]
	}
	return events
}

// WriteChromeEvents writes events as a Chrome trace_event JSON document
// (`{"traceEvents": [...]}`), sorting by timestamp with input order as the
// tiebreaker. It is the multi-process counterpart of Tracer.WriteChrome:
// callers assemble events from several processes (rebasing timestamps and
// assigning pids) and this renders the merged timeline.
func WriteChromeEvents(w io.Writer, events []SpanEvent) error {
	sorted := make([]SpanEvent, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TS < sorted[j].TS })
	doc := struct {
		TraceEvents     []SpanEvent `json:"traceEvents"`
		DisplayTimeUnit string      `json:"displayTimeUnit"`
	}{TraceEvents: sorted, DisplayTimeUnit: "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []SpanEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&doc)
}
