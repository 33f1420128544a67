package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans, instants, and counter samples and exports them
// as Chrome trace_event JSON (chrome://tracing, Perfetto) and optionally
// as a streaming JSONL span log. A nil *Tracer is the disabled state:
// Start returns a nil *Span whose methods are all no-ops.
//
// Timestamps come from an injectable monotonic clock so tests can pin
// them; the default clock is time.Since(process start of the tracer).
type Tracer struct {
	clock func() time.Duration // elapsed since the tracer's epoch

	nextID atomic.Uint64

	mu      sync.Mutex
	events  []SpanEvent // in recording order, the export's sort tiebreaker
	spanLog io.Writer
}

// NewTracer returns a tracer using the wall monotonic clock.
func NewTracer() *Tracer {
	epoch := time.Now()
	return NewTracerWithClock(func() time.Duration { return time.Since(epoch) })
}

// NewTracerWithClock returns a tracer whose timestamps are read from
// clock (elapsed time since an arbitrary epoch). Tests inject a stepped
// clock here to get deterministic output.
func NewTracerWithClock(clock func() time.Duration) *Tracer {
	return &Tracer{clock: clock}
}

// SetSpanLog streams one JSON line per completed span to w, in end
// order. Attach before tracing starts; writes happen under the tracer
// lock so w needs no extra synchronisation.
func (t *Tracer) SetSpanLog(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spanLog = w
	t.mu.Unlock()
}

func (t *Tracer) nowUS() int64 { return int64(t.clock() / time.Microsecond) }

// Span is one timed operation. Spans from the same tid nest by time
// containment in the Chrome viewer; parent links are preserved in the
// span-log and in the exported args.
type Span struct {
	t       *Tracer
	cat     string
	name    string
	tid     int
	id      uint64
	parent  uint64
	startUS int64
	args    map[string]any
}

// Start opens a top-level span on the default lane (tid 0).
func (t *Tracer) Start(cat, name string) *Span { return t.StartOn(0, cat, name) }

// StartOn opens a top-level span on an explicit lane; the campaign uses
// one lane per worker so jobs render side by side.
func (t *Tracer) StartOn(tid int, cat, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, cat: cat, name: name, tid: tid, id: t.nextID.Add(1), startUS: t.nowUS()}
}

// Start opens a child span on the parent's lane.
func (s *Span) Start(cat, name string) *Span {
	if s == nil || s.t == nil {
		return nil
	}
	c := s.t.StartOn(s.tid, cat, name)
	c.parent = s.id
	return c
}

// Attr attaches a key=value pair, returned for chaining. Values must be
// JSON-marshalable (strings and numbers in practice).
func (s *Span) Attr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]any)
	}
	s.args[key] = value
	return s
}

// End closes the span and records it. Safe to call on a nil span; calling
// End twice records the span twice, so don't.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	endUS := s.t.nowUS()
	dur := endUS - s.startUS
	if dur < 0 {
		dur = 0
	}
	args := s.args
	if s.parent != 0 {
		if args == nil {
			args = make(map[string]any, 1)
		}
		args["parent"] = s.parent
	}
	t := s.t
	t.mu.Lock()
	t.events = append(t.events, SpanEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS: s.startUS, Dur: dur, TID: s.tid, Args: args,
	})
	if t.spanLog != nil {
		line, err := json.Marshal(spanLogLine{
			TS: s.startUS, Dur: dur, Cat: s.cat, Name: s.name,
			TID: s.tid, ID: s.id, Parent: s.parent, Args: args,
		})
		if err == nil {
			line = append(line, '\n')
			t.spanLog.Write(line)
		}
	}
	t.mu.Unlock()
}

// Instant records a zero-duration marker event.
func (t *Tracer) Instant(cat, name string) {
	if t == nil {
		return
	}
	ts := t.nowUS()
	t.mu.Lock()
	t.events = append(t.events, SpanEvent{Name: name, Cat: cat, Ph: "i", TS: ts, S: "t"})
	t.mu.Unlock()
}

// CounterEvent records a sampled value; the Chrome viewer charts the
// series of samples with the same name as a filled graph.
func (t *Tracer) CounterEvent(cat, name string, value int64) {
	if t == nil {
		return
	}
	ts := t.nowUS()
	t.mu.Lock()
	t.events = append(t.events, SpanEvent{
		Name: name, Cat: cat, Ph: "C", TS: ts,
		Args: map[string]any{"value": value},
	})
	t.mu.Unlock()
}

// spanLogLine is one line of the JSONL span log.
type spanLogLine struct {
	TS     int64          `json:"ts_us"`
	Dur    int64          `json:"dur_us"`
	Cat    string         `json:"cat"`
	Name   string         `json:"name"`
	TID    int            `json:"tid"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
}

// WriteChrome exports every recorded event as a Chrome trace_event JSON
// object (`{"traceEvents": [...]}`), sorted by timestamp with insertion
// order as the tiebreaker so output is deterministic.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return WriteChromeEvents(w, t.Export(0))
}

// EventCount returns the number of recorded events (for progress lines).
func (t *Tracer) EventCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteChromeFile is WriteChrome to a freshly created file, a
// convenience for CLI -trace flags.
func WriteChromeFile(t *Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
