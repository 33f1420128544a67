package mc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/obs"
)

// TestObsAcrossEngines runs one invariant through all five checkers under a
// shared obs scope and checks the unified reporting contract: every engine
// records Stats.Duration and an engine.runs increment through mc.Run, the
// SAT-backed engines count queries through the same tap that fills
// Stats.SATQueries, and the shared tracer ends up with spans from at least
// the engine, frame, and sat layers in a Chrome export that round-trips
// json.Unmarshal.
func TestObsAcrossEngines(t *testing.T) {
	sys, cases := twoCounters()
	comp := sys.Compile()
	prop := cases[0].prop // invariant that holds: every engine terminates

	scope := obs.Scope{Reg: obs.NewRegistry(), Trace: obs.NewTracer()}

	runs := 0
	check := func(name string, sat bool, run func() (*mc.Result, error)) {
		t.Helper()
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs++
		if res.Stats.Duration <= 0 {
			t.Errorf("%s: Stats.Duration = %v, want > 0", name, res.Stats.Duration)
		}
		if got := scope.Reg.Counter(obs.MRuns).Value(); got != int64(runs) {
			t.Errorf("%s: engine.runs = %d, want %d", name, got, runs)
		}
		if sat && res.Stats.SATQueries == 0 {
			t.Errorf("%s: Stats.SATQueries = 0, want > 0", name)
		}
	}

	check("explicit", false, func() (*mc.Result, error) {
		return explicit.CheckInvariantCtx(context.Background(), sys, prop, explicit.Options{Obs: scope})
	})
	check("symbolic", false, func() (*mc.Result, error) {
		eng, err := symbolic.New(comp, symbolic.Options{Obs: scope})
		if err != nil {
			return nil, err
		}
		return eng.CheckInvariantCtx(context.Background(), prop)
	})
	check("bmc", true, func() (*mc.Result, error) {
		return bmc.CheckInvariantCtx(context.Background(), comp, prop, bmc.Options{MaxDepth: 10, Obs: scope})
	})
	check("induction", true, func() (*mc.Result, error) {
		return bmc.CheckInvariantInductionCtx(context.Background(), comp, prop,
			bmc.InductionOptions{MaxK: 60, SimplePath: true, Obs: scope})
	})
	check("ic3", true, func() (*mc.Result, error) {
		return ic3.CheckInvariantCtx(context.Background(), comp, prop, ic3.Options{Obs: scope})
	})

	// The registry totals must match what the engines reported per-run.
	if q := scope.Reg.Counter(obs.MSATQueries).Value(); q == 0 {
		t.Error("sat.queries = 0 after three SAT-engine runs")
	}
	if h := scope.Reg.Histogram(obs.MRunMS).Count(); h != int64(runs) {
		t.Errorf("engine.run_ms histogram count = %d, want %d", h, runs)
	}

	// Chrome export: valid JSON with spans from ≥ 3 distinct layers.
	var buf bytes.Buffer
	if err := scope.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export does not round-trip: %v", err)
	}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		cats[ev.Cat] = true
	}
	for _, want := range []string{obs.CatEngine, obs.CatFrame, obs.CatSAT} {
		if !cats[want] {
			t.Errorf("trace is missing %q spans (have %v)", want, cats)
		}
	}
}

// BenchmarkIC3ObsOff and BenchmarkIC3ObsOn bound the end-to-end cost of
// the instrumentation on a full IC3 proof: the off path must stay within
// the noise of the pre-obs engine (nil-receiver fast path), and the on
// path shows what a fully recorded run costs.
func BenchmarkIC3ObsOff(b *testing.B) {
	benchmarkIC3(b, obs.Scope{})
}

func BenchmarkIC3ObsOn(b *testing.B) {
	benchmarkIC3(b, obs.Scope{Reg: obs.NewRegistry(), Trace: obs.NewTracer()})
}

func benchmarkIC3(b *testing.B, scope obs.Scope) {
	sys, cases := twoCounters()
	comp := sys.Compile()
	prop := cases[0].prop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ic3.CheckInvariantCtx(context.Background(), comp, prop, ic3.Options{Obs: scope}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestObsDisabledIsNoOp checks the disabled path: a zero Scope routed
// through every engine must not panic, must still fill Stats, and must
// leave nothing behind to export.
func TestObsDisabledIsNoOp(t *testing.T) {
	sys, cases := twoCounters()
	comp := sys.Compile()
	prop := cases[0].prop

	res, err := ic3.CheckInvariantCtx(context.Background(), comp, prop, ic3.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Duration <= 0 || res.Stats.SATQueries == 0 {
		t.Errorf("zero scope lost stats: duration=%v queries=%d",
			res.Stats.Duration, res.Stats.SATQueries)
	}

	var scope obs.Scope
	if scope.Enabled() {
		t.Error("zero Scope reports Enabled")
	}
	// Nil-receiver fast paths must all be safe.
	scope.Reg.Counter("x").Inc()
	scope.Reg.Gauge("x").Set(1)
	scope.Reg.Histogram("x").Observe(1)
	sp := scope.Trace.Start(obs.CatEngine, "nothing")
	sp.Attr("k", "v").End()
	if n := scope.Trace.EventCount(); n != 0 {
		t.Errorf("nil tracer recorded %d events", n)
	}
}
