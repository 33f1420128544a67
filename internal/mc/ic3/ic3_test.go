package ic3

import (
	"context"
	"sync"
	"testing"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
)

// saturatingCounter builds a counter that climbs to cap and holds there.
func saturatingCounter(cap int) (*gcl.System, *gcl.Var) {
	sys := gcl.NewSystem("ctr")
	typ := gcl.IntType("c", 16)
	m := sys.Module("m")
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("inc", gcl.Lt(gcl.X(v), gcl.C(typ, cap)), gcl.Set(v, gcl.AddSat(gcl.X(v), 1)))
	m.Cmd("hold", gcl.Eq(gcl.X(v), gcl.C(typ, cap)))
	sys.MustFinalize()
	return sys, v
}

// verifyTrace replays a counterexample on the concrete stepper: initial
// first state, valid transitions, violating final state.
func verifyTrace(t *testing.T, sys *gcl.System, prop mc.Property, tr *mc.Trace) {
	t.Helper()
	if tr == nil || tr.Len() == 0 {
		t.Fatal("missing counterexample trace")
	}
	stepper := gcl.NewStepper(sys)
	vars := sys.StateVars()
	first := gcl.Key(tr.States[0], vars)
	foundInit := false
	stepper.InitStates(func(st gcl.State) bool {
		if gcl.Key(st, vars) == first {
			foundInit = true
			return false
		}
		return true
	})
	if !foundInit {
		t.Errorf("trace does not start in an initial state: %s", sys.FormatState(tr.States[0]))
	}
	for i := 0; i+1 < tr.Len(); i++ {
		want := gcl.Key(tr.States[i+1], vars)
		ok := false
		stepper.Successors(tr.States[i], func(next gcl.State) bool {
			if gcl.Key(next, vars) == want {
				ok = true
				return false
			}
			return true
		})
		if !ok {
			t.Fatalf("trace step %d is not a valid transition", i)
		}
	}
	if gcl.Holds(prop.Pred, tr.States[tr.Len()-1]) {
		t.Error("final trace state does not violate the invariant")
	}
}

func TestIC3ProvesInvariant(t *testing.T) {
	sys, v := saturatingCounter(5)
	typ := gcl.IntType("c", 16)
	prop := mc.Property{Name: "v-le-5", Kind: mc.Invariant,
		Pred: gcl.Le(gcl.X(v), gcl.C(typ, 5))}
	res, err := CheckInvariantCtx(context.Background(), sys.Compile(), prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Holds {
		t.Fatalf("verdict %v, want unbounded holds", res.Verdict)
	}
	if res.Stats.Iterations < 1 {
		t.Errorf("frame count %d, want >= 1", res.Stats.Iterations)
	}
	if res.Stats.SATQueries == 0 {
		t.Error("no SAT queries recorded")
	}
}

func TestIC3FindsCounterexample(t *testing.T) {
	sys, v := saturatingCounter(15)
	typ := gcl.IntType("c", 16)
	prop := mc.Property{Name: "v-lt-7", Kind: mc.Invariant,
		Pred: gcl.Lt(gcl.X(v), gcl.C(typ, 7))}
	res, err := CheckInvariantCtx(context.Background(), sys.Compile(), prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("verdict %v, want violated", res.Verdict)
	}
	verifyTrace(t, sys, prop, res.Trace)
	if res.Trace.Len() < 8 {
		t.Errorf("trace length %d, want >= 8 (7 increments)", res.Trace.Len())
	}
}

// TestIC3DeadlockViolation: the violating state has no successors; the
// bad-state query must still find it (it omits the transition relation).
func TestIC3DeadlockViolation(t *testing.T) {
	sys := gcl.NewSystem("dl")
	typ := gcl.IntType("c", 4)
	m := sys.Module("m")
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("inc", gcl.Lt(gcl.X(v), gcl.C(typ, 3)), gcl.Set(v, gcl.AddSat(gcl.X(v), 1)))
	sys.MustFinalize()
	prop := mc.Property{Name: "v-lt-3", Kind: mc.Invariant,
		Pred: gcl.Lt(gcl.X(v), gcl.C(typ, 3))}
	res, err := CheckInvariantCtx(context.Background(), sys.Compile(), prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("verdict %v, want violated (deadlocked bad state)", res.Verdict)
	}
	verifyTrace(t, sys, prop, res.Trace)
}

func TestIC3MaxFramesBounded(t *testing.T) {
	sys, v := saturatingCounter(5)
	typ := gcl.IntType("c", 16)
	prop := mc.Property{Name: "v-le-5", Kind: mc.Invariant,
		Pred: gcl.Le(gcl.X(v), gcl.C(typ, 5))}
	res, err := CheckInvariantCtx(context.Background(), sys.Compile(), prop, Options{MaxFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With a single frame no propagation can run, so the proof cannot
	// close; the verdict must stay bounded rather than claim Holds.
	if res.Verdict != mc.HoldsBounded {
		t.Fatalf("verdict %v, want holds-bounded at MaxFrames=1", res.Verdict)
	}
}

func TestIC3RejectsLiveness(t *testing.T) {
	sys, v := saturatingCounter(5)
	typ := gcl.IntType("c", 16)
	prop := mc.Property{Name: "live", Kind: mc.Eventually,
		Pred: gcl.Eq(gcl.X(v), gcl.C(typ, 5))}
	if _, err := CheckInvariantCtx(context.Background(), sys.Compile(), prop, Options{}); err == nil {
		t.Fatal("expected an error for a liveness property")
	}
}

// trippingCtx reports cancellation after a fixed number of Err polls, so
// the run is interrupted deterministically in the middle of the query loop.
type trippingCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	trip  int
}

func (c *trippingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls >= c.trip {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestIC3CancelMidRun interrupts the engine mid-proof and requires the
// context error — never a PROVED verdict from an interrupted UNSAT query.
func TestIC3CancelMidRun(t *testing.T) {
	sys, v := saturatingCounter(12)
	typ := gcl.IntType("c", 16)
	prop := mc.Property{Name: "v-le-12", Kind: mc.Invariant,
		Pred: gcl.Le(gcl.X(v), gcl.C(typ, 12))}
	for trip := 1; trip <= 40; trip += 3 {
		ctx := &trippingCtx{Context: context.Background(), trip: trip}
		res, err := CheckInvariantCtx(ctx, sys.Compile(), prop, Options{})
		if err == nil {
			// The run may legitimately finish before the trip point once
			// trip exceeds the total number of polls; then it must agree
			// with the uninterrupted verdict.
			if res.Verdict != mc.Holds {
				t.Fatalf("trip %d: verdict %v, want holds", trip, res.Verdict)
			}
			continue
		}
		if err != context.Canceled {
			t.Fatalf("trip %d: err = %v, want context.Canceled", trip, err)
		}
		if res != nil {
			t.Fatalf("trip %d: interrupted run returned a result", trip)
		}
	}
	// An already-cancelled real context aborts before any verdict.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CheckInvariantCtx(cctx, sys.Compile(), prop, Options{}); err == nil {
		t.Fatal("expected error from a cancelled context")
	}
}
