package mc_test

import (
	"context"
	"errors"
	"testing"

	"ttastartup/internal/bdd"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/symbolic"
)

// bigCounter builds a system with a deep state graph.
func bigCounter(card int) (*gcl.System, *gcl.Var) {
	sys := gcl.NewSystem("bigcounter")
	m := sys.Module("m")
	typ := gcl.IntType("c", card)
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("inc", gcl.B(true), gcl.Set(v, gcl.AddMod(gcl.X(v), 1)))
	sys.MustFinalize()
	return sys, v
}

// TestSymbolicNodeLimitIsError: exceeding the BDD node pool must surface
// as an error, not a panic.
func TestSymbolicNodeLimitIsError(t *testing.T) {
	sys, _ := bigCounter(4096)
	eng, err := symbolic.New(sys.Compile(), symbolic.Options{
		BDD: bdd.Config{NodeLimit: 64},
	})
	if err == nil {
		// Construction may survive on a tiny model; reachability must not.
		_, err = eng.ReachableCtx(context.Background())
	}
	if err == nil {
		t.Fatal("expected a node-limit error")
	}
	if !errors.Is(err, bdd.ErrNodeLimit) {
		t.Errorf("error %v does not wrap ErrNodeLimit", err)
	}
}

// TestSymbolicNoTrace: disabling layers must still verify and must omit
// counterexample traces.
func TestSymbolicNoTrace(t *testing.T) {
	sys, v := bigCounter(64)
	eng, err := symbolic.New(sys.Compile(), symbolic.Options{NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	prop := mc.Property{Name: "v-small", Kind: mc.Invariant,
		Pred: gcl.Lt(gcl.X(v), gcl.C(gcl.IntType("c", 64), 40))}
	res, err := eng.CheckInvariantCtx(context.Background(), prop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Trace != nil {
		t.Error("NoTrace should omit the counterexample")
	}
}

// TestSymbolicMaxIterations: the iteration cap guards runaway fixpoints.
func TestSymbolicMaxIterations(t *testing.T) {
	sys, _ := bigCounter(4096)
	eng, err := symbolic.New(sys.Compile(), symbolic.Options{MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ReachableCtx(context.Background()); err == nil {
		t.Error("expected an error from the iteration cap")
	}
}

// TestBMCDepthZeroChecksInitial: a violated initial condition is found at
// depth zero.
func TestBMCDepthZeroChecksInitial(t *testing.T) {
	sys, v := bigCounter(8)
	prop := mc.Property{Name: "v-ne-0", Kind: mc.Invariant,
		Pred: gcl.Ne(gcl.X(v), gcl.C(gcl.IntType("c", 8), 0))}
	res, err := bmc.CheckInvariantCtx(context.Background(), sys.Compile(), prop, bmc.Options{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated || res.Trace.Len() != 1 {
		t.Errorf("want violation at depth 0, got %v len %d", res.Verdict, traceLen(res))
	}
}

func traceLen(r *mc.Result) int {
	if r.Trace == nil {
		return 0
	}
	return r.Trace.Len()
}

// TestBMCRequiresDepth: a missing MaxDepth is a usage error.
func TestBMCRequiresDepth(t *testing.T) {
	sys, _ := bigCounter(8)
	prop := mc.Property{Name: "true", Kind: mc.Invariant, Pred: gcl.True()}
	if _, err := bmc.CheckInvariantCtx(context.Background(), sys.Compile(), prop, bmc.Options{}); err == nil {
		t.Error("expected an error for MaxDepth 0")
	}
}

// TestKindMismatchErrors: engines reject properties of the wrong kind.
func TestKindMismatchErrors(t *testing.T) {
	sys, _ := bigCounter(8)
	comp := sys.Compile()
	eng, err := symbolic.New(comp, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inv := mc.Property{Name: "p", Kind: mc.Invariant, Pred: gcl.True()}
	ev := mc.Property{Name: "q", Kind: mc.Eventually, Pred: gcl.True()}
	if _, err := eng.CheckInvariantCtx(context.Background(), ev); err == nil {
		t.Error("CheckInvariantCtx accepted an Eventually property")
	}
	if _, err := eng.CheckEventuallyCtx(context.Background(), inv); err == nil {
		t.Error("CheckEventuallyCtx accepted an Invariant property")
	}
	if _, err := bmc.CheckInvariantCtx(context.Background(), comp, ev, bmc.Options{MaxDepth: 2}); err == nil {
		t.Error("bmc accepted an Eventually property")
	}
}
