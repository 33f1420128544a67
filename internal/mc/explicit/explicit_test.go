package explicit_test

import (
	"context"
	"testing"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/explicit"
)

// chain builds a nondeterministic counter: inc by 1 or hold below a cap.
func chain(card, cap int) (*gcl.System, *gcl.Var) {
	sys := gcl.NewSystem("chain")
	m := sys.Module("m")
	typ := gcl.IntType("c", card)
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("inc", gcl.Lt(gcl.X(v), gcl.C(typ, cap)), gcl.Set(v, gcl.AddSat(gcl.X(v), 1)))
	m.Cmd("hold", gcl.B(true))
	sys.MustFinalize()
	return sys, v
}

func TestExploreCountsAndEdges(t *testing.T) {
	sys, _ := chain(16, 9)
	g, err := explicit.ExploreCtx(context.Background(), sys, explicit.Options{StoreEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 10 {
		t.Errorf("states = %d, want 10", g.NumStates())
	}
	if g.InitCount != 1 {
		t.Errorf("inits = %d", g.InitCount)
	}
	if len(g.Deadlocks) != 0 {
		t.Errorf("deadlocks = %d", len(g.Deadlocks))
	}
	// Interior states have two successors (inc, hold); the cap has one.
	twoSucc := 0
	for _, succs := range g.Edges {
		if len(succs) == 2 {
			twoSucc++
		}
	}
	if twoSucc != 9 {
		t.Errorf("states with two successors = %d, want 9", twoSucc)
	}
}

func TestInvariantTraceIsShortestPath(t *testing.T) {
	sys, v := chain(16, 9)
	prop := mc.Property{Name: "v-lt-5", Kind: mc.Invariant,
		Pred: gcl.Lt(gcl.X(v), gcl.C(gcl.IntType("c", 16), 5))}
	res, err := explicit.CheckInvariantCtx(context.Background(), sys, prop, explicit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Trace.Len() != 6 { // 0..5 via BFS shortest path
		t.Errorf("trace length %d, want 6", res.Trace.Len())
	}
}

func TestEventuallyLasso(t *testing.T) {
	sys, v := chain(16, 9)
	prop := mc.Property{Name: "reaches-9", Kind: mc.Eventually,
		Pred: gcl.Eq(gcl.X(v), gcl.C(gcl.IntType("c", 16), 9))}
	res, err := explicit.CheckEventuallyCtx(context.Background(), sys, prop, explicit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The "hold" self-loop lets runs avoid 9 forever.
	if res.Verdict != mc.Violated {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Trace == nil || res.Trace.LoopsTo < 0 {
		t.Error("expected a lasso trace")
	}
}

func TestKindMismatch(t *testing.T) {
	sys, _ := chain(4, 2)
	inv := mc.Property{Name: "p", Kind: mc.Invariant, Pred: gcl.True()}
	ev := mc.Property{Name: "q", Kind: mc.Eventually, Pred: gcl.True()}
	if _, err := explicit.CheckInvariantCtx(context.Background(), sys, ev, explicit.Options{}); err == nil {
		t.Error("CheckInvariantCtx accepted Eventually")
	}
	if _, err := explicit.CheckEventuallyCtx(context.Background(), sys, inv, explicit.Options{}); err == nil {
		t.Error("CheckEventuallyCtx accepted Invariant")
	}
}

func TestCheckCTLInPackage(t *testing.T) {
	sys, v := chain(8, 7)
	typ := gcl.IntType("c", 8)
	f := mc.CTLEF(mc.CTLAtom(gcl.Eq(gcl.X(v), gcl.C(typ, 7))))
	res, err := explicit.CheckCTLCtx(context.Background(), sys, "ef-top", f, explicit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Holds {
		t.Errorf("EF top: %v", res.Verdict)
	}
}
