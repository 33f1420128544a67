package bmc_test

import (
	"context"
	"testing"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/symbolic"
)

// saturatingCounter: increments to top and stays there.
func saturatingCounter(card int) (*gcl.System, *gcl.Var) {
	sys := gcl.NewSystem("satcounter")
	m := sys.Module("m")
	typ := gcl.IntType("c", card)
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("inc", gcl.B(true), gcl.Set(v, gcl.AddSat(gcl.X(v), 1)))
	sys.MustFinalize()
	return sys, v
}

// stubbornPair: one module may loop below the threshold forever.
func stubbornPair() (*gcl.System, *gcl.Var, *gcl.Var) {
	sys := gcl.NewSystem("stubborn")
	typ := gcl.IntType("c", 8)
	a := sys.Module("a")
	b := sys.Module("b")
	av := a.Var("x", typ, gcl.InitConst(0))
	bv := b.Var("y", typ, gcl.InitConst(0))
	a.Cmd("inc", gcl.Lt(gcl.X(av), gcl.C(typ, 7)), gcl.Set(av, gcl.AddSat(gcl.X(av), 1)))
	a.Cmd("top", gcl.Eq(gcl.X(av), gcl.C(typ, 7)))
	b.Cmd("follow", gcl.B(true), gcl.Set(bv, gcl.XN(av)))
	b.Cmd("stall", gcl.Lt(gcl.X(bv), gcl.C(typ, 3))) // may hold forever below 3
	sys.MustFinalize()
	return sys, av, bv
}

func TestLassoRefutesLiveness(t *testing.T) {
	sys, _, bv := stubbornPair()
	comp := sys.Compile()
	prop := mc.Property{Name: "y-reaches-7", Kind: mc.Eventually,
		Pred: gcl.Eq(gcl.X(bv), gcl.C(gcl.IntType("c", 8), 7))}

	res, err := bmc.CheckEventuallyRefuteCtx(context.Background(), comp, prop, bmc.Options{MaxDepth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("verdict %v, want violated", res.Verdict)
	}
	tr := res.Trace
	if tr == nil || tr.LoopsTo < 0 {
		t.Fatal("expected a lasso trace")
	}
	// Every lasso state must violate pred, and the loop must be a real
	// transition cycle.
	for i, st := range tr.States {
		if gcl.Holds(prop.Pred, st) {
			t.Errorf("lasso state %d satisfies pred", i)
		}
	}
	stepper := gcl.NewStepper(sys)
	vars := sys.StateVars()
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
			t.Fatalf("lasso step %d invalid", i)
		}
	}
	loop := gcl.Key(tr.States[tr.LoopsTo], vars)
	ok := false
	stepper.Successors(tr.States[tr.Len()-1], func(next gcl.State) bool {
		if gcl.Key(next, vars) == loop {
			ok = true
			return false
		}
		return true
	})
	if !ok {
		t.Error("lasso does not close")
	}

	// Cross-check with the symbolic engine.
	eng, err := symbolic.New(comp, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	symRes, err := eng.CheckEventuallyCtx(context.Background(), prop)
	if err != nil {
		t.Fatal(err)
	}
	if symRes.Verdict != mc.Violated {
		t.Error("symbolic engine disagrees")
	}
}

// TestLassoDiameterUpgradeOnTrueLiveness: with the depth budget past the
// recurrence diameter the lasso search upgrades to a definitive holds
// (every ¬p-path long enough must revisit a state); below the diameter
// the verdict stays honestly bounded.
func TestLassoDiameterUpgradeOnTrueLiveness(t *testing.T) {
	sys, v := saturatingCounter(6)
	prop := mc.Property{Name: "v-reaches-top", Kind: mc.Eventually,
		Pred: gcl.Eq(gcl.X(v), gcl.C(gcl.IntType("c", 6), 5))}
	res, err := bmc.CheckEventuallyRefuteCtx(context.Background(), sys.Compile(), prop, bmc.Options{MaxDepth: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Holds {
		t.Errorf("verdict %v, want a definitive holds via the recurrence diameter", res.Verdict)
	}
	if res.Stats.Iterations >= 15 {
		t.Errorf("diameter closed at depth %d, expected well under the budget", res.Stats.Iterations)
	}
	shallow, err := bmc.CheckEventuallyRefuteCtx(context.Background(), sys.Compile(), prop, bmc.Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.Verdict != mc.HoldsBounded {
		t.Errorf("verdict %v, want holds-bounded below the recurrence diameter", shallow.Verdict)
	}
}

func TestInductionProvesInvariant(t *testing.T) {
	sys, v := saturatingCounter(8)
	// v <= 7 is trivially inductive (domain bound).
	prop := mc.Property{Name: "v-le-7", Kind: mc.Invariant,
		Pred: gcl.Le(gcl.X(v), gcl.C(gcl.IntType("c", 8), 7))}
	res, err := bmc.CheckInvariantInductionCtx(context.Background(), sys.Compile(), prop, bmc.InductionOptions{MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Holds {
		t.Errorf("verdict %v, want an unbounded proof", res.Verdict)
	}
}

func TestInductionFindsViolation(t *testing.T) {
	sys, v := saturatingCounter(16)
	prop := mc.Property{Name: "v-lt-5", Kind: mc.Invariant,
		Pred: gcl.Lt(gcl.X(v), gcl.C(gcl.IntType("c", 16), 5))}
	res, err := bmc.CheckInvariantInductionCtx(context.Background(), sys.Compile(), prop, bmc.InductionOptions{MaxK: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("verdict %v, want violated", res.Verdict)
	}
	if res.Trace.Len() != 6 { // 0,1,2,3,4,5
		t.Errorf("trace length %d, want 6", res.Trace.Len())
	}
}

// TestInductionNeedsSimplePath: "v never revisits 0 after leaving" style
// properties need the simple-path strengthening; plain induction stalls
// while the strengthened prover converges.
func TestInductionNeedsSimplePath(t *testing.T) {
	// A counter that wraps within {1..6} after leaving 0: G(v <= 6).
	sys := gcl.NewSystem("loop")
	m := sys.Module("m")
	typ := gcl.IntType("c", 8)
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("step", gcl.B(true),
		gcl.Set(v, gcl.Ite(gcl.Ge(gcl.X(v), gcl.C(typ, 6)), gcl.C(typ, 1), gcl.AddSat(gcl.X(v), 1))))
	sys.MustFinalize()
	prop := mc.Property{Name: "v-le-6", Kind: mc.Invariant,
		Pred: gcl.Le(gcl.X(v), gcl.C(typ, 6))}

	plain, err := bmc.CheckInvariantInductionCtx(context.Background(), sys.Compile(), prop, bmc.InductionOptions{MaxK: 6})
	if err != nil {
		t.Fatal(err)
	}
	strengthened, err := bmc.CheckInvariantInductionCtx(context.Background(), sys.Compile(), prop,
		bmc.InductionOptions{MaxK: 10, SimplePath: true})
	if err != nil {
		t.Fatal(err)
	}
	if strengthened.Verdict != mc.Holds {
		t.Errorf("simple-path induction should prove the invariant, got %v", strengthened.Verdict)
	}
	// The plain prover must never be WRONG (Holds or HoldsBounded both fine).
	if plain.Verdict == mc.Violated {
		t.Error("plain induction fabricated a violation")
	}
}

// TestInductionAgreesWithSymbolicOnStartupSanity proves a real TTA lemma
// by induction where possible and otherwise stays sound.
func TestInductionRejectsWrongKinds(t *testing.T) {
	sys, _ := saturatingCounter(4)
	ev := mc.Property{Name: "p", Kind: mc.Eventually, Pred: gcl.True()}
	if _, err := bmc.CheckInvariantInductionCtx(context.Background(), sys.Compile(), ev, bmc.InductionOptions{MaxK: 2}); err == nil {
		t.Error("induction accepted an Eventually property")
	}
	inv := mc.Property{Name: "p", Kind: mc.Invariant, Pred: gcl.True()}
	if _, err := bmc.CheckInvariantInductionCtx(context.Background(), sys.Compile(), inv, bmc.InductionOptions{}); err == nil {
		t.Error("induction accepted MaxK=0")
	}
	if _, err := bmc.CheckEventuallyRefuteCtx(context.Background(), sys.Compile(), inv, bmc.Options{MaxDepth: 2}); err == nil {
		t.Error("lasso refutation accepted an Invariant property")
	}
}
