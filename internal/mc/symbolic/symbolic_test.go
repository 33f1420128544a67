package symbolic_test

import (
	"context"
	"testing"
	"testing/quick"

	"ttastartup/internal/bdd"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/symbolic"
)

// ringSystem: two interacting modulo counters with nondeterminism.
func ringSystem() (*gcl.System, *gcl.Var, *gcl.Var) {
	sys := gcl.NewSystem("ring")
	typ := gcl.IntType("c", 5)
	a := sys.Module("a")
	b := sys.Module("b")
	av := a.Var("x", typ, gcl.InitConst(0))
	bv := b.Var("y", typ, gcl.InitConst(2))
	a.Cmd("step", gcl.True(), gcl.Set(av, gcl.AddMod(gcl.X(av), 1)))
	a.Cmd("skip", gcl.True(), gcl.Set(av, gcl.AddMod(gcl.X(av), 2)))
	b.Cmd("track", gcl.True(), gcl.Set(bv, gcl.XN(av)))
	b.Cmd("hold", gcl.Lt(gcl.X(bv), gcl.C(typ, 3)))
	sys.MustFinalize()
	return sys, av, bv
}

// stateOf builds a concrete state.
func stateOf(sys *gcl.System, assign map[*gcl.Var]int) gcl.State {
	st := make(gcl.State, len(sys.Vars()))
	for v, val := range assign {
		st.Set(v, val)
	}
	return st
}

// TestImagePreimageAdjoint checks the Galois connection between the image
// and preimage operators: T ∩ Image({s}) ≠ ∅ ⟺ {s} ∩ Preimage(T) ≠ ∅,
// for random singleton sources and targets.
func TestImagePreimageAdjoint(t *testing.T) {
	sys, av, bv := ringSystem()
	eng, err := symbolic.New(sys.Compile(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Manager()

	f := func(sa, sb, ta, tb uint8) bool {
		src := stateOf(sys, map[*gcl.Var]int{av: int(sa) % 5, bv: int(sb) % 5})
		tgt := stateOf(sys, map[*gcl.Var]int{av: int(ta) % 5, bv: int(tb) % 5})
		srcBDD := eng.StateBDD(src)
		tgtBDD := eng.StateBDD(tgt)
		forward := m.And(eng.Image(srcBDD), tgtBDD) != bdd.False
		backward := m.And(eng.Preimage(tgtBDD), srcBDD) != bdd.False
		return forward == backward
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestImageMatchesStepper: the symbolic image of a singleton equals the
// stepper's successor set.
func TestImageMatchesStepper(t *testing.T) {
	sys, av, bv := ringSystem()
	eng, err := symbolic.New(sys.Compile(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Manager()
	stepper := gcl.NewStepper(sys)

	for sa := range 5 {
		for sb := range 5 {
			src := stateOf(sys, map[*gcl.Var]int{av: sa, bv: sb})
			img := eng.Image(eng.StateBDD(src))
			// Every stepper successor must be in the image, and the image
			// must contain nothing else.
			count := 0
			seen := map[string]bool{}
			vars := sys.StateVars()
			stepper.Successors(src, func(next gcl.State) bool {
				k := gcl.Key(next, vars)
				if !seen[k] {
					seen[k] = true
					count++
					if m.And(img, eng.StateBDD(next)) == bdd.False {
						t.Fatalf("successor missing from image at (%d,%d)", sa, sb)
					}
				}
				return true
			})
			// Compare cardinalities over the two variables' value grid.
			inImage := 0
			for na := range 5 {
				for nb := range 5 {
					cand := stateOf(sys, map[*gcl.Var]int{av: na, bv: nb})
					if m.And(img, eng.StateBDD(cand)) != bdd.False {
						inImage++
					}
				}
			}
			if inImage != count {
				t.Fatalf("image cardinality %d != stepper successors %d at (%d,%d)", inImage, count, sa, sb)
			}
		}
	}
}

// TestReachableIsClosed: the reachable set must be closed under Image and
// contain the initial states.
func TestReachableIsClosed(t *testing.T) {
	sys, _, _ := ringSystem()
	eng, err := symbolic.New(sys.Compile(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reach, err := eng.ReachableCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Manager()
	img := eng.Image(reach)
	if m.Diff(img, reach) != bdd.False {
		t.Error("reachable set not closed under the image operator")
	}
}

// TestFullFlowInPackage exercises reach, counting, invariants, liveness,
// deadlock detection, and CTL end-to-end within the package.
func TestFullFlowInPackage(t *testing.T) {
	sys, av, bv := ringSystem()
	eng, err := symbolic.New(sys.Compile(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	count, err := eng.CountStates()
	if err != nil {
		t.Fatal(err)
	}
	if count.Sign() <= 0 {
		t.Fatal("empty reachable set")
	}

	typ := gcl.IntType("c", 5)
	inv := mc.Property{Name: "y-in-range", Kind: mc.Invariant,
		Pred: gcl.Le(gcl.X(bv), gcl.C(typ, 4))}
	res, err := eng.CheckInvariantCtx(context.Background(), inv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Holds {
		t.Errorf("invariant: %v", res.Verdict)
	}

	bad := mc.Property{Name: "x-avoids-3", Kind: mc.Invariant,
		Pred: gcl.Ne(gcl.X(av), gcl.C(typ, 3))}
	resBad, err := eng.CheckInvariantCtx(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if resBad.Verdict != mc.Violated || resBad.Trace == nil {
		t.Errorf("bad invariant: %v", resBad.Verdict)
	}

	live := mc.Property{Name: "y-reaches-4", Kind: mc.Eventually,
		Pred: gcl.Eq(gcl.X(bv), gcl.C(typ, 4))}
	resLive, err := eng.CheckEventuallyCtx(context.Background(), live)
	if err != nil {
		t.Fatal(err)
	}
	// b may "hold" below 3 forever only while y < 3; x keeps moving and b
	// tracks x nondeterministically — verify agreement with explicit.
	expRes, err := explicit.CheckEventuallyCtx(context.Background(), sys, live, explicit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resLive.Verdict != expRes.Verdict {
		t.Errorf("liveness: symbolic %v explicit %v", resLive.Verdict, expRes.Verdict)
	}

	dl, err := eng.CheckDeadlockFree()
	if err != nil {
		t.Fatal(err)
	}
	if dl.Verdict != mc.Holds {
		t.Errorf("deadlock-free: %v", dl.Verdict)
	}

	ctl, err := eng.CheckCTLCtx(context.Background(), "ef-x3", mc.CTLEF(mc.CTLAtom(gcl.Eq(gcl.X(av), gcl.C(typ, 3)))))
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Verdict != mc.Holds {
		t.Errorf("EF x=3: %v", ctl.Verdict)
	}
}
