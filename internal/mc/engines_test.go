package mc_test

import (
	"context"
	"math/big"
	"testing"

	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/mc/symbolic"
)

// testSystem bundles a system with interesting properties of known truth.
type testSystem struct {
	name  string
	build func() (*gcl.System, []propCase)
}

type propCase struct {
	prop  mc.Property
	holds bool
}

// twoCounters: two modules race; a collision flag is set when both hit the
// same value via a nondeterministic choice — exercises choice vars, cross-
// module primed reads, invariants, and liveness.
func twoCounters() (*gcl.System, []propCase) {
	sys := gcl.NewSystem("twocounters")
	typ := gcl.IntType("c", 6)
	a := sys.Module("a")
	b := sys.Module("b")
	av := a.Var("x", typ, gcl.InitConst(0))
	bv := b.Var("y", typ, gcl.InitConst(1))
	// a counts up, saturating at 5; b copies a's primed value or holds.
	a.Cmd("inc", gcl.Lt(gcl.X(av), gcl.C(typ, 5)), gcl.Set(av, gcl.AddSat(gcl.X(av), 1)))
	a.Cmd("top", gcl.Eq(gcl.X(av), gcl.C(typ, 5)))
	b.Cmd("copy", gcl.B(true), gcl.Set(bv, gcl.XN(av)))
	b.Cmd("hold", gcl.Lt(gcl.X(bv), gcl.C(typ, 3)))
	sys.MustFinalize()

	pInv := mc.Property{Name: "y-le-x-plus1", Kind: mc.Invariant,
		Pred: gcl.Le(gcl.X(bv), gcl.AddSat(gcl.X(av), 1))}
	pBad := mc.Property{Name: "never-both-5", Kind: mc.Invariant,
		Pred: gcl.Not(gcl.And(gcl.Eq(gcl.X(av), gcl.C(typ, 5)), gcl.Eq(gcl.X(bv), gcl.C(typ, 5))))}
	pLive := mc.Property{Name: "x-reaches-5", Kind: mc.Eventually,
		Pred: gcl.Eq(gcl.X(av), gcl.C(typ, 5))}
	pLiveBad := mc.Property{Name: "y-reaches-5", Kind: mc.Eventually,
		Pred: gcl.Eq(gcl.X(bv), gcl.C(typ, 5))}
	return sys, []propCase{
		{pInv, true},
		{pBad, false},     // b can copy a=5
		{pLive, true},     // a must keep incrementing
		{pLiveBad, false}, // b may hold at y<3 forever
	}
}

// tokenRing: three nodes pass a token; exercises enum types and AddMod.
func tokenRing() (*gcl.System, []propCase) {
	sys := gcl.NewSystem("ring")
	pos := gcl.IntType("pos", 3)
	m := sys.Module("ring")
	tok := m.Var("tok", pos, gcl.InitSet(0, 1))
	cnt := m.Var("cnt", gcl.IntType("cnt", 8), gcl.InitConst(0))
	m.Cmd("pass", gcl.B(true),
		gcl.Set(tok, gcl.AddMod(gcl.X(tok), 1)),
		gcl.Set(cnt, gcl.AddSat(gcl.X(cnt), 1)))
	sys.MustFinalize()
	return sys, []propCase{
		{mc.Property{Name: "tok-in-range", Kind: mc.Invariant,
			Pred: gcl.Le(gcl.X(tok), gcl.C(pos, 2))}, true},
		{mc.Property{Name: "cnt-saturates", Kind: mc.Eventually,
			Pred: gcl.Eq(gcl.X(cnt), gcl.C(gcl.IntType("cnt", 8), 7))}, true},
		{mc.Property{Name: "tok-avoids-2", Kind: mc.Invariant,
			Pred: gcl.Ne(gcl.X(tok), gcl.C(pos, 2))}, false},
	}
}

// fallbackFlag: fallback fires after a bounded run and raises a flag.
func fallbackFlag() (*gcl.System, []propCase) {
	sys := gcl.NewSystem("fb")
	typ := gcl.IntType("c", 5)
	m := sys.Module("m")
	v := m.Var("v", typ, gcl.InitConst(0))
	flag := m.Bool("flag", gcl.InitConst(0))
	m.Cmd("inc", gcl.Lt(gcl.X(v), gcl.C(typ, 4)), gcl.Set(v, gcl.AddSat(gcl.X(v), 1)))
	m.Fallback("raise", gcl.SetC(flag, 1))
	sys.MustFinalize()
	return sys, []propCase{
		{mc.Property{Name: "flag-eventually", Kind: mc.Eventually,
			Pred: gcl.Eq(gcl.X(flag), gcl.B(true))}, true},
		{mc.Property{Name: "flag-never", Kind: mc.Invariant,
			Pred: gcl.Eq(gcl.X(flag), gcl.B(false))}, false},
	}
}

func systems() []testSystem {
	return []testSystem{
		{"twoCounters", twoCounters},
		{"tokenRing", tokenRing},
		{"fallbackFlag", fallbackFlag},
	}
}

// verifyTrace replays a finite counterexample trace against the stepper and
// checks that the final state violates the invariant.
func verifyTrace(t *testing.T, sys *gcl.System, prop mc.Property, tr *mc.Trace) {
	t.Helper()
	if tr == nil || tr.Len() == 0 {
		t.Fatal("missing counterexample trace")
	}
	stepper := gcl.NewStepper(sys)
	vars := sys.StateVars()

	// First state must be initial.
	foundInit := false
	first := gcl.Key(tr.States[0], vars)
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

	// Each step must be a valid transition.
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

	if prop.Kind == mc.Invariant {
		if gcl.Holds(prop.Pred, tr.States[tr.Len()-1]) {
			t.Error("final trace state does not violate the invariant")
		}
	}
	if prop.Kind == mc.Eventually && tr.LoopsTo >= 0 {
		// No state on the lasso may satisfy pred.
		for i, st := range tr.States {
			if gcl.Holds(prop.Pred, st) {
				t.Errorf("liveness lasso state %d satisfies pred", i)
			}
		}
		// The loop must close: last state must have the loop target as a successor.
		want := gcl.Key(tr.States[tr.LoopsTo], vars)
		ok := false
		stepper.Successors(tr.States[tr.Len()-1], func(next gcl.State) bool {
			if gcl.Key(next, vars) == want {
				ok = true
				return false
			}
			return true
		})
		if !ok {
			t.Error("lasso does not close")
		}
	}
}

// TestEnginesAgree runs every property through explicit, symbolic, and
// (for invariants) the three SAT engines — bounded, k-induction, IC3 —
// and demands consistent verdicts plus valid counterexamples.
func TestEnginesAgree(t *testing.T) {
	for _, ts := range systems() {
		t.Run(ts.name, func(t *testing.T) {
			sys, cases := ts.build()
			comp := sys.Compile()
			eng, err := symbolic.New(comp, symbolic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, pc := range cases {
				var expRes, symRes *mc.Result
				var err error
				switch pc.prop.Kind {
				case mc.Invariant:
					expRes, err = explicit.CheckInvariantCtx(context.Background(), sys, pc.prop, explicit.Options{})
					if err != nil {
						t.Fatal(err)
					}
					symRes, err = eng.CheckInvariantCtx(context.Background(), pc.prop)
					if err != nil {
						t.Fatal(err)
					}
					bmcRes, err := bmc.CheckInvariantCtx(context.Background(), comp, pc.prop, bmc.Options{MaxDepth: 25})
					if err != nil {
						t.Fatal(err)
					}
					if pc.holds && bmcRes.Verdict != mc.HoldsBounded {
						t.Errorf("%s: bmc verdict %v, want holds-bounded", pc.prop.Name, bmcRes.Verdict)
					}
					if !pc.holds {
						if bmcRes.Verdict != mc.Violated {
							t.Errorf("%s: bmc verdict %v, want violated", pc.prop.Name, bmcRes.Verdict)
						} else {
							verifyTrace(t, sys, pc.prop, bmcRes.Trace)
						}
					}
					// k-induction with simple-path constraints is complete
					// on finite systems: exact verdicts, like IC3 below.
					indRes, err := bmc.CheckInvariantInductionCtx(context.Background(), comp, pc.prop,
						bmc.InductionOptions{MaxK: 60, SimplePath: true})
					if err != nil {
						t.Fatal(err)
					}
					icRes, err := ic3.CheckInvariantCtx(context.Background(), comp, pc.prop, ic3.Options{})
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range []*mc.Result{indRes, icRes} {
						if pc.holds && r.Verdict != mc.Holds {
							t.Errorf("%s: %s verdict %v, want holds (unbounded)",
								pc.prop.Name, r.Stats.Engine, r.Verdict)
						}
						if !pc.holds {
							if r.Verdict != mc.Violated {
								t.Errorf("%s: %s verdict %v, want violated",
									pc.prop.Name, r.Stats.Engine, r.Verdict)
							} else {
								verifyTrace(t, sys, pc.prop, r.Trace)
							}
						}
					}
				case mc.Eventually:
					expRes, err = explicit.CheckEventuallyCtx(context.Background(), sys, pc.prop, explicit.Options{})
					if err != nil {
						t.Fatal(err)
					}
					symRes, err = eng.CheckEventuallyCtx(context.Background(), pc.prop)
					if err != nil {
						t.Fatal(err)
					}
					// The SAT engines decide eventualities through the
					// liveness-to-safety product: exact verdicts, and
					// refutations come back as concrete source lassos.
					indRes, err := core.Check(context.Background(), sys, pc.prop, core.EngineInduction,
						core.Options{BMCDepth: 60})
					if err != nil {
						t.Fatal(err)
					}
					icRes, err := core.Check(context.Background(), sys, pc.prop, core.EngineIC3, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					// Plain BMC is complete here too: the recurrence-diameter
					// fallback upgrades holds-bounded to a definitive holds
					// once the simple-path query closes.
					bmcRes, err := bmc.CheckEventuallyRefuteCtx(context.Background(), comp, pc.prop, bmc.Options{MaxDepth: 80})
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range []*mc.Result{indRes, icRes, bmcRes} {
						if pc.holds && r.Verdict != mc.Holds {
							t.Errorf("%s: %s verdict %v, want holds (unbounded)",
								pc.prop.Name, r.Stats.Engine, r.Verdict)
						}
						if !pc.holds {
							if r.Verdict != mc.Violated {
								t.Errorf("%s: %s verdict %v, want violated",
									pc.prop.Name, r.Stats.Engine, r.Verdict)
							} else if r.Trace.LoopsTo < 0 {
								t.Errorf("%s: %s refutation lacks a lasso back-edge",
									pc.prop.Name, r.Stats.Engine)
							} else {
								verifyTrace(t, sys, pc.prop, r.Trace)
							}
						}
					}
				}
				for _, r := range []*mc.Result{expRes, symRes} {
					wantV := mc.Holds
					if !pc.holds {
						wantV = mc.Violated
					}
					if r.Verdict != wantV {
						t.Errorf("%s [%s]: verdict %v, want %v", pc.prop.Name, r.Stats.Engine, r.Verdict, wantV)
						continue
					}
					if !pc.holds {
						verifyTrace(t, sys, pc.prop, r.Trace)
					}
				}
			}
		})
	}
}

// TestStateCountsAgree compares explicit and symbolic reachable-state
// counts on every test system.
func TestStateCountsAgree(t *testing.T) {
	for _, ts := range systems() {
		t.Run(ts.name, func(t *testing.T) {
			sys, _ := ts.build()
			g, err := explicit.ExploreCtx(context.Background(), sys, explicit.Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := symbolic.New(sys.Compile(), symbolic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			count, err := eng.CountStates()
			if err != nil {
				t.Fatal(err)
			}
			if count.Cmp(big.NewInt(int64(g.NumStates()))) != 0 {
				t.Errorf("symbolic count %v != explicit count %d", count, g.NumStates())
			}
		})
	}
}

// TestDeadlockFreedom checks the symbolic deadlock detector against a
// system with a known deadlock and one without.
func TestDeadlockFreedom(t *testing.T) {
	mk := func(withEscape bool) *gcl.System {
		sys := gcl.NewSystem("dl")
		typ := gcl.IntType("c", 4)
		m := sys.Module("m")
		v := m.Var("v", typ, gcl.InitConst(0))
		m.Cmd("inc", gcl.Lt(gcl.X(v), gcl.C(typ, 2)), gcl.Set(v, gcl.AddSat(gcl.X(v), 1)))
		if withEscape {
			m.Cmd("spin", gcl.Eq(gcl.X(v), gcl.C(typ, 2)))
		}
		sys.MustFinalize()
		return sys
	}
	engGood, err := symbolic.New(mk(true).Compile(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engGood.CheckDeadlockFree()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Holds {
		t.Errorf("escape system reported deadlock")
	}
	engBad, err := symbolic.New(mk(false).Compile(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = engBad.CheckDeadlockFree()
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Errorf("deadlocking system reported deadlock-free")
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Error("deadlock counterexample missing")
	}
}

// TestExplicitGraphDeadlocks checks deadlock reporting in exploration.
func TestExplicitGraphDeadlocks(t *testing.T) {
	sys := gcl.NewSystem("dl2")
	typ := gcl.IntType("c", 4)
	m := sys.Module("m")
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("inc", gcl.Lt(gcl.X(v), gcl.C(typ, 3)), gcl.Set(v, gcl.AddSat(gcl.X(v), 1)))
	sys.MustFinalize()
	g, err := explicit.ExploreCtx(context.Background(), sys, explicit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 4 {
		t.Errorf("states = %d, want 4", g.NumStates())
	}
	if len(g.Deadlocks) != 1 {
		t.Errorf("deadlocks = %d, want 1", len(g.Deadlocks))
	}
}

// TestStateLimit exercises the exploration cap.
func TestStateLimit(t *testing.T) {
	sys := gcl.NewSystem("big")
	typ := gcl.IntType("c", 100)
	m := sys.Module("m")
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("inc", gcl.B(true), gcl.Set(v, gcl.AddMod(gcl.X(v), 1)))
	sys.MustFinalize()
	_, err := explicit.ExploreCtx(context.Background(), sys, explicit.Options{MaxStates: 10})
	if err == nil {
		t.Fatal("expected state-limit error")
	}
}

// TestBMCFindsMinimalDepth verifies the counterexample is shallowest.
func TestBMCFindsMinimalDepth(t *testing.T) {
	sys := gcl.NewSystem("depth")
	typ := gcl.IntType("c", 16)
	m := sys.Module("m")
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("inc", gcl.B(true), gcl.Set(v, gcl.AddSat(gcl.X(v), 1)))
	sys.MustFinalize()
	prop := mc.Property{Name: "v-lt-7", Kind: mc.Invariant,
		Pred: gcl.Lt(gcl.X(v), gcl.C(typ, 7))}
	res, err := bmc.CheckInvariantCtx(context.Background(), sys.Compile(), prop, bmc.Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Trace.Len() != 8 { // states 0..7
		t.Errorf("trace length %d, want 8", res.Trace.Len())
	}
	if res.Stats.Iterations != 7 {
		t.Errorf("violation depth %d, want 7", res.Stats.Iterations)
	}
}

// TestSymbolicTraceIsShortest: BFS layers must give a shortest trace.
func TestSymbolicTraceIsShortest(t *testing.T) {
	sys := gcl.NewSystem("short")
	typ := gcl.IntType("c", 16)
	m := sys.Module("m")
	v := m.Var("v", typ, gcl.InitConst(0))
	m.Cmd("inc", gcl.B(true), gcl.Set(v, gcl.AddSat(gcl.X(v), 1)))
	m.Cmd("jump", gcl.B(true), gcl.Set(v, gcl.AddSat(gcl.X(v), 3)))
	sys.MustFinalize()
	eng, err := symbolic.New(sys.Compile(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prop := mc.Property{Name: "v-lt-9", Kind: mc.Invariant,
		Pred: gcl.Lt(gcl.X(v), gcl.C(typ, 9))}
	res, err := eng.CheckInvariantCtx(context.Background(), prop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Trace.Len() != 4 { // 0 -> 3 -> 6 -> 9
		t.Errorf("trace length %d, want 4", res.Trace.Len())
	}
	verifyTrace(t, sys, prop, res.Trace)
}
