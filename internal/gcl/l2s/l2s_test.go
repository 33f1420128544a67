package l2s_test

import (
	"context"
	"testing"

	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/l2s"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/explicit"
)

// counter builds a saturating counter. Without the stall AF(x=5) holds;
// with the nondeterministic stall a path may idle forever below 5, so
// AF(x=5) is violated by a stall lasso.
func counter(stall bool) (*gcl.System, mc.Property) {
	s := gcl.NewSystem("counter")
	m := s.Module("m")
	t := gcl.IntType("c6", 6)
	x := m.Var("x", t, gcl.InitConst(0))
	if stall {
		go_ := m.Choice("go", gcl.BoolType())
		m.Cmd("step", gcl.X(go_), gcl.Set(x, gcl.AddSat(gcl.X(x), 1)))
		m.Cmd("stall", gcl.Not(gcl.X(go_)), gcl.Keep(x))
	} else {
		m.Cmd("step", gcl.True(), gcl.Set(x, gcl.AddSat(gcl.X(x), 1)))
	}
	s.MustFinalize()
	return s, mc.Property{Name: "reach5", Kind: mc.Eventually, Pred: gcl.Eq(gcl.X(x), gcl.C(t, 5))}
}

// twoMod is a two-module system with a fallback command and an
// inter-module read, exercising the clone path: a ticker wraps mod 4 and
// a follower latches an error flag via fallback when the ticker is 3.
// AF(err) holds — the ticker hits 3 on every path.
func twoMod() (*gcl.System, mc.Property) {
	s := gcl.NewSystem("twomod")
	tick := s.Module("tick")
	t4 := gcl.IntType("c4", 4)
	c := tick.Var("c", t4, gcl.InitConst(0))
	tick.Cmd("tick", gcl.True(), gcl.Set(c, gcl.AddMod(gcl.X(c), 1)))
	fol := s.Module("follow")
	errv := fol.Bool("err", gcl.InitConst(0))
	fol.Cmd("hold", gcl.Ne(gcl.X(c), gcl.C(t4, 3)), gcl.Keep(errv))
	fol.Fallback("trip", gcl.SetC(errv, 1))
	s.MustFinalize()
	return s, mc.Property{Name: "err-eventually", Kind: mc.Eventually, Pred: gcl.X(errv)}
}

func TestTransformShape(t *testing.T) {
	sys, prop := counter(true)
	prod, err := l2s.Transform(sys, prop.Pred)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Source() != sys {
		t.Error("product lost its source")
	}
	// One monitor module on top of the source's; shadows for every source
	// state variable plus saved/seen.
	if got, want := len(prod.Sys.Modules()), len(sys.Modules())+1; got != want {
		t.Errorf("product has %d modules, want %d", got, want)
	}
	wantVars := len(sys.StateVars())*2 + 2
	if got := len(prod.Sys.StateVars()); got != wantVars {
		t.Errorf("product has %d state vars, want %d", got, wantVars)
	}
	// The product is a fresh system: no source var appears in it.
	prodVars := map[*gcl.Var]bool{}
	for _, v := range prod.Sys.Vars() {
		prodVars[v] = true
	}
	for _, v := range sys.Vars() {
		if prodVars[v] {
			t.Fatalf("source variable %s aliased into the product", v.Name)
		}
		if prod.ProductVar(v) == nil || !prodVars[prod.ProductVar(v)] {
			t.Fatalf("source variable %s has no product clone", v.Name)
		}
	}
}

func TestTransformRejectsBadPredicates(t *testing.T) {
	sys, _ := counter(true)
	var ch *gcl.Var
	for _, v := range sys.Vars() {
		if v.Kind == gcl.KindChoice {
			ch = v
		}
	}
	if _, err := l2s.Transform(sys, gcl.X(ch)); err == nil {
		t.Error("choice-var predicate accepted")
	}
	st := sys.StateVars()[0]
	if _, err := l2s.Transform(sys, gcl.XN(st)); err == nil {
		t.Error("primed predicate accepted")
	}
}

// TestProductAgreesWithExplicit is the core differential check: on each
// fixture the explicit engine's AF verdict (EG fixpoint over the full
// state graph) must match the invariant verdict of the product, via both
// IC3 and k-induction, and every refutation must project to a concrete
// lasso that replays on the source interpreter.
func TestProductAgreesWithExplicit(t *testing.T) {
	type fixture struct {
		name string
		sys  *gcl.System
		prop mc.Property
	}
	mk := func(name string, sys *gcl.System, prop mc.Property) fixture {
		return fixture{name, sys, prop}
	}
	sat, satProp := counter(false)
	stall, stallProp := counter(true)
	two, twoProp := twoMod()
	for _, f := range []fixture{
		mk("counter-holds", sat, satProp),
		mk("counter-stall-violated", stall, stallProp),
		mk("twomod-fallback-holds", two, twoProp),
	} {
		t.Run(f.name, func(t *testing.T) {
			oracle, err := explicit.CheckEventuallyCtx(context.Background(), f.sys, f.prop, explicit.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Check(context.Background(), f.sys, f.prop, core.EngineIC3, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantHolds := oracle.Verdict == mc.Holds
			if got := res.Verdict == mc.Holds; got != wantHolds {
				t.Errorf("ic3 product verdict %v, explicit oracle %v", res.Verdict, oracle.Verdict)
			}
			ind, err := core.Check(context.Background(), f.sys, f.prop, core.EngineInduction, core.Options{BMCDepth: 40})
			if err != nil {
				t.Fatal(err)
			}
			if got := ind.Verdict == mc.Holds; got != wantHolds {
				t.Errorf("induction product verdict %v, explicit oracle %v", ind.Verdict, oracle.Verdict)
			}
			for eng, r := range map[string]*mc.Result{"ic3": res, "induction": ind} {
				if r.Verdict != mc.Violated {
					continue
				}
				checkLasso(t, eng, f.sys, f.prop, r.Trace)
			}
		})
	}
}

// checkLasso replays a projected lasso on the source interpreter: initial
// state, valid steps, the back-edge, and pred false everywhere.
func checkLasso(t *testing.T, eng string, sys *gcl.System, prop mc.Property, tr *mc.Trace) {
	t.Helper()
	if tr == nil || tr.LoopsTo < 0 || tr.LoopsTo >= len(tr.States) {
		t.Fatalf("%s: malformed lasso trace %+v", eng, tr)
	}
	vs := sys.StateVars()
	st := gcl.NewStepper(sys)
	isInit := false
	st.InitStates(func(s gcl.State) bool {
		if gcl.Key(s, vs) == gcl.Key(tr.States[0], vs) {
			isInit = true
			return false
		}
		return true
	})
	if !isInit {
		t.Errorf("%s: lasso does not start in an initial state", eng)
	}
	step := func(from, to gcl.State, what string) {
		found := false
		st.Successors(from, func(s gcl.State) bool {
			if gcl.Key(s, vs) == gcl.Key(to, vs) {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Errorf("%s: %s is not a valid transition", eng, what)
		}
	}
	for i := 1; i < len(tr.States); i++ {
		step(tr.States[i-1], tr.States[i], "stem step")
	}
	step(tr.States[len(tr.States)-1], tr.States[tr.LoopsTo], "back-edge")
	for i, s := range tr.States {
		if gcl.Holds(prop.Pred, s) {
			t.Errorf("%s: lasso state %d satisfies the eventuality predicate", eng, i)
		}
	}
}

// TestBMCDiameterCompleteness: on the stall-free counter the recurrence
// diameter is 5 (x climbs 0..5 and every longer ¬pred path repeats a
// state), so plain BMC now returns a definitive Holds instead of
// HoldsBounded once the diameter query closes.
func TestBMCDiameterCompleteness(t *testing.T) {
	sys, prop := counter(false)
	res, err := bmc.CheckEventuallyRefuteCtx(context.Background(), sys.Compile(), prop, bmc.Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Holds {
		t.Errorf("verdict %v, want definitive holds at the recurrence diameter", res.Verdict)
	}
	if res.Stats.Iterations >= 20 {
		t.Errorf("diameter closure should fire well before MaxDepth, got depth %d", res.Stats.Iterations)
	}
}

func TestProjectLassoRejectsGarbage(t *testing.T) {
	sys, prop := counter(true)
	prod, err := l2s.Transform(sys, prop.Pred)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prod.ProjectLasso(nil); err == nil {
		t.Error("empty trace accepted")
	}
	// A trace that never saved: all-zero product states.
	n := len(prod.Sys.Vars())
	sts := []gcl.State{make(gcl.State, n), make(gcl.State, n)}
	if _, _, err := prod.ProjectLasso(sts); err == nil {
		t.Error("saveless trace accepted")
	}
}
