package opt_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/opt"
)

// reachableKeys explores sys exhaustively and returns the set of reachable
// states projected onto vars (gcl.Key over the given variable order), plus
// the projected deadlock states.
func reachableKeys(t *testing.T, sys *gcl.System, vars []*gcl.Var) (states, deadlocks map[string]bool) {
	t.Helper()
	st := gcl.NewStepper(sys)
	all := sys.StateVars()
	states = map[string]bool{}
	deadlocks = map[string]bool{}
	seen := map[string]bool{}
	var frontier []gcl.State
	push := func(s gcl.State) {
		k := gcl.Key(s, all)
		if !seen[k] {
			seen[k] = true
			frontier = append(frontier, s.Clone())
		}
	}
	st.InitStates(func(s gcl.State) bool {
		push(s)
		return true
	})
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		states[gcl.Key(cur, vars)] = true
		deadlock := st.Successors(cur, func(s gcl.State) bool {
			push(s)
			return true
		})
		if deadlock {
			deadlocks[gcl.Key(cur, vars)] = true
		}
	}
	return states, deadlocks
}

// checkBisimulation verifies that the optimized system's reachable
// projected state set and deadlock set match the source system's (over the
// kept variables). This is the observable-equivalence ground truth the
// pipeline must preserve.
func checkBisimulation(t *testing.T, o *opt.Optimized) {
	t.Helper()
	kept := o.KeptVars()
	var oldVars, newVars []*gcl.Var
	byName := map[string]*gcl.Var{}
	for _, v := range o.Src().StateVars() {
		byName[v.Module.Name+"."+v.Name] = v
	}
	newByName := map[string]*gcl.Var{}
	for _, v := range o.Sys.StateVars() {
		newByName[v.Module.Name+"."+v.Name] = v
	}
	for _, name := range kept {
		oldVars = append(oldVars, byName[name])
		newVars = append(newVars, newByName[name])
	}
	srcStates, srcDead := reachableKeys(t, o.Src(), oldVars)
	optStates, optDead := reachableKeys(t, o.Sys, newVars)
	if !reflect.DeepEqual(srcStates, optStates) {
		t.Errorf("projected reachable sets differ: src %d states, opt %d states",
			len(srcStates), len(optStates))
	}
	if !reflect.DeepEqual(srcDead, optDead) {
		t.Errorf("projected deadlock sets differ: src %d, opt %d", len(srcDead), len(optDead))
	}
}

// counterSystem: a counter guarded below a threshold, a pinned variable, a
// dead command, and a module outside the cone.
func counterSystem(t *testing.T) (*gcl.System, map[string]*gcl.Var) {
	t.Helper()
	sys := gcl.NewSystem("counter")
	vars := map[string]*gcl.Var{}

	t8 := gcl.IntType("t8", 8)
	a := sys.Module("a")
	x := a.Var("x", t8, gcl.InitConst(0))
	vars["x"] = x
	a.Cmd("inc", gcl.Lt(gcl.X(x), gcl.C(t8, 3)), gcl.Set(x, gcl.AddSat(gcl.X(x), 1)))
	a.Fallback("stay")

	b := sys.Module("b")
	y := b.Var("y", t8, gcl.InitConst(5))
	vars["y"] = y
	b.Cmd("keep", gcl.True(), gcl.Set(y, gcl.X(y)))
	b.Cmd("dead", gcl.Ne(gcl.X(y), gcl.C(t8, 5)), gcl.Set(y, gcl.C(t8, 0)))

	c := sys.Module("c")
	z := c.Var("z", gcl.BoolType(), gcl.InitConst(0))
	vars["z"] = z
	c.Cmd("set", gcl.Eq(gcl.X(x), gcl.C(t8, 3)), gcl.Set(z, gcl.True()))
	c.Fallback("idle")

	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	return sys, vars
}

func TestConstPropAndSlice(t *testing.T) {
	sys, vars := counterSystem(t)
	o, err := opt.Optimize(sys, opt.Options{Preds: []gcl.Expr{gcl.Lt(gcl.X(vars["x"]), gcl.C(vars["x"].Type, 4))}})
	if err != nil {
		t.Fatal(err)
	}
	rep := o.Report
	// y is pinned to 5, its module loses both commands (keep's update is
	// dropped, dead's guard folds false) and is sliced away; z is outside
	// the cone of the predicate over x and module c is non-blocking.
	if got := o.KeptVars(); !reflect.DeepEqual(got, []string{"a.x"}) {
		t.Fatalf("kept vars = %v, want [a.x]", got)
	}
	if !contains(rep.ConstVars, "y=5") {
		t.Errorf("ConstVars = %v, want to include y=5", rep.ConstVars)
	}
	if !contains(rep.DeadCmds, "b.dead") {
		t.Errorf("DeadCmds = %v, want to include b.dead", rep.DeadCmds)
	}
	if rep.VarsDropped() != 2 {
		t.Errorf("VarsDropped = %d, want 2", rep.VarsDropped())
	}
	// x only reaches 0..3 under the inc guard: 8 values → 4, 3 bits → 2.
	if !contains(rep.Narrowed, "x:8→4") {
		t.Errorf("Narrowed = %v, want x:8→4", rep.Narrowed)
	}
	if rep.BitsAfter != 2 {
		t.Errorf("BitsAfter = %d, want 2", rep.BitsAfter)
	}
	checkBisimulation(t, o)
}

func TestBlockingModuleIsKept(t *testing.T) {
	sys := gcl.NewSystem("blocking")
	t4 := gcl.IntType("t4", 4)
	a := sys.Module("a")
	x := a.Var("x", t4, gcl.InitConst(0))
	a.Cmd("inc", gcl.Lt(gcl.X(x), gcl.C(t4, 3)), gcl.Set(x, gcl.AddSat(gcl.X(x), 1)))
	a.Fallback("stay")
	// b deadlocks the whole system once w reaches 2; it is outside the
	// cone of any predicate over x but must be kept for its blocking.
	b := sys.Module("b")
	w := b.Var("w", t4, gcl.InitConst(0))
	b.Cmd("step", gcl.Lt(gcl.X(w), gcl.C(t4, 2)), gcl.Set(w, gcl.AddSat(gcl.X(w), 1)))
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	o, err := opt.Optimize(sys, opt.Options{Preds: []gcl.Expr{gcl.Lt(gcl.X(x), gcl.C(t4, 3))}})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.KeptVars(); !contains(got, "b.w") {
		t.Fatalf("kept vars = %v, want w kept (module b can block)", got)
	}
	if len(o.Report.DroppedMods) != 0 {
		t.Errorf("DroppedMods = %v, want none", o.Report.DroppedMods)
	}
	checkBisimulation(t, o)
}

func TestNarrowWithGuardRefinement(t *testing.T) {
	// x stays in 0..2 at firing states by its guard, so AddMod(x, 1) never
	// reaches the wrap point of either the declared card 4 or the narrowed
	// card 3 — guard refinement must let both x and y narrow.
	sys := gcl.NewSystem("refine")
	t4 := gcl.IntType("t4", 4)
	a := sys.Module("a")
	x := a.Var("x", t4, gcl.InitConst(0))
	y := a.Var("y", t4, gcl.InitConst(0))
	a.Cmd("step", gcl.Lt(gcl.X(x), gcl.C(t4, 2)),
		gcl.Set(x, gcl.AddSat(gcl.X(x), 1)),
		gcl.Set(y, gcl.AddMod(gcl.X(x), 1)))
	a.Fallback("stay")
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	o, err := opt.Optimize(sys, opt.Options{Preds: []gcl.Expr{gcl.Le(gcl.X(y), gcl.X(x))}})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Report.Narrowed; !reflect.DeepEqual(got, []string{"x:4→3", "y:4→3"}) {
		t.Errorf("Narrowed = %v, want x and y at card 3", got)
	}
	checkBisimulation(t, o)
}

func TestNarrowKeepsBoolType(t *testing.T) {
	// flag is written (so constant propagation cannot pin it) but only
	// ever to false, so its reachable interval is {false}. Narrowing must
	// not re-type it to a one-value domain: the boolean operators require
	// the shared bool type by identity, and flag is read as an Ite
	// condition. This is the hub-model shape that once made the campaign's
	// default -opt path panic with "Ite condition requires boolean
	// operands, got bool[<1]".
	sys := gcl.NewSystem("boolnarrow")
	t4 := gcl.IntType("t4", 4)
	a := sys.Module("a")
	flag := a.Var("flag", gcl.BoolType(), gcl.InitConst(0))
	x := a.Var("x", t4, gcl.InitConst(0))
	a.Cmd("step", gcl.True(),
		gcl.Set(flag, gcl.C(gcl.BoolType(), 0)),
		gcl.Set(x, gcl.Ite(gcl.X(flag), gcl.C(t4, 3), gcl.AddSat(gcl.X(x), 1))))
	a.Fallback("stay")
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	o, err := opt.Optimize(sys, opt.Options{Preds: []gcl.Expr{gcl.Le(gcl.X(x), gcl.C(t4, 3))}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range o.Report.Narrowed {
		if strings.HasPrefix(n, "flag:") {
			t.Errorf("bool variable narrowed: %v", o.Report.Narrowed)
		}
	}
	checkBisimulation(t, o)
}

func TestNarrowDemotionOnAddBoundary(t *testing.T) {
	// x is narrowed to card 6 by its guard (values 0..5), but AddMod(x, 1)
	// is read at states where x = 5: under the narrowed type the wrap point
	// would move (AddMod_6(5,1) = 0 vs AddMod_8(5,1) = 6), so the demotion
	// loop must restore x to its declared type. y itself feeds no Add and
	// stays narrowed.
	sys := gcl.NewSystem("demote")
	t8 := gcl.IntType("t8", 8)
	a := sys.Module("a")
	x := a.Var("x", t8, gcl.InitConst(0))
	a.Cmd("inc", gcl.Lt(gcl.X(x), gcl.C(t8, 5)), gcl.Set(x, gcl.AddSat(gcl.X(x), 1)))
	a.Fallback("stay")
	b := sys.Module("b")
	y := b.Var("y", t8, gcl.InitConst(0))
	b.Cmd("copy", gcl.True(), gcl.Set(y, gcl.AddMod(gcl.X(x), 1)))
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	o, err := opt.Optimize(sys, opt.Options{Preds: []gcl.Expr{gcl.Le(gcl.X(y), gcl.C(t8, 7))}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range o.Report.Narrowed {
		if n[0] == 'x' {
			t.Errorf("x must not be narrowed (AddMod read at the boundary): %v", o.Report.Narrowed)
		}
	}
	if !contains(o.Report.Narrowed, "y:8→7") {
		t.Errorf("Narrowed = %v, want y:8→7", o.Report.Narrowed)
	}
	checkBisimulation(t, o)
}

func TestInflateFiniteTrace(t *testing.T) {
	sys, vars := counterSystem(t)
	pred := gcl.Lt(gcl.X(vars["x"]), gcl.C(vars["x"].Type, 2))
	o, err := opt.Optimize(sys, opt.Options{Preds: []gcl.Expr{pred}})
	if err != nil {
		t.Fatal(err)
	}
	// Build an optimized-system run 0,1,2 by hand and inflate it.
	nx := o.Sys.StateVars()[0]
	mk := func(v int) gcl.State {
		s := make(gcl.State, len(o.Sys.Vars()))
		s.Set(nx, v)
		return s
	}
	full, loops, err := o.InflateStates([]gcl.State{mk(0), mk(1), mk(2)}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if loops != -1 || len(full) != 3 {
		t.Fatalf("inflated len=%d loops=%d, want 3,-1", len(full), loops)
	}
	for i, s := range full {
		if s.Get(vars["x"]) != i {
			t.Errorf("step %d: x=%d, want %d", i, s.Get(vars["x"]), i)
		}
		if s.Get(vars["y"]) != 5 {
			t.Errorf("step %d: dropped var y=%d, want init 5", i, s.Get(vars["y"]))
		}
	}
	// Validate the inflated trace is a real source run.
	st := gcl.NewStepper(sys)
	all := sys.StateVars()
	for i := 1; i < len(full); i++ {
		ok := false
		st.Successors(full[i-1], func(s gcl.State) bool {
			if gcl.Key(s, all) == gcl.Key(full[i], all) {
				ok = true
				return false
			}
			return true
		})
		if !ok {
			t.Fatalf("inflated step %d is not a source transition", i)
		}
	}
}

func TestInflateLasso(t *testing.T) {
	// mod a: x cycles 0→1→2→0 (AddMod); the optimized trace is the same
	// cycle; dropped mod d toggles a bool, so the source lasso may need
	// two tours to close.
	sys := gcl.NewSystem("lasso")
	t3 := gcl.IntType("t3", 3)
	a := sys.Module("a")
	x := a.Var("x", t3, gcl.InitConst(0))
	a.Cmd("spin", gcl.True(), gcl.Set(x, gcl.AddMod(gcl.X(x), 1)))
	d := sys.Module("d")
	fl := d.Var("fl", gcl.BoolType(), gcl.InitConst(0))
	d.Cmd("toggle", gcl.True(), gcl.Set(fl, gcl.Not(gcl.X(fl))))
	if err := sys.Finalize(); err != nil {
		t.Fatal(err)
	}
	o, err := opt.Optimize(sys, opt.Options{Preds: []gcl.Expr{gcl.Eq(gcl.X(x), gcl.C(t3, 0))}})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.KeptVars(); !reflect.DeepEqual(got, []string{"a.x"}) {
		t.Fatalf("kept vars = %v, want [a.x]", got)
	}
	nx := o.Sys.StateVars()[0]
	mk := func(v int) gcl.State {
		s := make(gcl.State, len(o.Sys.Vars()))
		s.Set(nx, v)
		return s
	}
	// Lasso 0,1,2 looping to 0: the source needs 6 states to close (x
	// period 3, fl period 2).
	full, loops, err := o.InflateStates([]gcl.State{mk(0), mk(1), mk(2)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loops < 0 || loops >= len(full) {
		t.Fatalf("bad loop index %d (len %d)", loops, len(full))
	}
	// Verify lasso: consecutive transitions plus the back edge.
	st := gcl.NewStepper(sys)
	all := sys.StateVars()
	isStep := func(from, to gcl.State) bool {
		ok := false
		st.Successors(from, func(s gcl.State) bool {
			if gcl.Key(s, all) == gcl.Key(to, all) {
				ok = true
				return false
			}
			return true
		})
		return ok
	}
	for i := 1; i < len(full); i++ {
		if !isStep(full[i-1], full[i]) {
			t.Fatalf("inflated step %d is not a source transition", i)
		}
	}
	if !isStep(full[len(full)-1], full[loops]) {
		t.Fatal("inflated lasso back edge is not a source transition")
	}
	// The x-projection must still follow the optimized cycle.
	for i, s := range full {
		if got := s.Get(x); got != i%3 {
			t.Errorf("step %d: x=%d, want %d", i, got, i%3)
		}
	}
}

func TestConeVarsAndDeadAfterConstProp(t *testing.T) {
	sys, vars := counterSystem(t)
	cone := opt.ConeVars(sys, gcl.Eq(gcl.X(vars["z"]), gcl.C(gcl.BoolType(), 1)))
	if !cone[vars["z"]] || !cone[vars["x"]] {
		t.Errorf("cone of z must include z and x (guard dependency)")
	}
	if cone[vars["y"]] {
		t.Errorf("cone of z must not include y")
	}
	dead := opt.DeadAfterConstProp(sys)
	found := false
	for _, d := range dead {
		if d.Module == "b" && d.Command == "dead" {
			found = true
			if d.Witness == "" {
				t.Error("dead command witness is empty")
			}
		}
	}
	if !found {
		t.Errorf("DeadAfterConstProp = %v, want b.dead", dead)
	}
}

func TestOptPreservesPredsOrderAndEval(t *testing.T) {
	sys, vars := counterSystem(t)
	p1 := gcl.Lt(gcl.X(vars["x"]), gcl.C(vars["x"].Type, 2))
	p2 := gcl.Eq(gcl.X(vars["x"]), gcl.C(vars["x"].Type, 0))
	o, err := opt.Optimize(sys, opt.Options{Preds: []gcl.Expr{p1, p2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Preds) != 2 {
		t.Fatalf("got %d rewritten preds, want 2", len(o.Preds))
	}
	// The rewritten predicates must agree with the originals on every
	// reachable optimized state (projected back through the var map).
	st := gcl.NewStepper(o.Sys)
	st.InitStates(func(s gcl.State) bool {
		if !gcl.Holds(o.Preds[1], s) {
			t.Error("initial optimized state must satisfy x==0")
		}
		return true
	})
}

func TestNoPassesIsIdentity(t *testing.T) {
	sys, vars := counterSystem(t)
	o, err := opt.Optimize(sys, opt.Options{
		Preds:   []gcl.Expr{gcl.Le(gcl.X(vars["x"]), gcl.C(vars["x"].Type, 7))},
		NoConst: true, NoSlice: true, NoNarrow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Report.VarsDropped() != 0 || o.Report.CmdsDropped() != 0 || o.Report.BitsSaved() != 0 {
		t.Errorf("identity pipeline changed the system: %s", o.Report.Summary())
	}
	checkBisimulation(t, o)
}

func contains(xs []string, want string) bool {
	i := sort.SearchStrings(xs, want)
	return i < len(xs) && xs[i] == want
}
