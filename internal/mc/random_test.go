package mc_test

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/mc/symbolic"
)

// randomSystem generates a pseudo-random multi-module guarded-command
// system from a seed: 2-3 modules, small domains, cross-module primed
// reads, choice variables, fallbacks — the full feature surface of the
// modelling language.
func randomSystem(seed int64) (*gcl.System, []*gcl.Var) {
	rng := rand.New(rand.NewSource(seed))
	sys := gcl.NewSystem(fmt.Sprintf("rand%d", seed))
	nmods := 2 + rng.Intn(2)
	var vars []*gcl.Var

	// Declare modules and variables first so commands can reference any
	// of them.
	mods := make([]randModInfo, nmods)
	for mi := range nmods {
		mod := sys.Module(fmt.Sprintf("m%d", mi))
		nvars := 1 + rng.Intn(2)
		info := randModInfo{mod: mod}
		for vi := range nvars {
			card := 2 + rng.Intn(5)
			var init gcl.Init
			switch rng.Intn(3) {
			case 0:
				init = gcl.InitConst(rng.Intn(card))
			case 1:
				init = gcl.InitAny()
			default:
				init = gcl.InitSet(0, card-1)
			}
			v := mod.Var(fmt.Sprintf("v%d", vi), gcl.IntType(fmt.Sprintf("t%d_%d", mi, vi), card), init)
			info.own = append(info.own, v)
			vars = append(vars, v)
		}
		if rng.Intn(2) == 0 {
			info.choice = mod.Choice("ch", gcl.IntType("chT", 2+rng.Intn(3)))
		}
		mods[mi] = info
	}

	// Random expressions over the declared variables.
	var intExpr func(mi, depth int) gcl.Expr
	boolExpr := func(mi, depth int) gcl.Expr { return nil } // forward decl
	intExpr = func(mi, depth int) gcl.Expr {
		pick := rng.Intn(6)
		if depth <= 0 {
			pick = rng.Intn(2)
		}
		switch pick {
		case 0, 1:
			v := vars[rng.Intn(len(vars))]
			// Primed reads only to earlier modules (acyclic evaluation).
			if rng.Intn(3) == 0 && v.Module != mods[mi].mod && moduleIndex(mods, v) < mi {
				return gcl.XN(v)
			}
			if v.Module == mods[mi].mod || rng.Intn(2) == 0 {
				return gcl.X(v)
			}
			return gcl.X(v)
		case 2:
			if ch := mods[mi].choice; ch != nil {
				return gcl.X(ch)
			}
			v := mods[mi].own[0]
			return gcl.X(v)
		case 3:
			e := intExpr(mi, depth-1)
			return gcl.AddSat(e, 1+rng.Intn(2))
		case 4:
			e := intExpr(mi, depth-1)
			return gcl.AddMod(e, rng.Intn(e.Type().Card))
		default:
			return gcl.Ite(boolExpr(mi, depth-1), intExpr(mi, depth-1), intExpr(mi, depth-1))
		}
	}
	boolExpr = func(mi, depth int) gcl.Expr {
		pick := rng.Intn(5)
		if depth <= 0 {
			pick = 0
		}
		switch pick {
		case 0:
			a := intExpr(mi, 0)
			return gcl.Lt(a, gcl.C(a.Type(), rng.Intn(a.Type().Card)+0))
		case 1:
			return gcl.Eq(intExpr(mi, depth-1), intExpr(mi, depth-1))
		case 2:
			return gcl.And(boolExpr(mi, depth-1), boolExpr(mi, depth-1))
		case 3:
			return gcl.Or(boolExpr(mi, depth-1), gcl.Not(boolExpr(mi, depth-1)))
		default:
			return gcl.Le(intExpr(mi, depth-1), intExpr(mi, depth-1))
		}
	}

	// Commands: choice variables may appear in guards only when the
	// module has no fallback.
	for mi, info := range mods {
		ncmds := 1 + rng.Intn(3)
		useFallback := rng.Intn(2) == 0
		for ci := range ncmds {
			guard := boolExpr(mi, 2)
			if useFallback && info.choice != nil {
				// Keep guards choice-free by construction: rebuild the
				// guard from the module's first own variable only.
				v := info.own[0]
				guard = gcl.Le(gcl.X(v), gcl.C(v.Type, rng.Intn(v.Type.Card)))
			}
			var updates []gcl.Update
			for _, v := range info.own {
				if rng.Intn(3) != 0 {
					e := intExpr(mi, 2)
					updates = append(updates, gcl.Set(v, clampTo(v, e)))
				}
			}
			info.mod.Cmd(fmt.Sprintf("c%d", ci), guard, updates...)
		}
		if useFallback {
			info.mod.Fallback("fb")
		}
	}
	sys.MustFinalize()
	return sys, vars
}

// randModInfo groups one generated module's pieces.
type randModInfo struct {
	mod    *gcl.Module
	own    []*gcl.Var
	choice *gcl.Var
}

func moduleIndex(mods []randModInfo, v *gcl.Var) int {
	for i, m := range mods {
		if m.mod == v.Module {
			return i
		}
	}
	return len(mods)
}

// clampTo coerces an expression into v's domain via a modular guard.
func clampTo(v *gcl.Var, e gcl.Expr) gcl.Expr {
	if e.Type().Card <= v.Type.Card {
		return e
	}
	// Conditional: keep e when in range, else 0.
	return gcl.Ite(gcl.Lt(e, gcl.C(v.Type, v.Type.Card-1)), e, gcl.C(v.Type, 0))
}

// TestRandomSystemsEnginesAgree is the fuzzing oracle for the whole
// verification stack: on random systems, the explicit and symbolic
// reachable-state counts must match, random invariants must get identical
// verdicts from explicit, symbolic, and (bounded) BMC, and violated
// invariants must come with replayable traces.
func TestRandomSystemsEnginesAgree(t *testing.T) {
	f := func(seed int64) bool {
		sys, vars := randomSystem(seed % 10_000)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))

		g, err := explicit.ExploreCtx(context.Background(), sys, explicit.Options{MaxStates: 200_000})
		if err != nil {
			t.Logf("seed %d: explore: %v", seed, err)
			return false
		}
		eng, err := symbolic.New(sys.Compile(), symbolic.Options{})
		if err != nil {
			t.Logf("seed %d: symbolic: %v", seed, err)
			return false
		}
		count, err := eng.CountStates()
		if err != nil {
			t.Logf("seed %d: count: %v", seed, err)
			return false
		}
		if count.Cmp(big.NewInt(int64(g.NumStates()))) != 0 {
			t.Logf("seed %d: counts differ: symbolic %v explicit %d", seed, count, g.NumStates())
			return false
		}

		// A random invariant over a random variable.
		v := vars[rng.Intn(len(vars))]
		bound := rng.Intn(v.Type.Card)
		prop := mc.Property{
			Name: "rand-inv",
			Kind: mc.Invariant,
			Pred: gcl.Le(gcl.X(v), gcl.C(v.Type, bound)),
		}
		expRes, err := explicit.CheckInvariantCtx(context.Background(), sys, prop, explicit.Options{MaxStates: 200_000})
		if err != nil {
			t.Logf("seed %d: explicit check: %v", seed, err)
			return false
		}
		symRes, err := eng.CheckInvariantCtx(context.Background(), prop)
		if err != nil {
			t.Logf("seed %d: symbolic check: %v", seed, err)
			return false
		}
		if expRes.Holds() != symRes.Holds() {
			t.Logf("seed %d: verdicts differ: explicit %v symbolic %v", seed, expRes.Verdict, symRes.Verdict)
			return false
		}
		bmcRes, err := bmc.CheckInvariantCtx(context.Background(), sys.Compile(), prop, bmc.Options{MaxDepth: 30})
		if err != nil {
			t.Logf("seed %d: bmc: %v", seed, err)
			return false
		}
		if symRes.Holds() && bmcRes.Verdict == mc.Violated {
			t.Logf("seed %d: bmc found a violation of a proved invariant", seed)
			return false
		}
		// IC3 is unbounded: its verdict must match symbolic exactly, with
		// a proof (not a bounded pass) for every true invariant.
		icRes, err := ic3.CheckInvariantCtx(context.Background(), sys.Compile(), prop, ic3.Options{})
		if err != nil {
			t.Logf("seed %d: ic3: %v", seed, err)
			return false
		}
		if symRes.Holds() {
			if icRes.Verdict != mc.Holds {
				t.Logf("seed %d: ic3 verdict %v on a proved invariant", seed, icRes.Verdict)
				return false
			}
		} else {
			if icRes.Verdict != mc.Violated {
				t.Logf("seed %d: ic3 verdict %v on a violated invariant", seed, icRes.Verdict)
				return false
			}
			if !replay(t, sys, prop, icRes.Trace) {
				return false
			}
		}
		// k-induction (no simple-path): sound in both directions, but may
		// return holds-bounded — only definite verdicts are compared.
		indRes, err := bmc.CheckInvariantInductionCtx(context.Background(), sys.Compile(), prop, bmc.InductionOptions{MaxK: 30})
		if err != nil {
			t.Logf("seed %d: induction: %v", seed, err)
			return false
		}
		if indRes.Verdict == mc.Holds && !symRes.Holds() {
			t.Logf("seed %d: induction proved a violated invariant", seed)
			return false
		}
		if indRes.Verdict == mc.Violated {
			if symRes.Holds() {
				t.Logf("seed %d: induction refuted a proved invariant", seed)
				return false
			}
			if !replay(t, sys, prop, indRes.Trace) {
				return false
			}
		}
		if !symRes.Holds() {
			// The violation is reachable; with the graph's BFS depth as
			// bound, BMC must find it too.
			depth := bfsDepth(g)
			deepRes, err := bmc.CheckInvariantCtx(context.Background(), sys.Compile(), prop, bmc.Options{MaxDepth: depth})
			if err != nil {
				t.Logf("seed %d: bmc deep: %v", seed, err)
				return false
			}
			if deepRes.Verdict != mc.Violated {
				t.Logf("seed %d: bmc missed a violation within depth %d", seed, depth)
				return false
			}
			// Traces must replay and end in violation.
			if !replay(t, sys, prop, symRes.Trace) || !replay(t, sys, prop, deepRes.Trace) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzRandomLiveness is the liveness counterpart of the invariant fuzzing
// oracle: random Eventually goals on random systems, with the explicit
// lasso search as ground truth. IC3 answers through the l2s product
// (internal/gcl/l2s) and must agree exactly; simple-path k-induction on
// the product and the BMC recurrence-diameter fallback may stop bounded
// but must never contradict; and every refutation must come back as a
// concrete lasso on the SOURCE system that replays through the
// interpreter, back-edge included. The seed corpus (f.Add plus
// testdata/fuzz) covers both verdicts on systems with choice variables,
// fallbacks, and cross-module primed reads.
func FuzzRandomLiveness(f *testing.F) {
	for _, seed := range []int64{3, 7, 19, 42, 1234, 4071} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sys, vars := randomSystem(seed % 10_000)
		rng := rand.New(rand.NewSource(seed ^ 0x11fe))

		// A random reachability goal over a random variable.
		v := vars[rng.Intn(len(vars))]
		goal := rng.Intn(v.Type.Card)
		prop := mc.Property{
			Name: "rand-live",
			Kind: mc.Eventually,
			Pred: gcl.Ge(gcl.X(v), gcl.C(v.Type, goal)),
		}

		expRes, err := explicit.CheckEventuallyCtx(context.Background(), sys, prop, explicit.Options{MaxStates: 200_000})
		if err != nil {
			t.Fatalf("seed %d: explicit: %v", seed, err)
		}
		if !expRes.Holds() {
			if expRes.Trace.LoopsTo < 0 {
				t.Fatalf("seed %d: explicit refutation has no lasso", seed)
			}
			verifyTrace(t, sys, prop, expRes.Trace)
		}

		// IC3 through the l2s product is unbounded: exact agreement.
		icRes, err := core.Check(context.Background(), sys, prop, core.EngineIC3, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: ic3: %v", seed, err)
		}
		if expRes.Holds() {
			if icRes.Verdict != mc.Holds {
				t.Fatalf("seed %d: ic3 verdict %v on a goal the explicit search proves", seed, icRes.Verdict)
			}
		} else {
			if icRes.Verdict != mc.Violated {
				t.Fatalf("seed %d: ic3 verdict %v on a refuted goal", seed, icRes.Verdict)
			}
			if icRes.Trace.LoopsTo < 0 {
				t.Fatalf("seed %d: ic3 projected lasso has no back-edge", seed)
			}
			verifyTrace(t, sys, prop, icRes.Trace)
		}

		// Simple-path induction on the product closes when k reaches the
		// product's recurrence diameter; below that it reports bounded.
		// Only definite verdicts are compared.
		indRes, err := core.Check(context.Background(), sys, prop, core.EngineInduction, core.Options{BMCDepth: 25})
		if err != nil {
			t.Fatalf("seed %d: induction: %v", seed, err)
		}
		if indRes.Verdict == mc.Holds && !expRes.Holds() {
			t.Fatalf("seed %d: induction proved a refuted goal", seed)
		}
		if indRes.Verdict == mc.Violated {
			if expRes.Holds() {
				t.Fatalf("seed %d: induction refuted a proved goal", seed)
			}
			if indRes.Trace.LoopsTo < 0 {
				t.Fatalf("seed %d: induction projected lasso has no back-edge", seed)
			}
			verifyTrace(t, sys, prop, indRes.Trace)
		}

		// BMC: lasso refutation up to the depth bound, with the
		// recurrence-diameter fallback upgrading to a definitive Holds on
		// systems this small. Definite verdicts must agree.
		bmcRes, err := bmc.CheckEventuallyRefuteCtx(context.Background(), sys.Compile(), prop, bmc.Options{MaxDepth: 25})
		if err != nil {
			t.Fatalf("seed %d: bmc: %v", seed, err)
		}
		if bmcRes.Verdict == mc.Holds && !expRes.Holds() {
			t.Fatalf("seed %d: bmc diameter fallback proved a refuted goal", seed)
		}
		if bmcRes.Verdict == mc.Violated {
			if expRes.Holds() {
				t.Fatalf("seed %d: bmc refuted a proved goal", seed)
			}
			verifyTrace(t, sys, prop, bmcRes.Trace)
		}
	})
}

// bfsDepth computes the height of the exploration tree.
func bfsDepth(g *explicit.Graph) int {
	depth := make([]int, len(g.States))
	maxDepth := 0
	for i := range g.States {
		if p := g.Parents[i]; p >= 0 {
			depth[i] = depth[p] + 1
			if depth[i] > maxDepth {
				maxDepth = depth[i]
			}
		}
	}
	return maxDepth + 1
}

// replay validates a counterexample trace against the stepper.
func replay(t *testing.T, sys *gcl.System, prop mc.Property, tr *mc.Trace) bool {
	t.Helper()
	if tr == nil || tr.Len() == 0 {
		t.Log("missing trace")
		return false
	}
	stepper := gcl.NewStepper(sys)
	vars := sys.StateVars()
	first := gcl.Key(tr.States[0], vars)
	okInit := false
	stepper.InitStates(func(st gcl.State) bool {
		if gcl.Key(st, vars) == first {
			okInit = true
			return false
		}
		return true
	})
	if !okInit {
		t.Log("trace does not start initial")
		return false
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
			t.Logf("trace step %d invalid", i)
			return false
		}
	}
	if gcl.Holds(prop.Pred, tr.States[tr.Len()-1]) {
		t.Log("trace does not end in violation")
		return false
	}
	return true
}
