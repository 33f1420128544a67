package core

import (
	"context"
	"strings"
	"testing"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

// replayTrace checks that a (possibly lasso) trace is a real execution of
// sys: it starts in an initial state, every consecutive pair is a
// transition, and a lasso's back edge is a transition too. Used on traces
// inflated from optimized-system counterexamples, where every step must
// correspond to a concrete source-model transition.
func replayTrace(t *testing.T, sys *gcl.System, tr *mc.Trace) {
	t.Helper()
	if tr == nil || tr.Len() == 0 {
		t.Fatal("missing counterexample trace")
	}
	stepper := gcl.NewStepper(sys)
	vars := sys.StateVars()

	first := gcl.Key(tr.States[0], vars)
	found := false
	stepper.InitStates(func(st gcl.State) bool {
		if gcl.Key(st, vars) == first {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Errorf("inflated trace does not start in an initial state: %s", sys.FormatState(tr.States[0]))
	}

	step := func(i, j int) {
		want := gcl.Key(tr.States[j], vars)
		ok := false
		stepper.Successors(tr.States[i], func(next gcl.State) bool {
			if gcl.Key(next, vars) == want {
				ok = true
				return false
			}
			return true
		})
		if !ok {
			t.Errorf("inflated trace has no transition from step %d to step %d", i, j)
		}
	}
	for i := 0; i+1 < tr.Len(); i++ {
		step(i, i+1)
	}
	if tr.LoopsTo >= 0 {
		step(tr.Len()-1, tr.LoopsTo)
	}
}

// exactEngines get bit-identical verdict comparison between baseline and
// optimized runs; induction and IC3 verdict *strength* may legitimately
// shift (narrowing and slicing change the transition structure on
// unreachable states, and both engines generalize over unreachable
// states), so for them only Holds()-agreement is required and a Violated
// on a true lemma remains an error on either side.
func exactEngine(e Engine) bool {
	return e == EngineSymbolic || e == EngineExplicit || e == EngineBMC
}

// TestOptVerdictMatrixHub is the hub half of the verdict-agreement matrix
// on the n=3 startup model, with and without the optimizer: safety and
// liveness on the exact engines, and — because full-model unbounded SAT
// proofs of hub safety take minutes — the no-error lemma on the two
// inductive proof engines (the same tractable invariant the existing
// induction test uses).
func TestOptVerdictMatrixHub(t *testing.T) {
	cfg := startup.DefaultConfig(3)
	cfg.DeltaInit = 3
	base, err := NewSuite(cfg, Options{BMCDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	optd, err := NewSuite(cfg, Options{BMCDepth: 10, Opt: true})
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		e Engine
		l Lemma
	}
	var cells []cell
	for _, e := range []Engine{EngineSymbolic, EngineExplicit, EngineBMC} {
		cells = append(cells, cell{e, LemmaSafety}, cell{e, LemmaLiveness})
	}
	cells = append(cells, cell{EngineInduction, LemmaNoError}, cell{EngineIC3, LemmaNoError})

	for _, c := range cells {
		t.Run(c.e.String()+"/"+c.l.String(), func(t *testing.T) {
			rb, err := base.CheckCtx(context.Background(), c.l, c.e)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			ro, err := optd.CheckCtx(context.Background(), c.l, c.e)
			if err != nil {
				t.Fatalf("optimized: %v", err)
			}
			if exactEngine(c.e) {
				if rb.Verdict != ro.Verdict {
					t.Errorf("baseline %v, optimized %v", rb.Verdict, ro.Verdict)
				}
			} else if rb.Holds() != ro.Holds() {
				t.Errorf("baseline holds=%v, optimized holds=%v", rb.Holds(), ro.Holds())
			}
			if rb.Verdict == mc.Violated || ro.Verdict == mc.Violated {
				t.Errorf("violation of a true lemma (baseline %v, optimized %v)", rb.Verdict, ro.Verdict)
			}
			if ro.Stats.OptBitsSaved <= 0 {
				t.Errorf("optimized run reports no bits saved")
			}
			if rb.Stats.OptBitsSaved != 0 {
				t.Errorf("baseline run carries opt stats")
			}
		})
	}
}

// TestOptVerdictMatrixBus is the bus half of the matrix and the
// differential test of the pipeline's transforms: every engine on the
// original bus-topology model's safety and liveness lemmas through Check
// with opt off and on. On the induction and IC3 liveness cells that
// compares l2s on the sliced system against l2s on the source; the
// degree-3 faulty node breaks both lemmas, so projected and inflated
// lassos get replayed too.
func TestOptVerdictMatrixBus(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  original.Config
	}{
		{"fault-free", original.DefaultConfig(3)},
		{"deg1", original.Config{N: 3, FaultyNode: 1, FaultDegree: 1, DeltaInit: 2}},
		{"deg3", original.Config{N: 3, FaultyNode: 1, FaultDegree: 3, DeltaInit: 2}},
	} {
		name := c.name
		m, err := original.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, prop := range []mc.Property{m.Safety(), m.Liveness()} {
			for _, e := range AllEngines() {
				t.Run(name+"/"+e.String()+"/"+prop.Name, func(t *testing.T) {
					if name == "fault-free" && e == EngineIC3 && prop.Kind == mc.Eventually && testing.Short() {
						t.Skip("IC3 needs about a minute per run on the fault-free product")
					}
					ctx := context.Background()
					rb, err := Check(ctx, m.Sys, prop, e, Options{BMCDepth: 10})
					if err != nil {
						t.Fatalf("baseline: %v", err)
					}
					ro, err := Check(ctx, m.Sys, prop, e, Options{BMCDepth: 10, Opt: true})
					if err != nil {
						t.Fatalf("optimized: %v", err)
					}
					if exactEngine(e) {
						if rb.Verdict != ro.Verdict {
							t.Errorf("baseline %v, optimized %v", rb.Verdict, ro.Verdict)
						}
					} else if rb.Holds() != ro.Holds() {
						t.Errorf("baseline holds=%v, optimized holds=%v", rb.Holds(), ro.Holds())
					}
					if ro.Stats.OptBitsSaved < 0 {
						t.Errorf("negative bit savings %d", ro.Stats.OptBitsSaved)
					}
					for _, r := range []*mc.Result{rb, ro} {
						if r.Trace != nil {
							replayTrace(t, m.Sys, r.Trace)
						}
					}
				})
			}
		}
	}
}

// TestOptRecoveryCTL compares the CTL stabilisation property with and
// without the optimizer on both CTL-capable engines, and requires every
// other engine to refuse it.
func TestOptRecoveryCTL(t *testing.T) {
	ctx := context.Background()
	cfg := startup.DefaultConfig(3)
	cfg.DeltaInit = 3
	base, err := NewSuite(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	optd, err := NewSuite(cfg, Options{Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{EngineSymbolic, EngineExplicit} {
		rb, err := base.CheckCtx(ctx, LemmaRecovery, e)
		if err != nil {
			t.Fatalf("%v baseline: %v", e, err)
		}
		ro, err := optd.CheckCtx(ctx, LemmaRecovery, e)
		if err != nil {
			t.Fatalf("%v optimized: %v", e, err)
		}
		if rb.Verdict != ro.Verdict {
			t.Errorf("%v: baseline %v, optimized %v", e, rb.Verdict, ro.Verdict)
		}
		if ro.Stats.OptBitsSaved <= 0 {
			t.Errorf("%v: optimized recovery run reports no bits saved", e)
		}
		if rb.Property.Name != "recovery AG(AF all-active)" || rb.Property.Kind != mc.CTL {
			t.Errorf("%v: result property %q kind %v", e, rb.Property.Name, rb.Property.Kind)
		}
	}
	for _, e := range []Engine{EngineBMC, EngineInduction, EngineIC3} {
		if _, err := base.CheckCtx(ctx, LemmaRecovery, e); err == nil || !strings.Contains(err.Error(), "has no CTL evaluator") {
			t.Errorf("%v on a CTL formula: %v", e, err)
		}
		if _, err := optd.CheckCtx(ctx, LemmaRecovery, e); err == nil || !strings.Contains(err.Error(), "has no CTL evaluator") {
			t.Errorf("%v on a CTL formula under -opt: %v", e, err)
		}
	}
}

// TestCheckCTLOnSATEngines: core.Check refuses a CTL property on each SAT
// engine, which has no CTL evaluator, with and without the optimizer.
func TestCheckCTLOnSATEngines(t *testing.T) {
	m, err := startup.Build(startup.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	prop := mc.Property{Name: "recovery", Kind: mc.CTL, CTL: m.Recovery()}
	for _, e := range []Engine{EngineBMC, EngineInduction, EngineIC3} {
		for _, o := range []bool{false, true} {
			_, err := Check(context.Background(), m.Sys, prop, e, Options{BMCDepth: 4, Opt: o})
			if err == nil || !strings.Contains(err.Error(), "has no CTL evaluator") {
				t.Errorf("%v (opt=%v) on a CTL formula: %v", e, o, err)
			}
		}
	}
}

// TestOptInflatesInvariantTrace breaks safety (big-bang disabled, faulty
// hub — the paper's design-exploration counterexample) and demands that
// the optimized run's counterexample replays step for step on the full
// source model and ends in a state violating the source predicate.
func TestOptInflatesInvariantTrace(t *testing.T) {
	cfg := startup.DefaultConfig(3).WithFaultyHub(0)
	cfg.DeltaInit = 6
	cfg.DisableBigBang = true
	s, err := NewSuite(cfg, Options{Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckCtx(context.Background(), LemmaSafety, EngineSymbolic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("safety with big-bang disabled: %v, want violated", res.Verdict)
	}
	replayTrace(t, s.Model.Sys, res.Trace)

	prop, err := s.Property(LemmaSafety)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Trace.States[res.Trace.Len()-1]
	if gcl.Holds(prop.Pred, last) {
		t.Error("inflated trace's final state satisfies the source-model safety predicate")
	}
}

// TestOptInflatesLassoTrace reproduces the paper's headline finding — the
// original bus-topology algorithm fails to start up with a degree-2 faulty
// node — through the optimizer, and checks the inflated lasso is a real
// source-model execution (including the loop's back edge) whose loop never
// reaches the liveness predicate.
func TestOptInflatesLassoTrace(t *testing.T) {
	m, err := original.Build(original.Config{N: 3, FaultyNode: 0, FaultDegree: 2})
	if err != nil {
		t.Fatal(err)
	}
	prop := m.Liveness()
	res, err := Check(context.Background(), m.Sys, prop, EngineSymbolic, Options{Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("bus liveness under a degree-2 faulty node: %v, want violated", res.Verdict)
	}
	if res.Trace.LoopsTo < 0 {
		t.Fatal("liveness counterexample is not a lasso")
	}
	replayTrace(t, m.Sys, res.Trace)

	for i := res.Trace.LoopsTo; i < res.Trace.Len(); i++ {
		if gcl.Holds(prop.Pred, res.Trace.States[i]) {
			t.Errorf("lasso state %d satisfies the source-model liveness predicate", i)
		}
	}
}

// TestOptReportWithoutRouting: OptimizeProp exposes the reductions of a
// lemma's cone without routing checks through the optimizer.
func TestOptReportWithoutRouting(t *testing.T) {
	s := quick(t, startup.DefaultConfig(3))
	prop, err := s.Property(LemmaSafety)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := OptimizeProp(s.Model.Sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	rep := o.Report
	if rep.BitsSaved() <= 0 {
		t.Errorf("expected bit savings on the hub safety cone, got %d (summary %s)",
			rep.BitsSaved(), rep.Summary())
	}
	if rep.VarsAfter >= rep.VarsBefore {
		t.Errorf("expected variable reduction: %s", rep.Summary())
	}
}
