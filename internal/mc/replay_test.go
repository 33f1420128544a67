package mc_test

import (
	"context"
	"testing"

	"ttastartup/internal/bdd"
	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

// Counterexample-replay oracle: every trace an engine emits must replay
// step by step through the concrete guarded-command interpreter — first
// state initial, every step an enabled transition, final state violating
// the lemma (or, for liveness lassos, a closing loop avoiding the goal).
// The engines compile the model to CNF or BDDs; the interpreter walks the
// AST directly, so a replayed trace certifies the whole compilation
// pipeline, not just the engine. The symbolic engine runs with dynamic
// variable reordering off AND on: reordering rewrites live BDD nodes in
// place mid-search, and a replayed trace is the end-to-end proof that the
// rewrite never changed what any Ref denotes.

// replayOracle is verifyTrace plus a sanity check that intermediate states
// do not already violate an invariant (engines report shortest-to-violation
// layers; an earlier violation would mean the trace is not minimal in the
// way the engine claims).
func replayOracle(t *testing.T, sys *gcl.System, prop mc.Property, res *mc.Result, engine string) {
	t.Helper()
	if res.Verdict != mc.Violated {
		t.Fatalf("%s: verdict %v, want VIOLATED", engine, res.Verdict)
	}
	verifyTrace(t, sys, prop, res.Trace)
	if prop.Kind == mc.Invariant {
		for i := 0; i+1 < res.Trace.Len(); i++ {
			if !gcl.Holds(prop.Pred, res.Trace.States[i]) {
				t.Errorf("%s: intermediate state %d already violates %s", engine, i, prop.Name)
			}
		}
	}
}

// reorderConfigs returns the symbolic-engine option sets the replay tests
// sweep: reordering off, and reordering on with a threshold low enough to
// actually fire on these small models.
func reorderConfigs() map[string]symbolic.Options {
	return map[string]symbolic.Options{
		"reorder-off": {},
		"reorder-on":  {BDD: bdd.Config{AutoReorder: true, ReorderStart: 1 << 10}},
	}
}

// TestReplaySafetyAllEngines gets a safety counterexample out of each of
// the five engines on the bus model with a degree-3 faulty node and
// replays every trace through the interpreter.
func TestReplaySafetyAllEngines(t *testing.T) {
	model, err := original.Build(original.Config{N: 3, FaultyNode: 1, FaultDegree: 3, DeltaInit: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, prop := model.Sys, model.Safety()
	comp := sys.Compile()

	expRes, err := explicit.CheckInvariantCtx(context.Background(), sys, prop, explicit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, sys, prop, expRes, "explicit")

	for name, opts := range reorderConfigs() {
		eng, err := symbolic.New(comp, opts)
		if err != nil {
			t.Fatal(err)
		}
		symRes, err := eng.CheckInvariantCtx(context.Background(), prop)
		if err != nil {
			t.Fatal(err)
		}
		replayOracle(t, sys, prop, symRes, "symbolic/"+name)
		if symRes.Trace.Len() != expRes.Trace.Len() {
			t.Errorf("symbolic/%s: trace length %d, explicit found %d (both engines are breadth-first)",
				name, symRes.Trace.Len(), expRes.Trace.Len())
		}
	}

	bmcRes, err := bmc.CheckInvariantCtx(context.Background(), comp, prop, bmc.Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, sys, prop, bmcRes, "bmc")

	indRes, err := bmc.CheckInvariantInductionCtx(context.Background(), comp, prop, bmc.InductionOptions{MaxK: 20})
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, sys, prop, indRes, "induction")

	icRes, err := ic3.CheckInvariantCtx(context.Background(), comp, prop, ic3.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, sys, prop, icRes, "ic3")
}

// TestReplayLivenessLassos replays liveness lassos from all five engines
// on the bus model, where a degree-3 faulty node keeps the cluster from
// ever starting up. Explicit and symbolic find lassos natively, BMC
// unrolls them, and induction/IC3 refute through the l2s product
// (internal/gcl/l2s) — for those the projected trace must land back on
// the SOURCE state space with a concrete back-edge, which is exactly what
// the replay oracle certifies.
func TestReplayLivenessLassos(t *testing.T) {
	model, err := original.Build(original.Config{N: 3, FaultyNode: 1, FaultDegree: 3, DeltaInit: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, prop := model.Sys, model.Liveness()
	comp := sys.Compile()

	expRes, err := explicit.CheckEventuallyCtx(context.Background(), sys, prop, explicit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, sys, prop, expRes, "explicit")
	if expRes.Trace.LoopsTo < 0 {
		t.Fatalf("explicit: liveness refutation has no lasso (LoopsTo=%d)", expRes.Trace.LoopsTo)
	}

	for name, opts := range reorderConfigs() {
		eng, err := symbolic.New(comp, opts)
		if err != nil {
			t.Fatal(err)
		}
		symRes, err := eng.CheckEventuallyCtx(context.Background(), prop)
		if err != nil {
			t.Fatal(err)
		}
		replayOracle(t, sys, prop, symRes, "symbolic/"+name)
		if symRes.Trace.LoopsTo < 0 {
			t.Fatalf("symbolic/%s: liveness refutation has no lasso", name)
		}
	}

	bmcRes, err := bmc.CheckEventuallyRefuteCtx(context.Background(), comp, prop, bmc.Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, sys, prop, bmcRes, "bmc")

	indRes, err := core.Check(context.Background(), sys, prop, core.EngineInduction, core.Options{BMCDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, sys, prop, indRes, "induction")
	if indRes.Trace.LoopsTo < 0 {
		t.Fatalf("induction: projected l2s refutation has no lasso back-edge")
	}

	icRes, err := core.Check(context.Background(), sys, prop, core.EngineIC3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, sys, prop, icRes, "ic3")
	if icRes.Trace.LoopsTo < 0 {
		t.Fatalf("ic3: projected l2s refutation has no lasso back-edge")
	}
}

// TestReplayHubClique replays the paper's big-bang-off clique
// counterexample (hub topology) from the symbolic engine with reordering
// off and on, plus the bounded engine. The hub model is the larger state
// space, so this is the case where auto-reordering actually fires during
// the search that produces the trace.
func TestReplayHubClique(t *testing.T) {
	if testing.Short() {
		t.Skip("hub clique search takes seconds")
	}
	cfg := startup.DefaultConfig(3).WithFaultyHub(0)
	cfg.DeltaInit = 2
	cfg.DisableBigBang = true
	model, err := startup.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, prop := model.Sys, model.Safety()
	comp := sys.Compile()

	for name, opts := range reorderConfigs() {
		eng, err := symbolic.New(comp, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.CheckInvariantCtx(context.Background(), prop)
		if err != nil {
			t.Fatal(err)
		}
		replayOracle(t, sys, prop, res, "symbolic/"+name)
		if name == "reorder-on" && res.Stats.Reorders == 0 {
			t.Logf("note: no reorder fired on the hub clique search (pool stayed under %d nodes)", 1<<10)
		}
	}

	bmcRes, err := bmc.CheckInvariantCtx(context.Background(), comp, prop, bmc.Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	replayOracle(t, sys, prop, bmcRes, "bmc")
}
