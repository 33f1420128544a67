package startup

import (
	"context"
	"strings"
	"testing"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/symbolic"
)

// quickCfg returns a configuration with a reduced power-on window that
// keeps symbolic checks under a second while covering every mechanism.
func quickCfg(n int) Config {
	cfg := DefaultConfig(n)
	cfg.DeltaInit = 4
	return cfg
}

// engine builds a symbolic engine for cfg.
func engine(t *testing.T, cfg Config) (*Model, *symbolic.Engine) {
	t.Helper()
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := symbolic.New(m.Sys.Compile(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, eng
}

// check runs one property and requires the expected verdict.
func check(t *testing.T, m *Model, eng *symbolic.Engine, prop mc.Property, want mc.Verdict) *mc.Result {
	t.Helper()
	var res *mc.Result
	var err error
	if prop.Kind == mc.Eventually {
		res, err = eng.CheckEventuallyCtx(context.Background(), prop)
	} else {
		res, err = eng.CheckInvariantCtx(context.Background(), prop)
	}
	if err != nil {
		t.Fatalf("%s: %v", prop.Name, err)
	}
	if res.Verdict != want {
		msg := ""
		if res.Trace != nil {
			msg = "\n" + res.Trace.Format(m.Sys)
			if len(msg) > 4000 {
				msg = msg[:4000]
			}
		}
		t.Fatalf("%s: verdict %v, want %v%s", prop.Name, res.Verdict, want, msg)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(4), true},
		{"faulty-node", DefaultConfig(4).WithFaultyNode(2), true},
		{"faulty-hub", DefaultConfig(4).WithFaultyHub(1), true},
		{"too-small", DefaultConfig(1), false},
		{"both-faults", Config{N: 4, FaultyNode: 1, FaultyHub: 0, FaultDegree: 6}, false},
		{"node-out-of-range", DefaultConfig(4).WithFaultyNode(4), false},
		{"hub-out-of-range", DefaultConfig(4).WithFaultyHub(2), false},
		{"degree-zero", Config{N: 4, FaultyNode: -1, FaultyHub: -1, FaultDegree: 0}, false},
		{"degree-seven", Config{N: 4, FaultyNode: -1, FaultyHub: -1, FaultDegree: 7}, false},
		{"tiny-maxcount", Config{N: 4, FaultyNode: -1, FaultyHub: -1, FaultDegree: 6, MaxCount: 5}, false},
	}
	for _, tt := range tests {
		err := tt.cfg.Validate()
		if tt.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tt.name, err)
		}
		if !tt.ok && err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestBuildShape(t *testing.T) {
	m := MustBuild(quickCfg(4).WithFaultyNode(2))
	if m.Nodes[2] != nil {
		t.Error("faulty node should have no correct-node module")
	}
	if m.Faulty == nil || m.Faulty.ID != 2 {
		t.Error("faulty module missing")
	}
	for _, i := range []int{0, 1, 3} {
		if m.Nodes[i] == nil {
			t.Errorf("node %d missing", i)
		}
	}
	if m.Ctrls[0] == nil || m.Ctrls[1] == nil {
		t.Error("both hubs should be present with a faulty node")
	}

	mh := MustBuild(quickCfg(3).WithFaultyHub(0))
	if mh.Ctrls[0] != nil {
		t.Error("faulty hub should have no controller")
	}
	if !mh.Relays[0].Faulty || mh.Relays[1].Faulty {
		t.Error("relay fault flags wrong")
	}
}

func TestBuildRejectsInvalidConfig(t *testing.T) {
	if _, err := Build(Config{N: 1}); err == nil {
		t.Error("expected error for N=1")
	}
}

// TestLemmasFaultFree verifies all lemmas plus the sanity properties on a
// fault-free cluster.
func TestLemmasFaultFree(t *testing.T) {
	for _, n := range []int{3, 4} {
		m, eng := engine(t, quickCfg(n))
		check(t, m, eng, m.NoError(), mc.Holds)
		check(t, m, eng, m.LocksOnlyFaulty(), mc.Holds)
		check(t, m, eng, m.Safety(), mc.Holds)
		check(t, m, eng, m.HubsAgree(), mc.Holds)
		check(t, m, eng, m.NodeHubAgree(), mc.Holds)
		check(t, m, eng, m.Timeliness(7*n-5), mc.Holds)
		check(t, m, eng, m.Liveness(), mc.Holds)
		res, err := eng.CheckDeadlockFree()
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Holds {
			t.Errorf("n=%d: model deadlocks", n)
		}
	}
}

// TestLemmasFaultyNode verifies the paper's exhaustive fault simulation at
// degree 6 for every choice of faulty node id (n=3).
func TestLemmasFaultyNode(t *testing.T) {
	for id := range 3 {
		m, eng := engine(t, quickCfg(3).WithFaultyNode(id))
		check(t, m, eng, m.NoError(), mc.Holds)
		check(t, m, eng, m.LocksOnlyFaulty(), mc.Holds)
		check(t, m, eng, m.Safety(), mc.Holds)
		check(t, m, eng, m.HubsAgree(), mc.Holds)
		check(t, m, eng, m.NodeHubAgree(), mc.Holds)
		check(t, m, eng, m.Timeliness(7*3-5), mc.Holds)
		check(t, m, eng, m.Liveness(), mc.Holds)
	}
}

// TestLemmasFaultyHub verifies the lemmas against each faulty hub (n=3).
func TestLemmasFaultyHub(t *testing.T) {
	for ch := range 2 {
		m, eng := engine(t, quickCfg(3).WithFaultyHub(ch))
		check(t, m, eng, m.NoError(), mc.Holds)
		check(t, m, eng, m.Safety(), mc.Holds)
		check(t, m, eng, m.Safety2(7*3-5), mc.Holds)
		check(t, m, eng, m.Liveness(), mc.Holds)
	}
}

// TestBigBangNecessity reproduces the Section 5.2 design exploration: with
// the big-bang mechanism disabled and a faulty hub, safety fails with the
// clique counterexample; the trace must show two active nodes disagreeing.
func TestBigBangNecessity(t *testing.T) {
	cfg := quickCfg(3).WithFaultyHub(0)
	cfg.DeltaInit = 6
	cfg.DisableBigBang = true
	m, eng := engine(t, cfg)
	res := check(t, m, eng, m.Safety(), mc.Violated)
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("missing clique counterexample")
	}
	last := res.Trace.States[res.Trace.Len()-1]
	active := 0
	positions := map[int]bool{}
	for _, nd := range m.Nodes {
		if nd == nil {
			continue
		}
		if last.Get(nd.State) == NodeActive {
			active++
			positions[last.Get(nd.Pos)] = true
		}
	}
	if active < 2 || len(positions) < 2 {
		t.Errorf("final state is not a clique: %d active, %d positions", active, len(positions))
	}
}

// TestBigBangNecessityFaultyNode: the same exploration with a faulty node
// (the paper's Section 5.2 collision scenario).
func TestBigBangNecessityFaultyNode(t *testing.T) {
	cfg := quickCfg(4).WithFaultyHub(0)
	cfg.DisableBigBang = true
	m, eng := engine(t, cfg)
	res, err := eng.CheckInvariantCtx(context.Background(), m.Safety())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("big-bang-off should violate safety at n=4, got %v", res.Verdict)
	}
}

// TestTimelinessTight: the timeliness lemma must fail one slot below the
// measured worst case and hold at it (n=3, faulty node 0 — the worst
// configuration measured in EXPERIMENTS.md).
func TestTimelinessTight(t *testing.T) {
	m, eng := engine(t, quickCfg(3).WithFaultyNode(0))
	wsup := -1
	for bound := 5; bound < 20; bound++ {
		res, err := eng.CheckInvariantCtx(context.Background(), m.Timeliness(bound))
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == mc.Holds {
			wsup = bound
			break
		}
	}
	if wsup < 0 {
		t.Fatal("no finite worst-case startup time")
	}
	check(t, m, eng, m.Timeliness(wsup-1), mc.Violated)
	check(t, m, eng, m.Timeliness(wsup), mc.Holds)
	if wsup > 7*3-5 {
		t.Errorf("measured w_sup %d exceeds the paper bound %d", wsup, 7*3-5)
	}
}

// TestFaultDegreeMonotonic: higher fault degrees can only add behaviour,
// so the reachable-state count must be non-decreasing in δ_failure.
func TestFaultDegreeMonotonic(t *testing.T) {
	prev := int64(0)
	for _, degree := range []int{1, 2, 3, 4, 5, 6} {
		cfg := quickCfg(3).WithFaultyNode(1)
		cfg.FaultDegree = degree
		_, eng := engine(t, cfg)
		count, err := eng.CountStates()
		if err != nil {
			t.Fatal(err)
		}
		if count.Int64() < prev {
			t.Errorf("degree %d: reachable %v < previous %d", degree, count, prev)
		}
		prev = count.Int64()
	}
}

// TestFeedbackPreservesVerdicts: the feedback state-space reduction must
// not change any verdict, and must not increase the reachable-state count.
func TestFeedbackPreservesVerdicts(t *testing.T) {
	counts := make(map[bool]int64)
	for _, fb := range []bool{true, false} {
		cfg := quickCfg(3).WithFaultyNode(1)
		cfg.Feedback = fb
		m, eng := engine(t, cfg)
		check(t, m, eng, m.Safety(), mc.Holds)
		check(t, m, eng, m.Liveness(), mc.Holds)
		c, err := eng.CountStates()
		if err != nil {
			t.Fatal(err)
		}
		counts[fb] = c.Int64()
	}
	if counts[true] > counts[false] {
		t.Errorf("feedback increased the state count: %d > %d", counts[true], counts[false])
	}
}

// TestStartupTimeFrozen: once a correct node is active the startup clock
// must freeze, so its saturation value is never reached.
func TestStartupTimeFrozen(t *testing.T) {
	cfg := quickCfg(3)
	m, eng := engine(t, cfg)
	sat := cfg.Params().MaxCount()
	prop := mc.Property{Name: "clock-below-saturation", Kind: mc.Invariant,
		Pred: m.Timeliness(sat - 1).Pred}
	check(t, m, eng, prop, mc.Holds)
}

// TestTraceRendering: a violated property's trace must mention the model's
// variables and replay as valid transitions.
func TestTraceRendering(t *testing.T) {
	cfg := quickCfg(3)
	m, eng := engine(t, cfg)
	// An intentionally false invariant: node0 never reaches ACTIVE.
	prop := mc.Property{Name: "node0-never-active", Kind: mc.Invariant,
		Pred: gcl.Ne(gcl.X(m.Nodes[0].State), gcl.C(m.NodeType, NodeActive))}
	res := check(t, m, eng, prop, mc.Violated)
	text := res.Trace.Format(m.Sys)
	if !strings.Contains(text, "node0.state=active") {
		t.Errorf("trace missing the violating assignment:\n%s", text)
	}
}

// TestInterlinksNecessity explores the paper's stated future work: sever
// the interlinks (conclusion: "to make the interlink connections
// unnecessary" requires shifting complexity into the node algorithm).
// With the unmodified algorithms, the model checker shows why the work is
// nontrivial: a faulty component splits the cluster into per-channel
// cliques once the guardians cannot compare notes.
func TestInterlinksNecessity(t *testing.T) {
	cfg := quickCfg(3).WithFaultyNode(1)
	cfg.DeltaInit = 6
	cfg.DisableInterlinks = true
	m, eng := engine(t, cfg)
	res, err := eng.CheckInvariantCtx(context.Background(), m.HubsAgree())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatalf("expected hub disagreement without interlinks, got %v", res.Verdict)
	}

	// The interlink-equipped design is immune in the same scenario.
	cfg.DisableInterlinks = false
	m2, eng2 := engine(t, cfg)
	check(t, m2, eng2, m2.HubsAgree(), mc.Holds)
}

// TestRestartProblem verifies the paper's Section 2.1 restart problem:
// with every correct node subject to one transient restart at an arbitrary
// instant, agreement is never violated and every correct node still
// eventually (re-)integrates — even with a degree-6 faulty node present.
func TestRestartProblem(t *testing.T) {
	if testing.Short() {
		t.Skip("restart-problem verification takes tens of seconds")
	}
	cfg := quickCfg(3)
	cfg.RestartableNodes = true
	m, eng := engine(t, cfg)
	check(t, m, eng, m.NoError(), mc.Holds)
	check(t, m, eng, m.Safety(), mc.Holds)
	check(t, m, eng, m.Liveness(), mc.Holds)

	cfgF := quickCfg(3).WithFaultyNode(1)
	cfgF.RestartableNodes = true
	mf, engF := engine(t, cfgF)
	check(t, mf, engF, mf.Safety(), mc.Holds)
	check(t, mf, engF, mf.Liveness(), mc.Holds)
}

// TestRecoveryCTL verifies the stabilisation form of the restart problem
// with the CTL engine: AG(AF all-correct-active) — from EVERY reachable
// state (including mid-restart, mid-collision, and mid-fault states),
// every execution re-establishes full synchronisation. This is strictly
// stronger than Lemma 2's F(all active).
func TestRecoveryCTL(t *testing.T) {
	if testing.Short() {
		t.Skip("restart-problem verification takes tens of seconds")
	}
	cfg := quickCfg(3)
	cfg.RestartableNodes = true
	m, eng := engine(t, cfg)
	f := m.Recovery()
	res, err := eng.CheckCTLCtx(context.Background(), "recovery", f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Holds {
		t.Errorf("recovery AG(AF allActive): %v", res.Verdict)
	}
}

// TestFormatTimeline renders a counterexample as a per-slot timeline.
func TestFormatTimeline(t *testing.T) {
	cfg := quickCfg(3).WithFaultyHub(0)
	cfg.DeltaInit = 6
	cfg.DisableBigBang = true
	m, eng := engine(t, cfg)
	res, err := eng.CheckInvariantCtx(context.Background(), m.Safety())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Fatal("expected violation")
	}
	text := m.FormatTimeline(res.Trace)
	for _, want := range []string{"slot   0", "h0:FAULTY", "ACTIVE@", "!cs"} {
		if !strings.Contains(text, want) {
			t.Errorf("timeline missing %q:\n%s", want, text)
		}
	}
}

// TestLemmasN5Quick covers the largest paper cluster size at quick scale.
func TestLemmasN5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("n=5 reachability takes ~10 s")
	}
	cfg := DefaultConfig(5).WithFaultyNode(2)
	cfg.DeltaInit = 5
	m, eng := engine(t, cfg)
	check(t, m, eng, m.NoError(), mc.Holds)
	check(t, m, eng, m.Safety(), mc.Holds)
	check(t, m, eng, m.Timeliness(7*5-5), mc.Holds)
}
