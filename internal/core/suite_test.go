package core

import (
	"context"
	"testing"

	"ttastartup/internal/mc"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/tta/startup"
)

// quick returns a suite with a reduced power-on window.
func quick(t *testing.T, cfg startup.Config) *Suite {
	t.Helper()
	if cfg.DeltaInit == 0 {
		cfg.DeltaInit = 4
	}
	s, err := NewSuite(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCheckAllLemmasSymbolic(t *testing.T) {
	s := quick(t, startup.DefaultConfig(3).WithFaultyNode(1))
	for _, l := range []Lemma{LemmaSafety, LemmaLiveness, LemmaTimeliness} {
		r, err := s.CheckCtx(context.Background(), l, EngineSymbolic)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Holds() {
			t.Errorf("%s: %v", r.Property.Name, r.Verdict)
		}
	}
}

func TestCheckSafety2FaultyHub(t *testing.T) {
	s := quick(t, startup.DefaultConfig(3).WithFaultyHub(0))
	res, err := s.CheckCtx(context.Background(), LemmaSafety2, EngineSymbolic)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds() {
		t.Errorf("safety_2: %v", res.Verdict)
	}
}

func TestSanityLemmas(t *testing.T) {
	s := quick(t, startup.DefaultConfig(3))
	for _, l := range SanityLemmas() {
		r, err := s.CheckCtx(context.Background(), l, EngineSymbolic)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Holds() {
			t.Errorf("%s: %v", r.Property.Name, r.Verdict)
		}
	}
}

// TestEnginesAgreeOnStartupModel is the suite-level engine×lemma
// agreement matrix: every engine accepts every lemma kind — liveness
// included, which the SAT engines settle through the l2s product — and
// no engine may contradict the exact ones. The SAT provers run
// depth/frame-capped here (the hub lemmas are deep, DESIGN.md), so
// agreement for them means "no fabricated violation"; the unbounded
// verdicts are pinned on the bus and clique models in
// internal/mc/tta_engines_test.go.
func TestEnginesAgreeOnStartupModel(t *testing.T) {
	cfg := startup.DefaultConfig(3).WithFaultyNode(2)
	cfg.FaultDegree = 1
	cfg.DeltaInit = 3
	s, err := NewSuite(cfg, Options{BMCDepth: 12, IC3: ic3.Options{MaxFrames: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Lemma{LemmaSafety, LemmaNoError, LemmaLiveness} {
		sym, err := s.CheckCtx(context.Background(), l, EngineSymbolic)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := s.CheckCtx(context.Background(), l, EngineExplicit)
		if err != nil {
			t.Fatal(err)
		}
		if sym.Verdict != mc.Holds || exp.Verdict != mc.Holds {
			t.Errorf("%v: symbolic %v explicit %v", l, sym.Verdict, exp.Verdict)
		}
		if l != LemmaLiveness && sym.Stats.Reachable.Cmp(exp.Stats.Reachable) != 0 {
			t.Errorf("%v: state counts differ: %v vs %v", l, sym.Stats.Reachable, exp.Stats.Reachable)
		}
		for _, e := range []Engine{EngineBMC, EngineInduction, EngineIC3} {
			res, err := s.CheckCtx(context.Background(), l, e)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict == mc.Violated {
				t.Errorf("%v: %v fabricated a violation of a lemma the exact engines prove", l, e)
			}
			if e == EngineBMC && l != LemmaLiveness && res.Verdict != mc.HoldsBounded {
				t.Errorf("%v: bmc %v, want holds-bounded at depth 12", l, res.Verdict)
			}
		}
	}
}

// TestBMCLivenessRefutation: on the (true) liveness lemma the bounded
// engine must never fabricate a lasso. Below the recurrence diameter it
// reports holds-bounded; if the diameter query closes within the budget a
// definitive holds is also sound.
func TestBMCLivenessRefutation(t *testing.T) {
	cfg := startup.DefaultConfig(3)
	cfg.DeltaInit = 3
	s, err := NewSuite(cfg, Options{BMCDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckCtx(context.Background(), LemmaLiveness, EngineBMC)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds() {
		t.Errorf("verdict %v, want holds or holds-bounded", res.Verdict)
	}
}

// TestInductionEngineOnSanityLemma: k-induction proves the no-error lemma
// outright when it is inductive, and stays sound otherwise. Liveness
// lemmas are accepted via the l2s product and must never yield a spurious
// lasso within the depth budget.
func TestInductionEngineOnSanityLemma(t *testing.T) {
	cfg := startup.DefaultConfig(3)
	cfg.DeltaInit = 3
	s, err := NewSuite(cfg, Options{BMCDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CheckCtx(context.Background(), LemmaNoError, EngineInduction)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == mc.Violated {
		t.Errorf("k-induction fabricated a violation of a true lemma")
	}
	live, err := s.CheckCtx(context.Background(), LemmaLiveness, EngineInduction)
	if err != nil {
		t.Fatal(err)
	}
	if live.Verdict == mc.Violated {
		t.Error("k-induction fabricated a liveness violation through the l2s product")
	}
}

func TestWorstCaseStartup(t *testing.T) {
	s := quick(t, startup.DefaultConfig(3).WithFaultyNode(0))
	res, err := s.WorstCaseStartup(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.WSup <= 0 {
		t.Fatal("no worst case found")
	}
	if res.WSup > res.PaperWSup {
		t.Errorf("measured w_sup %d exceeds the paper's %d", res.WSup, res.PaperWSup)
	}
	// The sweep must end with exactly one holding probe, preceded by
	// counterexamples.
	last := res.Probes[len(res.Probes)-1]
	if !last.Holds || last.Bound != res.WSup {
		t.Error("sweep did not end at the holding bound")
	}
	for _, p := range res.Probes[:len(res.Probes)-1] {
		if p.Holds {
			t.Errorf("bound %d holds before the reported w_sup", p.Bound)
		}
	}
}

// TestBigBangExploration runs the Section 5.2 design exploration through
// the Suite: with the big-bang mechanism disabled, safety_2 fails on both
// the symbolic and the bounded engine, and the bounded engine finds the
// clique counterexample at a depth below the symbolic trace's length.
func TestBigBangExploration(t *testing.T) {
	cfg := startup.DefaultConfig(3).WithFaultyHub(0)
	cfg.DeltaInit = 6
	cfg.DisableBigBang = true
	s, err := NewSuite(cfg, Options{BMCDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := s.CheckCtx(context.Background(), LemmaSafety2, EngineSymbolic)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := s.CheckCtx(context.Background(), LemmaSafety2, EngineBMC)
	if err != nil {
		t.Fatal(err)
	}
	if sym.Verdict != mc.Violated {
		t.Errorf("symbolic: %v, want violated", sym.Verdict)
	}
	if bounded.Verdict != mc.Violated {
		t.Errorf("bounded: %v, want violated", bounded.Verdict)
	}
	if bounded.Stats.Iterations >= sym.Trace.Len() {
		t.Errorf("bmc depth %d should be below the symbolic trace length %d (shortest path)",
			bounded.Stats.Iterations, sym.Trace.Len())
	}
}

func TestCountStates(t *testing.T) {
	s := quick(t, startup.DefaultConfig(3))
	c, err := s.CountStates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c.Sign() <= 0 {
		t.Error("state count must be positive")
	}
}

func TestLemmaAndEngineStrings(t *testing.T) {
	if LemmaSafety.String() != "safety" || LemmaSafety2.String() != "safety_2" {
		t.Error("lemma names broken")
	}
	if EngineSymbolic.String() != "symbolic" || EngineBMC.String() != "bmc" {
		t.Error("engine names broken")
	}
	if len(AllLemmas()) != 4 || len(SanityLemmas()) != 4 {
		t.Error("lemma lists broken")
	}
	if l, err := ParseLemmas("recovery"); err != nil || len(l) != 1 || l[0] != LemmaRecovery || l[0].String() != "recovery" {
		t.Errorf("ParseLemmas(recovery) = %v, %v", l, err)
	}
}

func TestTimelinessBoundOverride(t *testing.T) {
	cfg := startup.DefaultConfig(3)
	cfg.DeltaInit = 4
	s, err := NewSuite(cfg, Options{TimelinessBound: 12})
	if err != nil {
		t.Fatal(err)
	}
	if s.TimelinessBound() != 12 {
		t.Errorf("bound override ignored: %d", s.TimelinessBound())
	}
	prop, err := s.Property(LemmaTimeliness)
	if err != nil {
		t.Fatal(err)
	}
	if prop.Name != "timeliness(12)" {
		t.Errorf("property name %q", prop.Name)
	}
}

func TestParseLemmas(t *testing.T) {
	got, err := ParseLemmas("safety, liveness,safety2")
	if err != nil || len(got) != 3 || got[2] != LemmaSafety2 {
		t.Errorf("ParseLemmas: %v %v", got, err)
	}
	if got, err := ParseLemmas("all"); err != nil || len(got) != 4 {
		t.Errorf("all: %v %v", got, err)
	}
	if got, err := ParseLemmas("sanity"); err != nil || len(got) != 4 {
		t.Errorf("sanity: %v %v", got, err)
	}
	if _, err := ParseLemmas("bogus"); err == nil {
		t.Error("bogus lemma accepted")
	}
}
