package original

import (
	"context"
	"math/big"
	"testing"

	"ttastartup/internal/mc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/symbolic"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (Config{N: 1, FaultyNode: -1, FaultDegree: 1}).Validate(); err == nil {
		t.Error("N=1 should fail")
	}
	if err := (Config{N: 4, FaultyNode: 4, FaultDegree: 1}).Validate(); err == nil {
		t.Error("faulty node out of range should fail")
	}
	if err := (Config{N: 4, FaultyNode: -1, FaultDegree: 4}).Validate(); err == nil {
		t.Error("degree 4 should fail (original dial is 1..3)")
	}
}

// TestFaultFreeCorrect: without faults the original algorithm satisfies
// safety and liveness (its flaws need a faulty hub, which the bus topology
// does not model).
func TestFaultFreeCorrect(t *testing.T) {
	for _, n := range []int{3, 4} {
		m := MustBuild(DefaultConfig(n))
		eng, err := symbolic.New(m.Sys.Compile(), symbolic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.CheckInvariantCtx(context.Background(), m.Safety())
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Holds {
			t.Errorf("n=%d: safety %v", n, res.Verdict)
		}
		live, err := eng.CheckEventuallyCtx(context.Background(), m.Liveness())
		if err != nil {
			t.Fatal(err)
		}
		if live.Verdict != mc.Holds {
			t.Errorf("n=%d: liveness %v", n, live.Verdict)
		}
	}
}

// TestExplicitSymbolicAgree cross-validates the two engines on the
// baseline model, with and without a faulty node.
func TestExplicitSymbolicAgree(t *testing.T) {
	for _, faulty := range []int{-1, 0} {
		cfg := DefaultConfig(3)
		cfg.FaultyNode = faulty
		m := MustBuild(cfg)
		g, err := explicit.ExploreCtx(context.Background(), m.Sys, explicit.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := symbolic.New(m.Sys.Compile(), symbolic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		count, err := eng.CountStates()
		if err != nil {
			t.Fatal(err)
		}
		if count.Cmp(big.NewInt(int64(g.NumStates()))) != 0 {
			t.Errorf("faulty=%d: symbolic %v != explicit %d", faulty, count, g.NumStates())
		}
		if len(g.Deadlocks) != 0 {
			t.Errorf("faulty=%d: %d deadlocks", faulty, len(g.Deadlocks))
		}
	}
}

// TestFaultyNodeBreaksSafety documents the known flaw: without the new
// algorithm's guardian protections, a masquerade-capable faulty node can
// split the cluster (this is why the paper designed the star-topology
// algorithm).
func TestFaultyNodeBreaksSafety(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.FaultyNode = 0
	cfg.FaultDegree = 3
	m := MustBuild(cfg)
	eng, err := symbolic.New(m.Sys.Compile(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CheckInvariantCtx(context.Background(), m.Safety())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Violated {
		t.Errorf("expected the original algorithm to fail under a degree-3 faulty node, got %v", res.Verdict)
	}
	if res.Trace == nil {
		t.Error("missing counterexample")
	}
}

// TestStateCountGrowsWithN: the Section 3 performance story needs the
// state space to grow steeply with the cluster size.
func TestStateCountGrowsWithN(t *testing.T) {
	prev := 0
	for _, n := range []int{3, 4, 5} {
		g, err := explicit.ExploreCtx(context.Background(), MustBuild(DefaultConfig(n)).Sys, explicit.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g.NumStates() <= prev {
			t.Errorf("n=%d: states %d did not grow (prev %d)", n, g.NumStates(), prev)
		}
		prev = g.NumStates()
	}
}
