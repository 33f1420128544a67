package sim

import (
	"reflect"
	"testing"
)

// TestDeriveSeed pins the derivation's basic properties: determinism and
// index sensitivity (the splitmix64 mixer avalanches, so even consecutive
// indices yield unrelated seeds).
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(7, 3) != DeriveSeed(7, 3) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	seen := map[int64]uint64{}
	for k := range uint64(10000) {
		s := DeriveSeed(7, k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between indices %d and %d", prev, k)
		}
		seen[s] = k
	}
	if DeriveSeed(7, 3) == DeriveSeed(8, 3) {
		t.Fatal("campaign seed does not influence the derived seed")
	}
}

// TestGenScenarioDeterministic checks that expansion depends only on
// (params, campaign seed, index) — the property that makes worker
// scheduling irrelevant and corpus entries replayable.
func TestGenScenarioDeterministic(t *testing.T) {
	g := GenParams{N: 4}
	for k := range uint64(200) {
		a := GenScenario(g, 7, k)
		b := GenScenario(g, 7, k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("index %d: two expansions differ:\n%s\n%s", k, a.Describe(), b.Describe())
		}
	}
}

// TestGenScenarioShape validates every generated scenario structurally and
// checks that the default mix reaches all kinds.
func TestGenScenarioShape(t *testing.T) {
	g := GenParams{N: 4}.Normalize()
	seenKind := map[ScenarioKind]int{}
	for k := range uint64(500) {
		s := GenScenario(g, 42, k)
		seenKind[s.Kind]++
		if _, err := New(s.Config()); err != nil {
			t.Fatalf("index %d (%s): invalid config: %v", k, s.Describe(), err)
		}
		for _, nf := range s.FaultyNodes {
			if nf.Degree < 1 || nf.Degree > 6 {
				t.Fatalf("index %d: degree %d out of range", k, nf.Degree)
			}
		}
		if s.Kind == ScenTwoNodes {
			if len(s.FaultyNodes) != 2 || s.FaultyNodes[0].ID >= s.FaultyNodes[1].ID {
				t.Fatalf("index %d: bad two-node scenario %s", k, s.Describe())
			}
		}
		if s.Restart != nil && s.Restart.Window > s.DeltaInit {
			t.Fatalf("index %d: restart window %d exceeds delta-init %d (breaks model replay)",
				k, s.Restart.Window, s.DeltaInit)
		}
		if s.InHypothesis() != (s.Kind != ScenTwoNodes && s.Kind != ScenNodeAndHub) {
			t.Fatalf("index %d: wrong InHypothesis for %s", k, s.Kind)
		}
	}
	for kind := ScenarioKind(0); kind < NumScenarioKinds; kind++ {
		if seenKind[kind] == 0 {
			t.Errorf("default mix never produced %s in 500 scenarios", kind)
		}
		if _, err := ParseScenarioKind(kind.String()); err != nil {
			t.Errorf("ParseScenarioKind does not invert %s: %v", kind, err)
		}
	}
}

// TestScenarioExecuteDeterministic re-executes scenarios and demands
// identical outcomes — Config rebuilds injectors from recorded seeds, so a
// scenario is pure data.
func TestScenarioExecuteDeterministic(t *testing.T) {
	g := GenParams{N: 4}
	for k := range uint64(100) {
		s := GenScenario(g, 3, k)
		a, err := s.Execute(nil)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		b, err := s.Execute(func(*Cluster) { steps++ })
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("index %d (%s): outcomes differ: %+v vs %+v", k, s.Describe(), a, b)
		}
		if steps != b.Slots {
			t.Fatalf("index %d: observer saw %d steps, outcome reports %d slots", k, steps, b.Slots)
		}
	}
}

// TestTwoSilentNodes checks the multi-fault machinery directly: with two
// fail-silent nodes the remaining pair must still start up and agree.
func TestTwoSilentNodes(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.FaultyNode = 1
	cfg.Injector = SilentInjector{N: 4}
	cfg.MoreFaultyNodes = []NodeFault{{ID: 3, Injector: SilentInjector{N: 4}}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Run(160) {
		t.Fatal("two silent faulty nodes: correct pair never synchronized")
	}
	if !c.Agreement() {
		t.Fatal("two silent faulty nodes: agreement violated")
	}
}

// TestRestartReintegration checks the transient-restart machinery: the
// restarted node leaves ACTIVE, re-integrates, and the cluster ends
// synchronized with agreement.
func TestRestartReintegration(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := GenParams{N: 4}
		var mix Mix
		mix.Weights[ScenRestart] = 1
		g.Mix = mix
		s := GenScenario(g, seed, 0)
		node := s.Restart.Node
		wiped := false
		out, err := s.Execute(func(c *Cluster) {
			if !c.RestartPending(node) && c.NodeState(node) == NodeInit {
				wiped = true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !wiped {
			t.Fatalf("seed %d (%s): restart never wiped node %d", seed, s.Describe(), node)
		}
		if !out.Synced || !out.Agreement {
			t.Fatalf("seed %d (%s): cluster did not recover: %+v", seed, s.Describe(), out)
		}
	}
}

// TestConfigValidateFaults exercises the new validation paths.
func TestConfigValidateFaults(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig(4)
		cfg.FaultyNode = 0
		cfg.Injector = SilentInjector{N: 4}
		return cfg
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"duplicate-extra", func(c *Config) {
			c.MoreFaultyNodes = []NodeFault{{ID: 0, Injector: SilentInjector{N: 4}}}
		}},
		{"extra-out-of-range", func(c *Config) {
			c.MoreFaultyNodes = []NodeFault{{ID: 4, Injector: SilentInjector{N: 4}}}
		}},
		{"extra-no-injector", func(c *Config) {
			c.MoreFaultyNodes = []NodeFault{{ID: 2}}
		}},
		{"restart-faulty-node", func(c *Config) {
			c.Restarts = []Restart{{Node: 0, Slot: 2, Window: 1}}
		}},
		{"restart-twice", func(c *Config) {
			c.Restarts = []Restart{{Node: 1, Slot: 2, Window: 1}, {Node: 1, Slot: 5, Window: 1}}
		}},
		{"restart-bad-slot", func(c *Config) {
			c.Restarts = []Restart{{Node: 1, Slot: 0, Window: 1}}
		}},
		{"restart-bad-window", func(c *Config) {
			c.Restarts = []Restart{{Node: 1, Slot: 2, Window: 0}}
		}},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validation passed unexpectedly", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
}
