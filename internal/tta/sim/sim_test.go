package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFaultFreeStartup(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
		cfg := DefaultConfig(n)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Run(20 * n) {
			t.Errorf("n=%d: failed to synchronize", n)
		}
		if !c.Agreement() {
			t.Errorf("n=%d: agreement violated", n)
		}
	}
}

func TestStaggeredWakeups(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.NodeDelay = []int{1, 9, 17, 25}
	cfg.HubDelay[1] = 6
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Run(120) {
		t.Fatal("staggered cluster failed to synchronize")
	}
	if !c.Agreement() {
		t.Fatal("agreement violated")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(4)
	bad.NodeDelay = []int{0, 1, 1, 1}
	if _, err := New(bad); err == nil {
		t.Error("delay 0 should be rejected (guardians power on first)")
	}
	bad2 := DefaultConfig(4)
	bad2.FaultyNode = 1
	if _, err := New(bad2); err == nil {
		t.Error("faulty node without injector should be rejected")
	}
	bad3 := DefaultConfig(4)
	bad3.FaultyNode = 0
	bad3.FaultyHub = 1
	bad3.Injector = SilentInjector{N: 4}
	if _, err := New(bad3); err == nil {
		t.Error("double fault should be rejected")
	}
}

// TestSilentFaultyNode: a fail-silent node must not prevent the others
// from starting up.
func TestSilentFaultyNode(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.FaultyNode = 2
	cfg.Injector = SilentInjector{N: 4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Run(100) {
		t.Fatal("correct nodes failed to synchronize around a silent node")
	}
}

// TestSpamCSFaultyNode: a node flooding cs-frames is locked by the
// guardians and the cluster still starts.
func TestSpamCSFaultyNode(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.NodeDelay = []int{2, 4, 6, 1}
	cfg.FaultyNode = 3
	cfg.Injector = &SpamCSInjector{N: 4, Rng: rand.New(rand.NewSource(1))}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Run(160) {
		t.Fatal("correct nodes failed to synchronize around a cs-spamming node")
	}
	if !c.Agreement() {
		t.Fatal("agreement violated")
	}
	// The spammer masquerades, so at least one guardian must have locked it.
	locked := false
	for ch := range 2 {
		if c.hubs[ch] != nil && c.hubs[ch].lock[3] {
			locked = true
		}
	}
	if !locked {
		t.Error("spamming node was never locked")
	}
}

// TestRandomFaultyNodeAgreement is the property-based fault-injection
// check: across random seeds, delays, and degree-6 faulty-node behaviour,
// active correct nodes must always agree (safety, statistically).
func TestRandomFaultyNodeAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(4)
		for i := range cfg.NodeDelay {
			cfg.NodeDelay[i] = 1 + rng.Intn(16)
		}
		cfg.HubDelay[1] = rng.Intn(16)
		cfg.FaultyNode = rng.Intn(4)
		cfg.Injector = &RandomNodeInjector{N: 4, ID: cfg.FaultyNode, Degree: 6, Rng: rng}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		c.Run(160)
		return c.Agreement()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestRandomFaultyHubAgreement: the same safety property under a random
// faulty hub.
func TestRandomFaultyHubAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(4)
		for i := range cfg.NodeDelay {
			cfg.NodeDelay[i] = 1 + rng.Intn(16)
		}
		cfg.FaultyHub = rng.Intn(2)
		cfg.HubDelay[cfg.FaultyHub] = rng.Intn(16)
		cfg.Injector = &RandomHubInjector{N: 4, Rng: rng}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		c.Run(160)
		return c.Agreement()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDescribe(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.FaultyNode = 1
	cfg.Injector = SilentInjector{N: 3}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Step()
	s := c.Describe()
	for _, want := range []string{"slot", "n0:", "n1:FAULTY", "h0:", "h1:"} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe missing %q: %s", want, s)
		}
	}
}

func TestMsgKindString(t *testing.T) {
	if Quiet.String() != "quiet" || CS.String() != "cs" || I.String() != "i" || Noise.String() != "noise" {
		t.Error("MsgKind strings broken")
	}
	if NodeColdstart.String() != "coldstart" || HubProtected.String() != "protected" {
		t.Error("state strings broken")
	}
}

// TestInjectionMayMissTheBigBangBug illustrates the paper's central
// argument for exhaustive fault simulation: the big-bang-off design flaw,
// which the model checker refutes in milliseconds with a 13-step
// counterexample, requires such precise timing (a cs-collision partitioned
// by the faulty hub in the same slot) that thousands of randomized
// fault-injection runs typically never trigger it. The test asserts only
// soundness of the harness (runs complete); the hit/miss count is logged.
func TestInjectionMayMissTheBigBangBug(t *testing.T) {
	violations := 0
	const runs = 2000
	rng := rand.New(rand.NewSource(99))
	for range runs {
		cfg := DefaultConfig(3)
		for i := range cfg.NodeDelay {
			cfg.NodeDelay[i] = 1 + rng.Intn(6)
		}
		cfg.FaultyHub = 0
		cfg.HubDelay[0] = rng.Intn(6)
		cfg.DisableBigBang = true
		cfg.Injector = &RandomHubInjector{N: 3, Rng: rng}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(60)
		if !c.Agreement() {
			violations++
		}
	}
	t.Logf("big-bang-off flaw triggered in %d/%d random runs (model checking finds it always)", violations, runs)
}
