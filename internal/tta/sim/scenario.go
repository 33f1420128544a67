package sim

// Scenario generation for Monte-Carlo fault-injection campaigns.
//
// A campaign is a (campaign seed, scenario count) pair: scenario index k is
// expanded deterministically from DeriveSeed(seed, k) alone, with no shared
// RNG between scenarios. That makes every scenario independently
// reproducible — a corpus can persist just (spec, index) and regenerate the
// exact run later — and makes campaign results byte-identical regardless of
// how a worker pool schedules the indices.
//
// The generator covers the scenario diversity the paper never had:
// per-component fault degrees, multiple simultaneous faults (two nodes, or
// a node plus a hub — outside the verified single-failure hypothesis), and
// transient restarts (the model's Section 2.1 restart problem).

import (
	"fmt"
	"math/rand"

	"ttastartup/internal/tta"
)

// ScenarioKind classifies the fault content of a generated scenario.
type ScenarioKind int

// Scenario kinds. The first four stay within (or at the boundary of) the
// verified model's hypotheses and are differentially replayable through the
// gcl model; TwoNodes and NodeAndHub are beyond-hypothesis exploration.
const (
	ScenFaultFree  ScenarioKind = iota // no faults, random power-on only
	ScenFaultyNode                     // one faulty node, per-scenario degree
	ScenFaultyHub                      // one faulty hub
	ScenRestart                        // fault-free plus one transient node restart
	ScenTwoNodes                       // two faulty nodes, independent degrees
	ScenNodeAndHub                     // one faulty node plus one faulty hub
	NumScenarioKinds
)

func (k ScenarioKind) String() string {
	switch k {
	case ScenFaultFree:
		return "fault-free"
	case ScenFaultyNode:
		return "faulty-node"
	case ScenFaultyHub:
		return "faulty-hub"
	case ScenRestart:
		return "restart"
	case ScenTwoNodes:
		return "two-nodes"
	case ScenNodeAndHub:
		return "node-and-hub"
	default:
		return fmt.Sprintf("ScenarioKind(%d)", int(k))
	}
}

// ParseScenarioKind inverts String.
func ParseScenarioKind(s string) (ScenarioKind, error) {
	for k := ScenarioKind(0); k < NumScenarioKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown scenario kind %q", s)
}

// Mix weights the scenario kinds; a scenario's kind is drawn from the
// weights with its own seed. The zero Mix means DefaultMix.
type Mix struct {
	Weights [NumScenarioKinds]int
}

// DefaultMix weights single-fault scenarios heaviest (they exercise the
// verified configurations), keeps some fault-free and restart runs for the
// timeliness baseline and recovery behaviour, and reserves a share for
// beyond-hypothesis multi-fault exploration.
func DefaultMix() Mix {
	var m Mix
	m.Weights[ScenFaultFree] = 1
	m.Weights[ScenFaultyNode] = 4
	m.Weights[ScenFaultyHub] = 2
	m.Weights[ScenRestart] = 2
	m.Weights[ScenTwoNodes] = 2
	m.Weights[ScenNodeAndHub] = 1
	return m
}

func (m Mix) total() int {
	t := 0
	for _, w := range m.Weights {
		t += w
	}
	return t
}

// Validate checks the mix.
func (m Mix) Validate() error {
	for k, w := range m.Weights {
		if w < 0 {
			return fmt.Errorf("sim: negative weight for %s", ScenarioKind(k))
		}
	}
	if m.total() == 0 {
		return fmt.Errorf("sim: scenario mix has zero total weight")
	}
	return nil
}

// GenParams parameterises scenario generation.
type GenParams struct {
	// N is the cluster size.
	N int
	// DeltaInit is the power-on window in slots (0: the paper's 8·round).
	// Node delays, the delayed hub's delay, and restart windows are drawn
	// from it.
	DeltaInit int
	// MaxSlots bounds each run (0: 20·round).
	MaxSlots int
	// Mix weights the scenario kinds (zero: DefaultMix).
	Mix Mix
	// FixedDegree pins every faulty node's degree (0: uniform 1..6 per
	// faulty node).
	FixedDegree int
	// DisableBigBang applies the Section 5.2 design variant to every run.
	DisableBigBang bool
}

// Normalize fills defaults and returns the effective parameters.
func (g GenParams) Normalize() GenParams {
	p := tta.Params{N: g.N}
	if g.DeltaInit == 0 {
		g.DeltaInit = p.DefaultDeltaInit()
	}
	if g.MaxSlots == 0 {
		g.MaxSlots = 20 * p.Round()
	}
	if g.Mix.total() == 0 {
		g.Mix = DefaultMix()
	}
	return g
}

// Validate checks the (normalized) parameters.
func (g GenParams) Validate() error {
	if err := (tta.Params{N: g.N}).Validate(); err != nil {
		return err
	}
	g = g.Normalize()
	if err := g.Mix.Validate(); err != nil {
		return err
	}
	if g.DeltaInit < 1 {
		return fmt.Errorf("sim: delta-init %d must be >= 1", g.DeltaInit)
	}
	if g.MaxSlots < 1 {
		return fmt.Errorf("sim: max-slots %d must be >= 1", g.MaxSlots)
	}
	if g.FixedDegree < 0 || g.FixedDegree > 6 {
		return fmt.Errorf("sim: fixed degree %d out of range 0..6", g.FixedDegree)
	}
	return nil
}

// NodeFaultSpec is one generated faulty node: its identity, fault degree,
// and the private seed of its injector RNG.
type NodeFaultSpec struct {
	ID     int
	Degree int
	Seed   int64
}

// Scenario is one fully-expanded randomized run. It is pure data: Config
// rebuilds fresh injectors from the recorded seeds, so the same Scenario
// always executes the same trace.
type Scenario struct {
	Index uint64
	Seed  int64
	Kind  ScenarioKind

	N         int
	DeltaInit int
	MaxSlots  int

	NodeDelay []int
	HubDelay  [2]int

	FaultyNodes []NodeFaultSpec
	FaultyHub   int   // -1: none
	HubSeed     int64 // faulty hub's injector seed

	Restart *Restart

	DisableBigBang bool
}

// splitmix64 is the SplitMix64 output function — a full-avalanche mixer, so
// consecutive indices yield statistically independent scenario seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed maps (campaign seed, scenario index) to the scenario's private
// RNG seed. The derivation is documented and stable: corpus entries persist
// only the index and regenerate the run from it.
func DeriveSeed(campaignSeed int64, index uint64) int64 {
	return int64(splitmix64(splitmix64(uint64(campaignSeed)) ^ splitmix64(index)))
}

// GenScenario expands scenario `index` of the campaign seeded by
// `campaignSeed`. The expansion depends only on (g, campaignSeed, index).
func GenScenario(g GenParams, campaignSeed int64, index uint64) *Scenario {
	g = g.Normalize()
	s := &Scenario{
		Index:          index,
		Seed:           DeriveSeed(campaignSeed, index),
		N:              g.N,
		DeltaInit:      g.DeltaInit,
		MaxSlots:       g.MaxSlots,
		FaultyHub:      -1,
		DisableBigBang: g.DisableBigBang,
	}
	rng := rand.New(rand.NewSource(s.Seed))

	// 1. Kind, by mix weight.
	r := rng.Intn(g.Mix.total())
	for k, w := range g.Mix.Weights {
		if r < w {
			s.Kind = ScenarioKind(k)
			break
		}
		r -= w
	}

	// 2. Power-on pattern. Nodes wake anywhere in the window; the first
	// correct hub powers on immediately (the paper's load-bearing power-on
	// assumption), the other correct hub is free within the window, and a
	// faulty hub's delay is part of its fault behaviour.
	s.NodeDelay = make([]int, g.N)
	for i := range s.NodeDelay {
		s.NodeDelay[i] = 1 + rng.Intn(g.DeltaInit)
	}

	pickDegree := func() int {
		if g.FixedDegree > 0 {
			return g.FixedDegree
		}
		return 1 + rng.Intn(6)
	}

	switch s.Kind {
	case ScenFaultFree:
		s.HubDelay[1] = rng.Intn(g.DeltaInit)

	case ScenFaultyNode:
		s.HubDelay[1] = rng.Intn(g.DeltaInit)
		s.FaultyNodes = []NodeFaultSpec{{ID: rng.Intn(g.N), Degree: pickDegree(), Seed: rng.Int63()}}

	case ScenFaultyHub:
		ch := rng.Intn(2)
		s.FaultyHub = ch
		s.HubDelay[ch] = rng.Intn(g.DeltaInit)
		s.HubSeed = rng.Int63()

	case ScenRestart:
		s.HubDelay[1] = rng.Intn(g.DeltaInit)
		// The wipe targets any node; it defers until the node has left
		// INIT, so an early slot draw just means "as soon as started". The
		// window stays within δ_init, keeping the trace a legal behaviour
		// of the RestartableNodes model.
		s.Restart = &Restart{
			Node:   rng.Intn(g.N),
			Slot:   1 + rng.Intn(g.DeltaInit+2*g.N),
			Window: 1 + rng.Intn(g.DeltaInit),
		}

	case ScenTwoNodes:
		s.HubDelay[1] = rng.Intn(g.DeltaInit)
		a := rng.Intn(g.N)
		b := rng.Intn(g.N - 1)
		if b >= a {
			b++
		}
		if a > b {
			a, b = b, a
		}
		s.FaultyNodes = []NodeFaultSpec{
			{ID: a, Degree: pickDegree(), Seed: rng.Int63()},
			{ID: b, Degree: pickDegree(), Seed: rng.Int63()},
		}

	case ScenNodeAndHub:
		ch := rng.Intn(2)
		s.FaultyHub = ch
		s.HubDelay[ch] = rng.Intn(g.DeltaInit)
		s.HubSeed = rng.Int63()
		s.FaultyNodes = []NodeFaultSpec{{ID: rng.Intn(g.N), Degree: pickDegree(), Seed: rng.Int63()}}
	}
	return s
}

// Config materialises the scenario into a simulator configuration,
// rebuilding injectors from the recorded seeds. Calling Config twice yields
// behaviourally identical clusters.
func (s *Scenario) Config() Config {
	cfg := Config{
		N:              s.N,
		FaultyNode:     -1,
		FaultyHub:      s.FaultyHub,
		NodeDelay:      append([]int(nil), s.NodeDelay...),
		HubDelay:       s.HubDelay,
		DisableBigBang: s.DisableBigBang,
	}
	if s.Restart != nil {
		r := *s.Restart
		cfg.Restarts = []Restart{r}
	}
	nodeInj := func(nf NodeFaultSpec) *RandomNodeInjector {
		return &RandomNodeInjector{N: s.N, ID: nf.ID, Degree: nf.Degree, Rng: rand.New(rand.NewSource(nf.Seed))}
	}
	if s.FaultyHub >= 0 {
		// The hub owns the legacy Injector slot; any faulty nodes ride in
		// MoreFaultyNodes (the legacy pair keeps its single-failure check).
		cfg.Injector = &RandomHubInjector{N: s.N, Rng: rand.New(rand.NewSource(s.HubSeed))}
		for _, nf := range s.FaultyNodes {
			cfg.MoreFaultyNodes = append(cfg.MoreFaultyNodes, NodeFault{ID: nf.ID, Injector: nodeInj(nf)})
		}
		return cfg
	}
	for i, nf := range s.FaultyNodes {
		if i == 0 {
			cfg.FaultyNode = nf.ID
			cfg.Injector = nodeInj(nf)
			continue
		}
		cfg.MoreFaultyNodes = append(cfg.MoreFaultyNodes, NodeFault{ID: nf.ID, Injector: nodeInj(nf)})
	}
	return cfg
}

// InHypothesis reports whether the scenario stays within the verified
// model's fault hypotheses (at most one permanently faulty component, one
// optional restart) and is therefore differentially replayable through the
// gcl model.
func (s *Scenario) InHypothesis() bool {
	switch s.Kind {
	case ScenFaultFree, ScenFaultyNode, ScenFaultyHub, ScenRestart:
		return true
	default:
		return false
	}
}

// Describe renders a one-line scenario summary.
func (s *Scenario) Describe() string {
	d := fmt.Sprintf("#%d %s n=%d delays=%v", s.Index, s.Kind, s.N, s.NodeDelay)
	for _, nf := range s.FaultyNodes {
		d += fmt.Sprintf(" node%d@deg%d", nf.ID, nf.Degree)
	}
	if s.FaultyHub >= 0 {
		d += fmt.Sprintf(" hub%d(delay %d)", s.FaultyHub, s.HubDelay[s.FaultyHub])
	}
	if s.Restart != nil {
		d += fmt.Sprintf(" restart(node %d, slot %d, window %d)", s.Restart.Node, s.Restart.Slot, s.Restart.Window)
	}
	return d
}

// Outcome summarises one executed scenario.
type Outcome struct {
	// Synced reports whether every correct node reached ACTIVE within
	// MaxSlots.
	Synced bool
	// Agreement reports whether the final state satisfied positional
	// agreement among active correct nodes.
	Agreement bool
	// Startup is the measured startup time in slots (meaningful when
	// Synced).
	Startup int
	// Slots is the number of slots executed.
	Slots int
}

// Execute runs the scenario to completion, invoking observe (when non-nil)
// after every step — the hook the campaign layer uses for coverage
// accounting. Execution is deterministic in the scenario alone.
func (s *Scenario) Execute(observe func(*Cluster)) (Outcome, error) {
	c, err := New(s.Config())
	if err != nil {
		return Outcome{}, err
	}
	synced := false
	for c.Slot() < s.MaxSlots {
		c.Step()
		if observe != nil {
			observe(c)
		}
		// A pending restart keeps the run alive past the first
		// synchronisation: the interesting part is the recovery.
		if c.AllCorrectActive() && !c.anyRestartPending() {
			synced = true
			break
		}
	}
	return Outcome{
		Synced:    synced,
		Agreement: c.Agreement(),
		Startup:   c.StartupTime(),
		Slots:     c.Slot(),
	}, nil
}
