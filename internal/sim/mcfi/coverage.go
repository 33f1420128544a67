package mcfi

// Abstract coverage accounting. The abstraction is the paper's own
// state-machine view: each component contributes its protocol state — a
// node is one of {init, listen, coldstart, active}, a hub one of the seven
// Fig. 2b states — and the cluster's abstract state packs those values, 3
// bits per component, into a uint64 (faulty components carry the marker 7:
// they have no protocol state of their own). Coverage is tracked at two
// granularities:
//
//   - per-component transitions (the "(NodeState, HubState) transition
//     alphabet"): edge keys identify (component, from, to) with from ≠ to.
//     The alphabet is tiny (12·n + 84 for n nodes and two hubs), so it
//     saturates early in a campaign — a run that still exercises a new
//     edge is interesting by construction and enters the corpus.
//
//   - abstract cluster states: the packed uint64 codes. Small scopes
//     compare the simulation-visited set against the same abstraction of
//     the verified model's reachable states (explicit BFS over the gcl
//     stepper), quantifying how much of the exhaustively-checked space the
//     randomized campaign actually touches.

import (
	"fmt"
	"sort"

	"ttastartup/internal/gcl"
	"ttastartup/internal/tta/sim"
	"ttastartup/internal/tta/startup"
)

const (
	compBits   = 3
	faultyMark = 7
)

// EdgeSpace returns the size of the component-transition alphabet for n
// nodes and two hubs: every ordered pair of distinct states per component.
func EdgeSpace(n int) int { return n*4*3 + 2*7*6 }

// edgeKey packs (component, from, to). Components are numbered nodes
// 0..n-1, then hubs n and n+1.
func edgeKey(comp, from, to int) uint32 {
	return uint32(comp)<<6 | uint32(from)<<3 | uint32(to)
}

// EdgeString renders an edge key for humans.
func EdgeString(n int, key uint32) string {
	comp := int(key >> 6)
	from := int(key >> 3 & 7)
	to := int(key & 7)
	if comp < n {
		return fmt.Sprintf("node%d:%s->%s", comp, sim.NodeState(from), sim.NodeState(to))
	}
	return fmt.Sprintf("hub%d:%s->%s", comp-n, sim.HubState(from), sim.HubState(to))
}

// runCover observes one run's abstract trajectory.
type runCover struct {
	n     int
	prev  []int // last abstract value per component, -1 before the first step
	edges map[uint32]struct{}
}

func newRunCover(n int) *runCover {
	rc := &runCover{n: n, prev: make([]int, n+2), edges: make(map[uint32]struct{})}
	for i := range rc.prev {
		rc.prev[i] = -1
	}
	return rc
}

// observe records the cluster's post-step abstract state into states and
// the component transitions since the previous step into rc.edges.
func (rc *runCover) observe(c *sim.Cluster, states map[uint64]struct{}) {
	var code uint64
	at := func(comp, val int, faulty bool) {
		if faulty {
			val = faultyMark
		}
		code |= uint64(val) << (compBits * comp)
		if !faulty && rc.prev[comp] >= 0 && rc.prev[comp] != val {
			rc.edges[edgeKey(comp, rc.prev[comp], val)] = struct{}{}
		}
		rc.prev[comp] = val
	}
	for i := range rc.n {
		at(i, int(c.NodeState(i)), c.NodeFaulty(i))
	}
	for ch := range 2 {
		at(rc.n+ch, int(c.HubState(ch)), c.HubFaulty(ch))
	}
	states[code] = struct{}{}
}

// ModelCoverage is the verified-model side of the coverage comparison at
// one small scope.
type ModelCoverage struct {
	// Name identifies the configuration ("fault-free", "faulty-node-0",
	// ...).
	Name string `json:"name"`
	// Reachable is the exact reachable full-state count (explicit BFS).
	Reachable int `json:"reachable"`
	// AbstractStates is the number of distinct abstract codes among them.
	AbstractStates int `json:"abstract_states"`
}

// ModelAbstract BFS-explores one verified-model configuration exhaustively
// and returns its abstract-code set plus the exact reachable-state count.
// maxStates guards against accidentally launching an explosion (0: 4M).
func ModelAbstract(cfg startup.Config, maxStates int) (map[uint64]struct{}, int, error) {
	if maxStates <= 0 {
		maxStates = 4_000_000
	}
	m, err := startup.Build(cfg)
	if err != nil {
		return nil, 0, err
	}
	stepper := gcl.NewStepper(m.Sys)
	vars := m.Sys.StateVars()

	abs := func(st gcl.State) uint64 {
		var code uint64
		for i, nd := range m.Nodes {
			v := faultyMark
			if nd != nil {
				v = st.Get(nd.State)
			}
			code |= uint64(v) << (compBits * i)
		}
		for ch := range 2 {
			v := faultyMark
			if m.Ctrls[ch] != nil {
				v = st.Get(m.Ctrls[ch].State)
			}
			code |= uint64(v) << (compBits * (cfg.N + ch))
		}
		return code
	}

	codes := make(map[uint64]struct{})
	visited := make(map[string]struct{})
	var frontier []gcl.State
	push := func(st gcl.State) bool {
		key := gcl.Key(st, vars)
		if _, ok := visited[key]; ok {
			return true
		}
		if len(visited) >= maxStates {
			return false
		}
		visited[key] = struct{}{}
		codes[abs(st)] = struct{}{}
		frontier = append(frontier, st.Clone())
		return true
	}
	full := false
	stepper.InitStates(func(st gcl.State) bool {
		if !push(st) {
			full = true
			return false
		}
		return true
	})
	for len(frontier) > 0 && !full {
		st := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		stepper.Successors(st, func(succ gcl.State) bool {
			if !push(succ) {
				full = true
				return false
			}
			return true
		})
	}
	if full {
		return nil, 0, fmt.Errorf("mcfi: model BFS exceeded %d states", maxStates)
	}
	return codes, len(visited), nil
}

// NamedConfig pairs a verified-model configuration with a display name.
type NamedConfig struct {
	Name string
	Cfg  startup.Config
}

// ModelConfigs returns the verified-model configurations whose behaviours
// jointly contain every scenario the spec's mix can generate: one config
// per in-hypothesis mix entry, expanded over every faulty component the
// generator may pick. Specs mixing beyond-hypothesis kinds (two nodes,
// node-and-hub) have no model counterpart and error — the coverage
// comparison is only meaningful for in-hypothesis campaigns.
func (sp Spec) ModelConfigs() ([]NamedConfig, error) {
	sp = sp.Normalize()
	base := startup.DefaultConfig(sp.N)
	base.DeltaInit = sp.DeltaInit
	base.DisableBigBang = sp.DisableBigBang
	names := make([]string, 0, len(sp.Mix))
	for name, w := range sp.Mix {
		if w > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []NamedConfig
	for _, name := range names {
		kind, err := sim.ParseScenarioKind(name)
		if err != nil {
			return nil, err
		}
		switch kind {
		case sim.ScenFaultFree:
			out = append(out, NamedConfig{"fault-free", base})
		case sim.ScenFaultyNode:
			for id := range sp.N {
				cfg := base.WithFaultyNode(id)
				if sp.Degree > 0 {
					// The kind sets are cumulative in the degree, so the
					// default degree-6 model contains every random draw;
					// a pinned degree shrinks the havoc enumeration.
					cfg.FaultDegree = sp.Degree
				}
				out = append(out, NamedConfig{fmt.Sprintf("faulty-node-%d", id), cfg})
			}
		case sim.ScenFaultyHub:
			for ch := range 2 {
				out = append(out, NamedConfig{fmt.Sprintf("faulty-hub-%d", ch), base.WithFaultyHub(ch)})
			}
		case sim.ScenRestart:
			cfg := base
			cfg.RestartableNodes = true
			out = append(out, NamedConfig{"restartable", cfg})
		default:
			return nil, fmt.Errorf("mcfi: mix kind %s is beyond the fault hypothesis — no model to compare coverage against", name)
		}
	}
	return out, nil
}

// Coverage compares a campaign's visited abstract states with the
// verified model's at the same scope.
type Coverage struct {
	Visited int // distinct abstract states the campaign visited
	Model   int // abstract states in the model union
	// Outside counts visited states outside the model union; for an
	// in-hypothesis campaign it must be 0.
	Outside int
	Configs []ModelCoverage
}

// Inside returns the number of visited abstract states the model reaches.
func (c Coverage) Inside() int { return c.Visited - c.Outside }

// CompareCoverage explores each model configuration behind sp's mix
// (ModelConfigs) exhaustively and compares the union of their
// abstract-code sets with visited, a report's Visited set. The union is
// the exhaustive reference: for an in-hypothesis campaign at the same
// scope, visited ⊆ union (the conformance theorem lifted to the
// abstraction).
func CompareCoverage(sp Spec, visited map[uint64]struct{}) (Coverage, error) {
	cfgs, err := sp.ModelConfigs()
	if err != nil {
		return Coverage{}, err
	}
	c := Coverage{Visited: len(visited)}
	union := make(map[uint64]struct{})
	for _, nc := range cfgs {
		codes, reachable, err := ModelAbstract(nc.Cfg, 0)
		if err != nil {
			return Coverage{}, fmt.Errorf("%s: %w", nc.Name, err)
		}
		for code := range codes {
			union[code] = struct{}{}
		}
		c.Configs = append(c.Configs, ModelCoverage{Name: nc.Name, Reachable: reachable, AbstractStates: len(codes)})
	}
	c.Model = len(union)
	for code := range visited {
		if _, ok := union[code]; !ok {
			c.Outside++
		}
	}
	return c, nil
}
