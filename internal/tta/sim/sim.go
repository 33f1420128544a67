// Package sim is a concrete, executable discrete-time simulator of the TTA
// startup algorithm — an independent re-implementation of the verified
// model's semantics in plain Go. Where the model checker explores ALL
// behaviours (exhaustive fault simulation), the simulator executes ONE
// behaviour per run under a pluggable fault injector and scheduler, which
// makes it the substrate for Monte-Carlo fault-injection campaigns (the
// experimental technique of the paper's reference [1]) and for runnable
// examples. A conformance test checks that every simulator step is a legal
// transition of the verified gcl model.
package sim

import (
	"fmt"
	"strings"

	"ttastartup/internal/tta"
)

// MsgKind is a channel symbol.
type MsgKind int

// Channel symbols.
const (
	Quiet MsgKind = iota
	Noise
	CS
	I
)

func (k MsgKind) String() string {
	switch k {
	case Quiet:
		return "quiet"
	case Noise:
		return "noise"
	case CS:
		return "cs"
	case I:
		return "i"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Frame is a message with its claimed slot id.
type Frame struct {
	Kind MsgKind
	Time int
}

// NodeState is a node's protocol state.
type NodeState int

// Node states.
const (
	NodeInit NodeState = iota
	NodeListen
	NodeColdstart
	NodeActive
)

func (s NodeState) String() string {
	return [...]string{"init", "listen", "coldstart", "active"}[s]
}

// HubState is a guardian's protocol state.
type HubState int

// Hub states.
const (
	HubInit HubState = iota
	HubListen
	HubStartup
	HubTentative
	HubSilence
	HubProtected
	HubActive
)

func (s HubState) String() string {
	return [...]string{"init", "listen", "startup", "tentative", "silence", "protected", "active"}[s]
}

// NodeFault designates one additional permanently faulty node driven by
// its own injector. Listing any NodeFault steps outside the paper's
// single-failure hypothesis — the model checker has no counterpart for
// these configurations, which is exactly the scenario diversity the
// Monte-Carlo campaigns exist to explore (multiple simultaneous faults,
// per-component fault degrees).
type NodeFault struct {
	// ID is the faulty node.
	ID int
	// Injector drives the node's per-slot transmissions.
	Injector NodeInjector
}

// Restart schedules a transient fault on a correct node: at Slot (or the
// first later slot at which the node has left INIT) its protocol state is
// wiped back to INIT — counter 1, big-bang re-armed, output quiet — and it
// re-integrates after Window slots of power-on delay. This mirrors the
// verified model's Section 2.1 restart problem (Config.RestartableNodes):
// a single-node restart trace is a legal behaviour of that model, which is
// what makes restart scenarios differentially replayable.
type Restart struct {
	// Node is the restarting node.
	Node int
	// Slot is the earliest slot at which the wipe fires (>= 1). The wipe
	// is deferred while the node is still in INIT (the model's restart
	// command requires a started node).
	Slot int
	// Window is the node's renewed power-on delay in slots (>= 1). Keep it
	// within the model's δ_init if the trace is to replay through the
	// RestartableNodes model.
	Window int
}

// Config parameterises a simulation.
type Config struct {
	// N is the number of nodes.
	N int
	// FaultyNode designates a faulty node (-1: none).
	FaultyNode int
	// FaultyHub designates a faulty hub (-1: none).
	FaultyHub int
	// NodeDelay[i] is node i's power-on delay in slots (>= 1; the hubs
	// power on at slot 0, per the paper's power-on assumption).
	NodeDelay []int
	// HubDelay[ch] is hub ch's power-on delay (0 for an immediate start).
	HubDelay [2]int
	// Injector drives the faulty components (nil: everything correct).
	Injector Injector
	// MoreFaultyNodes lists additional permanently faulty nodes, each with
	// its own injector — configurations beyond the single-failure
	// hypothesis. They may be combined with FaultyHub (and with each
	// other); only the legacy FaultyNode/FaultyHub pair keeps its
	// single-failure validation.
	MoreFaultyNodes []NodeFault
	// Restarts schedules transient wipe-to-INIT faults on correct nodes,
	// at most one per node (matching the verified model's one-restart
	// budget).
	Restarts []Restart
	// DisableBigBang mirrors the verified model's Section 5.2 design
	// variant: nodes synchronise directly on the first cs-frame.
	DisableBigBang bool
}

// DefaultConfig returns a fault-free configuration with all nodes waking
// at slot 1.
func DefaultConfig(n int) Config {
	delays := make([]int, n)
	for i := range delays {
		delays[i] = 1
	}
	return Config{N: n, FaultyNode: -1, FaultyHub: -1, NodeDelay: delays}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := (tta.Params{N: c.N}).Validate(); err != nil {
		return err
	}
	if len(c.NodeDelay) != c.N {
		return fmt.Errorf("sim: need %d node delays, got %d", c.N, len(c.NodeDelay))
	}
	for i, d := range c.NodeDelay {
		if d < 1 {
			return fmt.Errorf("sim: node %d delay %d must be >= 1 (guardians power on first)", i, d)
		}
	}
	if c.FaultyNode >= 0 && c.FaultyHub >= 0 {
		return fmt.Errorf("sim: single-failure hypothesis forbids two faulty components")
	}
	if c.FaultyNode >= c.N || c.FaultyHub > 1 {
		return fmt.Errorf("sim: faulty component out of range")
	}
	if (c.FaultyNode >= 0 || c.FaultyHub >= 0) && c.Injector == nil {
		return fmt.Errorf("sim: faulty component configured without an injector")
	}
	faulty := map[int]bool{}
	if c.FaultyNode >= 0 {
		faulty[c.FaultyNode] = true
	}
	for _, nf := range c.MoreFaultyNodes {
		if nf.ID < 0 || nf.ID >= c.N {
			return fmt.Errorf("sim: extra faulty node %d out of range", nf.ID)
		}
		if faulty[nf.ID] {
			return fmt.Errorf("sim: node %d listed faulty twice", nf.ID)
		}
		if nf.Injector == nil {
			return fmt.Errorf("sim: extra faulty node %d has no injector", nf.ID)
		}
		faulty[nf.ID] = true
	}
	restarting := map[int]bool{}
	for _, r := range c.Restarts {
		if r.Node < 0 || r.Node >= c.N {
			return fmt.Errorf("sim: restart node %d out of range", r.Node)
		}
		if faulty[r.Node] {
			return fmt.Errorf("sim: restart node %d is already faulty", r.Node)
		}
		if restarting[r.Node] {
			return fmt.Errorf("sim: node %d scheduled to restart twice", r.Node)
		}
		if r.Slot < 1 {
			return fmt.Errorf("sim: restart slot %d must be >= 1", r.Slot)
		}
		if r.Window < 1 {
			return fmt.Errorf("sim: restart window %d must be >= 1", r.Window)
		}
		restarting[r.Node] = true
	}
	return nil
}

// NodeInjector drives one faulty node's per-slot transmissions.
type NodeInjector interface {
	// FaultyNodeOutput returns the faulty node's transmission on each
	// channel for the given slot.
	FaultyNodeOutput(slot int) [2]Frame
}

// Injector decides a faulty component's behaviour each slot.
type Injector interface {
	NodeInjector
	// FaultyHubRelay decides the faulty hub's per-node delivery and
	// interlink output given the frame it arbitrated this slot (Kind ==
	// Quiet when no port was active). deliver[i] selects what node i
	// receives; il selects the interlink output. Deliveries may only be
	// the frame itself, Noise, or Quiet (the fault hypothesis: a hub
	// cannot fabricate or delay valid frames).
	FaultyHubRelay(slot int, frame Frame) (deliver []MsgKind, il MsgKind)
}

// node is one correct node's runtime state.
type node struct {
	state   NodeState
	counter int
	pos     int
	bigBang bool
	delay   int   // power-on delay in slots (renewed by a restart)
	out     Frame // transmission this slot (both channels)
}

// hub is one correct guardian's runtime state.
type hub struct {
	state   HubState
	counter int
	pos     int
	lock    []bool
	// relayed is the hub's broadcast/interlink output this slot.
	relayed Frame
	src     int // winning port, -1 none
}

// Cluster is a running simulation.
type Cluster struct {
	cfg  Config
	p    tta.Params
	slot int

	nodes []*node
	hubs  [2]*hub

	// injected[i] drives faulty node i (nil for correct nodes); fout[i] is
	// its per-channel output this slot.
	injected []NodeInjector
	fout     [][2]Frame

	// restartAt/restartWin[i] schedule node i's pending transient restart
	// (restartPending[i] clears once the wipe fires).
	restartAt      []int
	restartWin     []int
	restartPending []bool

	// in[ch][i] is what node i hears on channel ch next slot.
	in [2][]Frame

	startupTime int
	frozen      bool
}

// New builds a cluster simulation.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, p: tta.Params{N: cfg.N}}
	c.nodes = make([]*node, cfg.N)
	c.injected = make([]NodeInjector, cfg.N)
	c.fout = make([][2]Frame, cfg.N)
	if cfg.FaultyNode >= 0 {
		c.injected[cfg.FaultyNode] = cfg.Injector
	}
	for _, nf := range cfg.MoreFaultyNodes {
		c.injected[nf.ID] = nf.Injector
	}
	for i := range cfg.N {
		if c.injected[i] != nil {
			continue
		}
		c.nodes[i] = &node{state: NodeInit, counter: 1, bigBang: true, delay: cfg.NodeDelay[i]}
	}
	c.restartAt = make([]int, cfg.N)
	c.restartWin = make([]int, cfg.N)
	c.restartPending = make([]bool, cfg.N)
	for _, r := range cfg.Restarts {
		c.restartAt[r.Node] = r.Slot
		c.restartWin[r.Node] = r.Window
		c.restartPending[r.Node] = true
	}
	for ch := range 2 {
		if ch == cfg.FaultyHub {
			continue
		}
		c.hubs[ch] = &hub{state: HubInit, counter: 1, lock: make([]bool, cfg.N), src: -1}
	}
	for ch := range 2 {
		c.in[ch] = make([]Frame, cfg.N)
	}
	return c, nil
}

// Slot returns the current slot number (starting at 1 after the first
// Step).
func (c *Cluster) Slot() int { return c.slot }

// StartupTime returns the measured startup duration so far (slots between
// two correct nodes awake and the first correct node active).
func (c *Cluster) StartupTime() int { return c.startupTime }

// NodeState returns node i's protocol state (faulty nodes report Active).
func (c *Cluster) NodeState(i int) NodeState {
	if c.nodes[i] == nil {
		return NodeActive
	}
	return c.nodes[i].state
}

// HubState returns hub ch's protocol state (a faulty hub reports Active).
func (c *Cluster) HubState(ch int) HubState {
	if c.hubs[ch] == nil {
		return HubActive
	}
	return c.hubs[ch].state
}

// RestartPending reports whether node i still has a scheduled transient
// restart that has not fired yet.
func (c *Cluster) RestartPending(i int) bool { return c.restartPending[i] }

// NodeFaulty reports whether node i is driven by a fault injector.
func (c *Cluster) NodeFaulty(i int) bool { return c.injected[i] != nil }

// HubFaulty reports whether hub ch is driven by a fault injector.
func (c *Cluster) HubFaulty(ch int) bool { return c.hubs[ch] == nil }

func (c *Cluster) anyRestartPending() bool {
	for _, p := range c.restartPending {
		if p {
			return true
		}
	}
	return false
}

// AllCorrectActive reports whether every correct node is synchronised.
func (c *Cluster) AllCorrectActive() bool {
	for _, n := range c.nodes {
		if n != nil && n.state != NodeActive {
			return false
		}
	}
	return true
}

// Agreement reports whether all correct active nodes agree on the slot
// position.
func (c *Cluster) Agreement() bool {
	pos := -1
	for _, n := range c.nodes {
		if n == nil || n.state != NodeActive {
			continue
		}
		if pos == -1 {
			pos = n.pos
		} else if n.pos != pos {
			return false
		}
	}
	return true
}

// Step advances the simulation by one slot, mirroring the verified model's
// evaluation order: nodes (and the faulty node) transmit, hubs arbitrate
// and relay, controllers step, and the latched channel inputs update.
func (c *Cluster) Step() {
	c.slot++

	// 1. Node phase: react to last slot's channel inputs, produce outputs.
	// A due transient restart replaces the node's step: the wipe mirrors
	// the verified model's transient-restart command exactly (INIT, counter
	// 1, quiet output, big-bang re-armed), and is deferred while the node
	// is still in INIT, matching the command's ¬INIT guard.
	for i, n := range c.nodes {
		if n == nil {
			continue
		}
		if c.restartPending[i] && c.slot >= c.restartAt[i] && n.state != NodeInit {
			c.restartPending[i] = false
			n.state = NodeInit
			n.counter = 1
			n.pos = 0
			n.bigBang = true
			n.delay = c.restartWin[i]
			n.out = Frame{}
			continue
		}
		c.stepNode(i, n)
	}
	for i, inj := range c.injected {
		if inj == nil {
			continue
		}
		c.fout[i] = inj.FaultyNodeOutput(c.slot)
		for ch := range 2 {
			if h := c.hubs[ch]; h != nil && h.lock[i] {
				c.fout[i][ch] = Frame{} // feedback: locked port stays quiet
			}
		}
	}

	// 2. Hub relay + control phase.
	var out [2][]Frame
	var il [2]Frame
	for ch := range 2 {
		out[ch], il[ch] = c.relay(ch)
	}
	for ch := range 2 {
		if c.hubs[ch] != nil {
			c.stepHub(ch, il[1-ch])
		}
	}

	// 3. Latch channel inputs for the next slot.
	for ch := range 2 {
		copy(c.in[ch], out[ch])
	}

	// 4. Startup-time observer.
	c.observeClock()
}

// Run advances until all correct nodes are active or maxSlots elapse; it
// reports whether synchronisation was reached.
func (c *Cluster) Run(maxSlots int) bool {
	for c.slot < maxSlots {
		c.Step()
		if c.AllCorrectActive() {
			return true
		}
	}
	return c.AllCorrectActive()
}

// Describe renders a one-line cluster summary.
func (c *Cluster) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slot %3d |", c.slot)
	for i, n := range c.nodes {
		if n == nil {
			fmt.Fprintf(&b, " n%d:FAULTY", i)
			continue
		}
		fmt.Fprintf(&b, " n%d:%s", i, n.state)
		if n.state == NodeActive {
			fmt.Fprintf(&b, "@%d", n.pos)
		} else {
			fmt.Fprintf(&b, "(%d)", n.counter)
		}
	}
	b.WriteString(" |")
	for ch := range 2 {
		if c.hubs[ch] == nil {
			fmt.Fprintf(&b, " h%d:FAULTY", ch)
			continue
		}
		fmt.Fprintf(&b, " h%d:%s", ch, c.hubs[ch].state)
	}
	return b.String()
}
