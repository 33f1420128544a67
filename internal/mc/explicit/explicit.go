// Package explicit implements an explicit-state model checker: hash-based
// breadth-first reachability with counterexample reconstruction, and
// liveness checking (AF p) via a greatest-fixpoint computation of EG(¬p)
// over the explored graph. It corresponds to the explicit-state engine the
// paper used in its preliminary experiments (Section 3).
package explicit

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/obs"
)

// ctxStride is how many BFS head advances pass between context polls: the
// per-state work is small, so polling every state would be measurable, and
// polling every 256 keeps cancellation latency in the microsecond range.
const ctxStride = 256

// EngineName identifies this engine in Stats.
const EngineName = "explicit"

// ErrStateLimit is returned when exploration exceeds Options.MaxStates.
var ErrStateLimit = errors.New("explicit: state limit exceeded")

// Options tunes exploration.
type Options struct {
	// MaxStates caps the number of distinct states explored
	// (0 = default 5,000,000).
	MaxStates int
	// StoreEdges retains the successor adjacency, needed by liveness
	// checking; invariant checking leaves it off to save memory.
	StoreEdges bool
	// Obs receives frontier/visited gauges per BFS layer and the engine
	// span. The zero value disables instrumentation.
	Obs obs.Scope
}

// layerObs tracks BFS layer boundaries: the BFS queue is flat, so layer
// k ends when the head reaches the index the queue had when layer k-1
// finished. tick publishes the per-layer gauges and counter events; the
// bookkeeping itself (one compare per state) always runs so engines can
// report the BFS depth in Stats even without a scope attached.
type layerObs struct {
	scope    obs.Scope
	visited  *obs.Gauge
	frontier *obs.Gauge
	layers   *obs.Gauge
	layer    int
	layerEnd int
}

func newLayerObs(scope obs.Scope, boundary int) *layerObs {
	return &layerObs{
		scope:    scope,
		visited:  scope.Reg.Gauge(obs.MExplicitVisited),
		frontier: scope.Reg.Gauge(obs.MExplicitFrontier),
		layers:   scope.Reg.Gauge(obs.MExplicitLayers),
		layerEnd: boundary,
	}
}

func (lo *layerObs) tick(head, total int) {
	if head != lo.layerEnd {
		return
	}
	lo.layer++
	lo.visited.Set(int64(total))
	lo.frontier.Set(int64(total - lo.layerEnd))
	lo.layers.Set(int64(lo.layer))
	lo.scope.Trace.CounterEvent(obs.CatEngine, obs.MExplicitVisited, int64(total))
	lo.scope.Trace.CounterEvent(obs.CatEngine, obs.MExplicitFrontier, int64(total-lo.layerEnd))
	lo.layerEnd = total
}

// finish publishes the final totals once exploration stops.
func (lo *layerObs) finish(total int) {
	lo.visited.Set(int64(total))
	lo.frontier.Set(0)
	lo.layers.Set(int64(lo.layer))
}

func (o Options) maxStates() int {
	if o.MaxStates == 0 {
		return 5_000_000
	}
	return o.MaxStates
}

// Graph is the result of exhaustive exploration.
type Graph struct {
	Sys       *gcl.System
	States    []gcl.State
	Index     map[string]int32 // state key -> index
	Parents   []int32          // BFS tree parent (or -1 for initial states)
	Edges     [][]int32        // successor adjacency (nil unless StoreEdges)
	InitCount int              // states[0:InitCount] are the initial states
	Deadlocks []int32          // indices of deadlocked states
	Layers    int              // BFS depth: number of completed frontier layers
}

// NumStates returns the number of distinct reachable states.
func (g *Graph) NumStates() int { return len(g.States) }

// ExploreCtx performs exhaustive BFS reachability from all initial states.
// The frontier loop polls ctx every few hundred states and returns
// ctx.Err() once it is done.
func ExploreCtx(ctx context.Context, sys *gcl.System, opts Options) (*Graph, error) {
	stepper := gcl.NewStepper(sys)
	vars := sys.StateVars()
	g := &Graph{
		Sys:   sys,
		Index: make(map[string]int32, 1<<16),
	}
	limit := opts.maxStates()

	add := func(st gcl.State, parent int32) (int32, bool, error) {
		k := gcl.Key(st, vars)
		if idx, ok := g.Index[k]; ok {
			return idx, false, nil
		}
		if len(g.States) >= limit {
			return 0, false, fmt.Errorf("%w (%d states)", ErrStateLimit, limit)
		}
		idx := int32(len(g.States))
		g.States = append(g.States, st.Clone())
		g.Parents = append(g.Parents, parent)
		if opts.StoreEdges {
			g.Edges = append(g.Edges, nil)
		}
		g.Index[k] = idx
		return idx, true, nil
	}

	var exploreErr error
	stepper.InitStates(func(st gcl.State) bool {
		if _, _, err := add(st, -1); err != nil {
			exploreErr = err
			return false
		}
		return true
	})
	if exploreErr != nil {
		return nil, exploreErr
	}
	g.InitCount = len(g.States)

	lo := newLayerObs(opts.Obs, len(g.States))
	for head := 0; head < len(g.States); head++ {
		lo.tick(head, len(g.States))
		if head%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		cur := g.States[head]
		headIdx := int32(head)
		sawSucc := false
		dead := stepper.Successors(cur, func(next gcl.State) bool {
			sawSucc = true
			idx, _, err := add(next, headIdx)
			if err != nil {
				exploreErr = err
				return false
			}
			if opts.StoreEdges {
				g.Edges[head] = append(g.Edges[head], idx)
			}
			return true
		})
		if exploreErr != nil {
			return nil, exploreErr
		}
		if dead || !sawSucc {
			g.Deadlocks = append(g.Deadlocks, headIdx)
		}
	}
	lo.finish(len(g.States))
	g.Layers = lo.layer
	return g, nil
}

// tracePath reconstructs the BFS path from an initial state to target.
func (g *Graph) tracePath(target int32) *mc.Trace {
	var rev []gcl.State
	for i := target; i != -1; i = g.Parents[i] {
		rev = append(rev, g.States[i])
	}
	states := make([]gcl.State, len(rev))
	for i := range rev {
		states[i] = rev[len(rev)-1-i]
	}
	return mc.NewTrace(states)
}

// CheckInvariantCtx checks G(pred) by exhaustive reachability, stopping at
// the first violation. Cancellation of ctx reaches the BFS frontier loop.
func CheckInvariantCtx(ctx context.Context, sys *gcl.System, prop mc.Property, opts Options) (*mc.Result, error) {
	if prop.Kind != mc.Invariant {
		return nil, fmt.Errorf("explicit: CheckInvariantCtx on %v property", prop.Kind)
	}
	run := mc.StartRun(opts.Obs, EngineName, prop.Name)
	stepper := gcl.NewStepper(sys)
	vars := sys.StateVars()
	limit := opts.maxStates()

	index := make(map[string]int32, 1<<16)
	var states []gcl.State
	var parents []int32

	var bad int32 = -1
	var exploreErr error
	add := func(st gcl.State, parent int32) bool {
		k := gcl.Key(st, vars)
		if _, ok := index[k]; ok {
			return true
		}
		if len(states) >= limit {
			exploreErr = fmt.Errorf("%w (%d states)", ErrStateLimit, limit)
			return false
		}
		idx := int32(len(states))
		states = append(states, st.Clone())
		parents = append(parents, parent)
		index[k] = idx
		if !gcl.Holds(prop.Pred, st) {
			bad = idx
			return false
		}
		return true
	}

	stepper.InitStates(func(st gcl.State) bool { return add(st, -1) })
	lo := newLayerObs(opts.Obs, len(states))
	for head := 0; head < len(states) && bad == -1 && exploreErr == nil; head++ {
		lo.tick(head, len(states))
		if head%ctxStride == 0 {
			if err := ctx.Err(); err != nil {
				run.Abort(err)
				return nil, err
			}
		}
		headIdx := int32(head)
		stepper.Successors(states[head], func(next gcl.State) bool {
			return add(next, headIdx)
		})
	}
	if exploreErr != nil {
		run.Abort(exploreErr)
		return nil, exploreErr
	}
	lo.finish(len(states))

	run.Stats.Visited = len(states)
	run.Stats.Iterations = lo.layer
	run.Stats.Reachable = big.NewInt(int64(len(states)))
	run.Stats.StateBits = stateBits(sys)
	res := &mc.Result{Property: prop, Verdict: mc.Holds}
	if bad >= 0 {
		res.Verdict = mc.Violated
		g := &Graph{Sys: sys, States: states, Parents: parents}
		res.Trace = g.tracePath(bad)
		run.Stats.Reachable = nil // exploration stopped early
	}
	res.Stats = run.Finish(res.Verdict)
	return res, nil
}

// CheckEventuallyCtx checks F(pred) on all paths (AF pred): it explores the
// full graph, computes EG(¬pred) as a greatest fixpoint (the states with an
// infinite path avoiding pred), and reports a lasso counterexample if an
// initial state lies in that set. Deadlocked states have no infinite paths
// and are therefore not liveness violations by themselves; they are
// reported via the graph in Stats.Visited diagnostics and should be checked
// separately with an invariant. Both the exploration and the EG fixpoint
// sweeps poll ctx.
func CheckEventuallyCtx(ctx context.Context, sys *gcl.System, prop mc.Property, opts Options) (*mc.Result, error) {
	if prop.Kind != mc.Eventually {
		return nil, fmt.Errorf("explicit: CheckEventuallyCtx on %v property", prop.Kind)
	}
	run := mc.StartRun(opts.Obs, EngineName, prop.Name)
	opts.StoreEdges = true
	g, err := ExploreCtx(ctx, sys, opts)
	if err != nil {
		run.Abort(err)
		return nil, err
	}

	// inSet[i]: state i might have an infinite ¬pred path. Start with all
	// ¬pred states and repeatedly remove states with no successor in the
	// set (greatest fixpoint of EG ¬pred).
	n := len(g.States)
	inSet := make([]bool, n)
	for i, st := range g.States {
		inSet[i] = !gcl.Holds(prop.Pred, st)
	}
	for changed := true; changed; {
		if err := ctx.Err(); err != nil {
			run.Abort(err)
			return nil, err
		}
		changed = false
		for i := range n {
			if !inSet[i] {
				continue
			}
			ok := false
			for _, s := range g.Edges[i] {
				if inSet[s] {
					ok = true
					break
				}
			}
			if !ok {
				inSet[i] = false
				changed = true
			}
		}
	}

	run.Stats.Visited = n
	run.Stats.Iterations = g.Layers
	run.Stats.Reachable = big.NewInt(int64(n))
	run.Stats.StateBits = stateBits(sys)
	res := &mc.Result{Property: prop, Verdict: mc.Holds}

	for i := 0; i < g.InitCount; i++ {
		if !inSet[i] {
			continue
		}
		res.Verdict = mc.Violated
		res.Trace = lassoTrace(g, inSet, int32(i))
		break
	}
	res.Stats = run.Finish(res.Verdict)
	return res, nil
}

// lassoTrace builds a lasso counterexample starting at an initial state
// inside the EG set: a path within the set until a state repeats.
func lassoTrace(g *Graph, inSet []bool, start int32) *mc.Trace {
	var states []gcl.State
	seenAt := make(map[int32]int)
	cur := start
	for {
		if at, ok := seenAt[cur]; ok {
			return &mc.Trace{States: states, LoopsTo: at}
		}
		seenAt[cur] = len(states)
		states = append(states, g.States[cur])
		next := int32(-1)
		for _, s := range g.Edges[cur] {
			if inSet[s] {
				next = s
				break
			}
		}
		if next == -1 {
			// Cannot happen for a true EG fixpoint; fail safe with a
			// finite trace.
			return mc.NewTrace(states)
		}
		cur = next
	}
}

func stateBits(sys *gcl.System) int {
	bits := 0
	for _, v := range sys.StateVars() {
		bits += v.Type.Bits()
	}
	return bits
}
