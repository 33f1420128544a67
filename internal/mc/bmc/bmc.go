// Package bmc implements SAT-based bounded model checking: the compiled
// transition relation is unrolled k steps via Tseitin encoding into CNF and
// a CDCL solver searches for a violating execution of each length. Like
// SAL's bounded model checker in the paper, it is specialised for finding
// shallow bugs quickly (Section 5.2) and reports HoldsBounded when no
// counterexample exists within the bound.
package bmc

import (
	"context"
	"fmt"

	"ttastartup/internal/circuit"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/obs"
	"ttastartup/internal/sat"
)

// EngineName identifies this engine in Stats.
const EngineName = "bmc"

// Options tunes the checker.
type Options struct {
	// MaxDepth is the deepest unrolling to try (required, > 0).
	MaxDepth int
	// Obs receives per-depth frame spans, per-query SAT spans and counter
	// flushes, and the engine span. The zero value disables instrumentation.
	Obs obs.Scope
}

// Checker incrementally unrolls a compiled system into a single SAT solver.
// Frame t's current-state bits are shared with frame t-1's next-state bits,
// so clauses accumulate monotonically and learnt clauses carry over between
// depths.
type Checker struct {
	comp   *gcl.Compiled
	solver *sat.Solver

	// frameVars[t] maps circuit input ID -> SAT variable for frame t.
	// RoleNext inputs at frame t alias RoleCur inputs at frame t+1.
	frameVars [][]int
	// tseitinMemo[t] caches gate encodings per frame: circuit node -> lit.
	tseitinMemo []map[circuit.Lit]sat.Lit
	depth       int // number of fully-encoded transition steps

	// tap routes every query through the shared SAT accounting path
	// (query count, per-query spans, registry counter flushes).
	tap *mc.SATTap
}

// solve issues one query through the tap, the single accounting path
// shared by all SAT engines.
func (c *Checker) solve(assumps ...sat.Lit) bool {
	return c.tap.Solve(assumps...)
}

// attachObs routes the checker's queries through scope. Call before the
// first query; it resets the tap's query count.
func (c *Checker) attachObs(scope obs.Scope) {
	c.tap = mc.NewSATTap(scope, c.solver)
}

// NewChecker prepares an incremental bounded checker; frame 0 is
// constrained to the initial states.
func NewChecker(comp *gcl.Compiled) *Checker {
	c := &Checker{
		comp:   comp,
		solver: sat.New(),
	}
	c.tap = mc.NewSATTap(obs.Scope{}, c.solver)
	c.frameVars = append(c.frameVars, c.newFrame())
	c.tseitinMemo = append(c.tseitinMemo, make(map[circuit.Lit]sat.Lit))
	c.assertLit(c.encode(comp.Init, 0))
	return c
}

// newFrame allocates SAT variables for one time frame, sharing next-state
// bits with the following frame lazily (see varFor).
func (c *Checker) newFrame() []int {
	vars := make([]int, c.comp.NumInputs())
	for i := range vars {
		vars[i] = -1
	}
	return vars
}

// varFor returns the SAT variable for circuit input id at frame t,
// allocating and aliasing as needed.
func (c *Checker) varFor(id, t int) int {
	info := c.comp.Bits[id]
	if info.Role == gcl.RoleNext {
		// Next-state bit at frame t is the cur-state bit at frame t+1.
		for len(c.frameVars) <= t+1 {
			c.frameVars = append(c.frameVars, c.newFrame())
			c.tseitinMemo = append(c.tseitinMemo, make(map[circuit.Lit]sat.Lit))
		}
		// The matching cur bit is allocated immediately before its next
		// bit by the compiler.
		return c.varFor(id-1, t+1)
	}
	if c.frameVars[t][id] == -1 {
		c.frameVars[t][id] = c.solver.NewVar()
	}
	return c.frameVars[t][id]
}

// encode Tseitin-encodes the cone of l instantiated at frame t and returns
// the literal representing it.
func (c *Checker) encode(l circuit.Lit, t int) sat.Lit {
	switch {
	case l == circuit.True:
		return c.constTrue()
	case l == circuit.False:
		return c.constTrue().Not()
	case l.Complemented():
		return c.encode(l.Not(), t).Not()
	}
	if lit, ok := c.tseitinMemo[t][l]; ok {
		return lit
	}
	var lit sat.Lit
	if id, ok := c.comp.B.InputID(l); ok {
		lit = sat.Pos(c.varFor(id, t))
	} else {
		a, b, ok := c.comp.B.Fanins(l)
		if !ok {
			panic("bmc: unrecognized circuit literal")
		}
		la := c.encode(a, t)
		lb := c.encode(b, t)
		x := sat.Pos(c.solver.NewVar())
		// x <-> la AND lb
		c.solver.AddClause(x.Not(), la)
		c.solver.AddClause(x.Not(), lb)
		c.solver.AddClause(x, la.Not(), lb.Not())
		lit = x
	}
	c.tseitinMemo[t][l] = lit
	return lit
}

// constTrue returns a literal asserted true, memoised per checker.
func (c *Checker) constTrue() sat.Lit {
	if lit, ok := c.tseitinMemo[0][circuit.True]; ok {
		return lit
	}
	v := sat.Pos(c.solver.NewVar())
	c.solver.AddClause(v)
	c.tseitinMemo[0][circuit.True] = v
	return v
}

func (c *Checker) assertLit(l sat.Lit) { c.solver.AddClause(l) }

// extendTo encodes transition steps until `depth` steps exist.
func (c *Checker) extendTo(depth int) {
	for c.depth < depth {
		t := c.depth
		for _, mr := range c.comp.Rels {
			c.assertLit(c.encode(mr.Rel, t))
		}
		c.depth++
	}
}

// stateAt decodes the model's frame t into a concrete state.
func (c *Checker) stateAt(t int) gcl.State {
	assign := make([]bool, c.comp.NumInputs())
	for id := range assign {
		if c.comp.Bits[id].Role != gcl.RoleCur {
			continue
		}
		if v := c.frameVars[t][id]; v != -1 {
			assign[id] = c.solver.Value(v)
		}
	}
	return c.comp.DecodeState(assign, gcl.RoleCur)
}

// bindCtx wires a context into the checker's SAT solver so a long Solve
// call is interrupted when ctx is done, and returns a probe that reports
// (and returns) the context error after an interrupted call.
func (c *Checker) bindCtx(ctx context.Context) func() error {
	c.solver.SetStop(func() bool { return ctx.Err() != nil })
	return func() error {
		if c.solver.Stopped() {
			return ctx.Err()
		}
		return nil
	}
}

// CheckInvariantCtx searches for a violation of G(pred) at depths
// 0..MaxDepth, returning the shallowest counterexample or
// HoldsBounded. Cancellation of ctx reaches the per-depth unrolling loop
// and the SAT search itself.
func CheckInvariantCtx(ctx context.Context, comp *gcl.Compiled, prop mc.Property, opts Options) (*mc.Result, error) {
	if prop.Kind != mc.Invariant {
		return nil, fmt.Errorf("bmc: CheckInvariantCtx on %v property", prop.Kind)
	}
	if opts.MaxDepth <= 0 {
		return nil, fmt.Errorf("bmc: MaxDepth must be positive")
	}
	run := mc.StartRun(opts.Obs, EngineName, prop.Name)
	c := NewChecker(comp)
	c.attachObs(opts.Obs)
	interrupted := c.bindCtx(ctx)
	badCircuit := comp.CompileExpr(prop.Pred).Not()

	res := &mc.Result{Property: prop, Verdict: mc.HoldsBounded}
	for k := 0; k <= opts.MaxDepth; k++ {
		if err := ctx.Err(); err != nil {
			run.Abort(err)
			return nil, err
		}
		sp := opts.Obs.Trace.Start(obs.CatFrame, fmt.Sprintf("k=%d", k))
		c.extendTo(k)
		bad := c.encode(badCircuit, k)
		sat := c.solve(bad)
		sp.End()
		if sat {
			states := make([]gcl.State, k+1)
			for t := 0; t <= k; t++ {
				states[t] = c.stateAt(t)
			}
			res.Verdict = mc.Violated
			res.Trace = mc.NewTrace(states)
			c.fillStats(&run.Stats, k)
			res.Stats = run.Finish(res.Verdict)
			return res, nil
		}
		if err := interrupted(); err != nil {
			run.Abort(err)
			return nil, err
		}
	}
	c.fillStats(&run.Stats, opts.MaxDepth)
	res.Stats = run.Finish(res.Verdict)
	return res, nil
}

// fillStats writes the checker's measurements into st through the shared
// tap path; counters accumulate so a second checker's tap can be added
// on top (k-induction).
func (c *Checker) fillStats(st *mc.Stats, depth int) {
	bits := 0
	for _, v := range c.comp.Sys.StateVars() {
		bits += v.Type.Bits()
	}
	st.StateBits = bits
	st.Iterations = depth
	c.tap.FillStats(st)
}
