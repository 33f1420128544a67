// Package symbolic implements a BDD-based symbolic model checker over
// compiled gcl systems: frontier-based reachability with a conjunctively
// partitioned transition relation and early quantification, invariant
// checking with backward counterexample reconstruction, inevitability
// (AF p) via an EG greatest fixpoint, and exact reachable-state counting.
// It plays the role SAL's symbolic engine plays in the paper.
package symbolic

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"ttastartup/internal/bdd"
	"ttastartup/internal/circuit"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/obs"
)

// EngineName identifies this engine in Stats.
const EngineName = "symbolic"

// Options tunes the engine.
type Options struct {
	// BDD configures the node manager.
	BDD bdd.Config
	// MaxIterations caps fixpoint iterations (0 = default 100,000).
	MaxIterations int
	// NoTrace disables counterexample layer retention (saves memory on
	// large proofs where only the verdict matters).
	NoTrace bool
	// Obs receives fixpoint-iteration gauges, per-layer frame spans, BDD
	// node counter events, and the engine span. The zero value disables
	// instrumentation.
	Obs obs.Scope
}

func (o Options) maxIter() int {
	if o.MaxIterations == 0 {
		return 100_000
	}
	return o.MaxIterations
}

// partition is one module's relation with its early-quantification cube:
// the variables quantified immediately after this relation is conjoined.
type partition struct {
	rel     bdd.Ref
	imgCube bdd.Ref // cur+choice vars whose last mention is this relation
	preCube bdd.Ref // next+choice vars whose last mention is this relation
}

// Engine is a symbolic model checker for one compiled system. Not safe for
// concurrent use.
type Engine struct {
	comp *gcl.Compiled
	m    *bdd.Manager
	opts Options

	parts     []partition
	init      bdd.Ref
	curVars   []int
	nextVars  []int
	choice    []int
	curToNext *bdd.Permutation
	nextToCur *bdd.Permutation

	imgPre bdd.Ref // cur+choice vars mentioned by no relation (quantified up front)
	prePre bdd.Ref // next+choice vars mentioned by no relation

	reach     bdd.Ref   // cached reachable set (valid once reached == true)
	layers    []bdd.Ref // BFS frontiers for trace reconstruction
	reached   bool
	iters     int
	peakNodes int
}

// New builds a symbolic engine from a compiled system.
func New(comp *gcl.Compiled, opts Options) (*Engine, error) {
	e := &Engine{comp: comp, opts: opts}
	err := e.guard(func() {
		e.build()
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// cancelled carries a context error out of a fixpoint loop; guard converts
// it back into an error at the API boundary (same mechanism as the node
// limit, so the deep BDD call stacks need no error threading).
type cancelled struct{ err error }

// pollCtx panics with a cancelled value when ctx is done; the fixpoint
// loops call it once per iteration.
func pollCtx(ctx context.Context) {
	if err := ctx.Err(); err != nil {
		panic(cancelled{err})
	}
}

// guard converts bdd.ErrNodeLimit and cancellation panics into errors at
// API boundaries.
func (e *Engine) guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == bdd.ErrNodeLimit {
				err = fmt.Errorf("symbolic: %w", bdd.ErrNodeLimit)
				return
			}
			if c, ok := r.(cancelled); ok {
				err = c.err
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

func (e *Engine) build() {
	comp := e.comp
	nin := comp.NumInputs()
	e.m = bdd.New(nin, e.opts.BDD)
	e.m.SetObs(e.opts.Obs)

	// Role-indexed variable lists and cur<->next permutations. The
	// compiler interleaves cur/next bits, so renaming is order-preserving.
	permCN := make([]int, nin)
	permNC := make([]int, nin)
	pair := make(map[int]int) // cur input -> next input
	for id := range nin {
		permCN[id] = id
		permNC[id] = id
	}
	for id, info := range comp.Bits {
		switch info.Role {
		case gcl.RoleCur:
			e.curVars = append(e.curVars, id)
			pair[id] = id + 1 // interleaved layout: next bit follows its cur bit
		case gcl.RoleNext:
			e.nextVars = append(e.nextVars, id)
		case gcl.RoleChoice:
			e.choice = append(e.choice, id)
		}
	}
	for c, n := range pair {
		permCN[c] = n
		permNC[n] = c
	}
	e.curToNext = e.m.NewPermutation(permCN)
	e.nextToCur = e.m.NewPermutation(permNC)

	// Pair-group the order for dynamic reordering: each cur bit moves with
	// its next bit, so the renamings above stay order-preserving however
	// sifting rearranges the pairs. Choice variables sift alone.
	groups := make([][]int, 0, len(e.curVars))
	for _, c := range e.curVars {
		groups = append(groups, []int{c, c + 1})
	}
	e.m.SetGroups(groups)

	// Compile circuit cones to BDDs.
	cache := make(map[circuit.Lit]bdd.Ref)
	e.init = e.m.Protect(e.fromCircuit(comp.Init, cache))
	rels := make([]bdd.Ref, len(comp.Rels))
	for i, mr := range comp.Rels {
		rels[i] = e.m.Protect(e.fromCircuit(mr.Rel, cache))
	}

	// Early-quantification schedule: a variable is quantified right after
	// the last relation (in partition order) that mentions it.
	lastAt := make(map[int]int, nin)
	for i, r := range rels {
		for _, v := range e.m.Support(r) {
			lastAt[v] = i
		}
	}
	imgCubes := make([][]int, len(rels))
	preCubes := make([][]int, len(rels))
	var imgPre, prePre []int
	for _, v := range append(append([]int{}, e.curVars...), e.choice...) {
		if i, ok := lastAt[v]; ok {
			imgCubes[i] = append(imgCubes[i], v)
		} else {
			imgPre = append(imgPre, v)
		}
	}
	for _, v := range append(append([]int{}, e.nextVars...), e.choice...) {
		if i, ok := lastAt[v]; ok {
			preCubes[i] = append(preCubes[i], v)
		} else {
			prePre = append(prePre, v)
		}
	}

	e.parts = make([]partition, len(rels))
	for i, r := range rels {
		e.parts[i] = partition{
			rel:     r,
			imgCube: e.m.Protect(e.m.Cube(imgCubes[i])),
			preCube: e.m.Protect(e.m.Cube(preCubes[i])),
		}
	}
	e.imgPre = e.m.Protect(e.m.Cube(imgPre))
	e.prePre = e.m.Protect(e.m.Cube(prePre))
}

// fromCircuit converts an AIG cone into a BDD; circuit input IDs map
// one-to-one onto BDD variable indices.
func (e *Engine) fromCircuit(l circuit.Lit, cache map[circuit.Lit]bdd.Ref) bdd.Ref {
	if r, ok := cache[l]; ok {
		return r
	}
	var r bdd.Ref
	switch {
	case l == circuit.False:
		r = bdd.False
	case l == circuit.True:
		r = bdd.True
	case l.Complemented():
		r = e.m.Not(e.fromCircuit(l.Not(), cache))
	default:
		if id, ok := e.comp.B.InputID(l); ok {
			r = e.m.Var(id)
		} else if a, b, ok := e.comp.B.Fanins(l); ok {
			r = e.m.And(e.fromCircuit(a, cache), e.fromCircuit(b, cache))
		} else {
			panic("symbolic: unrecognized circuit literal")
		}
	}
	cache[l] = r
	return r
}

// Manager exposes the BDD manager (for tests and diagnostics).
func (e *Engine) Manager() *bdd.Manager { return e.m }

// Image computes the successor set of S (over current variables).
func (e *Engine) Image(s bdd.Ref) bdd.Ref {
	acc := e.m.Exists(s, e.imgPre)
	for _, p := range e.parts {
		acc = e.m.AndExists(acc, p.rel, p.imgCube)
	}
	return e.m.Permute(acc, e.nextToCur)
}

// Preimage computes the predecessor set of S (over current variables).
func (e *Engine) Preimage(s bdd.Ref) bdd.Ref {
	acc := e.m.Permute(s, e.curToNext)
	acc = e.m.Exists(acc, e.prePre)
	for _, p := range e.parts {
		acc = e.m.AndExists(acc, p.rel, p.preCube)
	}
	return acc
}

// ReachableCtx computes (and caches) the reachable state set, polling ctx
// once per frontier iteration. A cancelled computation leaves no partial
// cache: a later call restarts the fixpoint from the initial states.
func (e *Engine) ReachableCtx(ctx context.Context) (bdd.Ref, error) {
	if e.reached {
		return e.reach, nil
	}
	// Drop layers left over from a cancelled earlier attempt so trace
	// reconstruction never sees a duplicated prefix.
	for _, l := range e.layers {
		e.m.Unprotect(l)
	}
	e.layers = nil
	err := e.guard(func() {
		reach := e.m.Protect(e.init)
		frontier := e.init
		if !e.opts.NoTrace {
			e.layers = append(e.layers, e.m.Protect(frontier))
		}
		iters := 0
		gIters := e.opts.Obs.Reg.Gauge(obs.MSymbolicIters)
		tracer := e.opts.Obs.Trace
		for frontier != bdd.False {
			pollCtx(ctx)
			if iters++; iters > e.opts.maxIter() {
				panic(bdd.ErrNodeLimit)
			}
			sp := tracer.Start(obs.CatFrame, fmt.Sprintf("layer %d", iters))
			img := e.Image(frontier)
			newStates := e.m.Diff(img, reach)
			newReach := e.m.Or(reach, newStates)
			e.m.Unprotect(reach)
			reach = e.m.Protect(newReach)
			frontier = newStates
			if frontier != bdd.False && !e.opts.NoTrace {
				e.layers = append(e.layers, e.m.Protect(frontier))
			}
			e.maybeGC(frontier)
			gIters.Set(int64(iters))
			if tracer != nil {
				tracer.CounterEvent(obs.CatBDD, obs.MBDDNodes, int64(e.m.NumNodes()))
				sp.Attr("frontier_nodes", e.m.Size(frontier)).End()
			}
		}
		e.reach = reach // stays protected for the engine's lifetime
		e.reached = true
		e.iters = iters
	})
	if err != nil {
		return bdd.False, err
	}
	return e.reach, nil
}

// maybeGC is the engine's safe point: no unprotected intermediate results
// are live here except the extra roots, so both garbage collection and
// dynamic reordering (which starts and ends with a GC) may run.
func (e *Engine) maybeGC(extra ...bdd.Ref) {
	if e.m.NumNodes() > e.peakNodes {
		e.peakNodes = e.m.NumNodes()
	}
	e.m.PublishObs()
	if _, ran := e.m.ReorderIfPending(extra...); ran {
		return
	}
	if e.m.ShouldGC() {
		e.m.GC(extra...)
	}
}

// CountStates returns the exact number of reachable states.
func (e *Engine) CountStates() (*big.Int, error) {
	r, err := e.ReachableCtx(context.Background())
	if err != nil {
		return nil, err
	}
	return e.m.SatCount(r, e.curVars), nil
}

// fillStats writes the engine's measurements into a run's Stats; the
// run itself stamps Engine and Duration so every engine reports timing
// through the same code path.
func (e *Engine) fillStats(st *mc.Stats) {
	if e.m.NumNodes() > e.peakNodes {
		e.peakNodes = e.m.NumNodes()
	}
	e.m.PublishObs()
	bits := 0
	for _, v := range e.comp.Sys.StateVars() {
		bits += v.Type.Bits()
	}
	st.StateBits = bits
	st.BDDVars = e.comp.NumInputs()
	st.Iterations = e.iters
	st.PeakNodes = e.peakNodes
	st.Reorders = e.m.SnapshotStats().Reorders
}

// CheckInvariantCtx checks G(pred) symbolically. Cancellation of ctx
// reaches the reachability fixpoint.
func (e *Engine) CheckInvariantCtx(ctx context.Context, prop mc.Property) (*mc.Result, error) {
	if prop.Kind != mc.Invariant {
		return nil, fmt.Errorf("symbolic: CheckInvariantCtx on %v property", prop.Kind)
	}
	run := mc.StartRun(e.opts.Obs, EngineName, prop.Name)
	reach, err := e.ReachableCtx(ctx)
	if err != nil {
		run.Abort(err)
		return nil, err
	}
	res := &mc.Result{Property: prop, Verdict: mc.Holds}
	err = e.guard(func() {
		pred := e.m.Protect(e.fromCircuit(e.comp.CompileExpr(prop.Pred), make(map[circuit.Lit]bdd.Ref)))
		defer e.m.Unprotect(pred)
		bad := e.m.Diff(reach, pred)
		if bad != bdd.False {
			res.Verdict = mc.Violated
			res.Trace = e.traceTo(bad)
		}
		e.fillStats(&run.Stats)
		run.Stats.Reachable = e.m.SatCount(reach, e.curVars)
	})
	if err != nil {
		run.Abort(err)
		return nil, err
	}
	res.Stats = run.Finish(res.Verdict)
	return res, nil
}

// CheckEventuallyCtx checks F(pred) on all paths (AF pred): a violation is
// an infinite execution avoiding pred, i.e. Init ∩ EG(¬pred) ≠ ∅ within
// the reachable states. Cancellation of ctx reaches both the reachability
// and the EG greatest-fixpoint loops.
func (e *Engine) CheckEventuallyCtx(ctx context.Context, prop mc.Property) (*mc.Result, error) {
	if prop.Kind != mc.Eventually {
		return nil, fmt.Errorf("symbolic: CheckEventuallyCtx on %v property", prop.Kind)
	}
	run := mc.StartRun(e.opts.Obs, EngineName, prop.Name)
	reach, err := e.ReachableCtx(ctx)
	if err != nil {
		run.Abort(err)
		return nil, err
	}
	res := &mc.Result{Property: prop, Verdict: mc.Holds}
	err = e.guard(func() {
		pred := e.fromCircuit(e.comp.CompileExpr(prop.Pred), make(map[circuit.Lit]bdd.Ref))
		notP := e.m.Protect(e.m.And(reach, e.m.Not(pred)))
		defer e.m.Unprotect(notP)

		// Greatest fixpoint: Z = ¬p ∧ reach ∧ EX Z.
		z := e.m.Protect(notP)
		for i := 0; ; i++ {
			pollCtx(ctx)
			if i > e.opts.maxIter() {
				panic(bdd.ErrNodeLimit)
			}
			pre := e.Preimage(z)
			next := e.m.And(notP, pre)
			if next == z {
				break
			}
			e.m.Unprotect(z)
			z = e.m.Protect(next)
			e.maybeGC()
		}
		defer e.m.Unprotect(z)

		seed := e.m.And(e.init, z)
		if seed != bdd.False {
			res.Verdict = mc.Violated
			res.Trace = e.lassoTrace(seed, z)
		}
		e.fillStats(&run.Stats)
		run.Stats.Reachable = e.m.SatCount(reach, e.curVars)
	})
	if err != nil {
		run.Abort(err)
		return nil, err
	}
	res.Stats = run.Finish(res.Verdict)
	return res, nil
}

// CheckDeadlockFree verifies that every reachable state has at least one
// successor (the conjunction of all module relations is satisfiable for
// some choice and next state).
func (e *Engine) CheckDeadlockFree() (*mc.Result, error) {
	prop := mc.Property{Name: "deadlock-free", Kind: mc.Invariant, Pred: gcl.True()}
	run := mc.StartRun(e.opts.Obs, EngineName, prop.Name)
	reach, err := e.ReachableCtx(context.Background())
	if err != nil {
		run.Abort(err)
		return nil, err
	}
	res := &mc.Result{Property: prop, Verdict: mc.Holds}
	err = e.guard(func() {
		// hasSucc = ∃ choice, next: R — computed with the image pipeline
		// but without quantifying current variables.
		acc := reach
		for _, p := range e.parts {
			acc = e.m.AndExists(acc, p.rel, e.onlyNonCur(p.imgCube))
		}
		acc = e.m.Exists(acc, e.cubeOf(e.nextVars))
		// acc is now the reachable states with a successor.
		stuck := e.m.Diff(reach, acc)
		if stuck != bdd.False {
			res.Verdict = mc.Violated
			res.Trace = e.traceTo(stuck)
		}
		e.fillStats(&run.Stats)
	})
	if err != nil {
		run.Abort(err)
		return nil, err
	}
	res.Stats = run.Finish(res.Verdict)
	return res, nil
}

// onlyNonCur filters a quantification cube down to choice variables (drops
// current-state variables).
func (e *Engine) onlyNonCur(cube bdd.Ref) bdd.Ref {
	vars := e.m.Support(cube)
	keep := vars[:0]
	isChoice := make(map[int]bool, len(e.choice))
	for _, v := range e.choice {
		isChoice[v] = true
	}
	for _, v := range vars {
		if isChoice[v] {
			keep = append(keep, v)
		}
	}
	return e.m.Cube(keep)
}

func (e *Engine) cubeOf(vars []int) bdd.Ref { return e.m.Cube(vars) }

// StateBDD encodes a concrete state as a BDD over current variables.
func (e *Engine) StateBDD(st gcl.State) bdd.Ref {
	// Conjoin from the bottom of the (possibly reordered) order upward so
	// the intermediate results stay linear in size.
	ids := make([]int, 0, len(e.curVars))
	ids = append(ids, e.curVars...)
	sort.Slice(ids, func(a, b int) bool { return e.m.VarLevel(ids[a]) > e.m.VarLevel(ids[b]) })
	r := bdd.True
	for _, i := range ids {
		info := e.comp.Bits[i]
		bitSet := st[info.Var.ID()]&(1<<info.Bit) != 0
		if bitSet {
			r = e.m.And(e.m.Var(i), r)
		} else {
			r = e.m.And(e.m.NVar(i), r)
		}
	}
	return r
}

// decode converts a satisfying cube over current variables into a concrete
// state (don't-cares default to 0).
func (e *Engine) decode(cube []int8) gcl.State {
	assign := make([]bool, len(e.comp.Bits))
	for i, v := range cube {
		assign[i] = v == 1
	}
	return e.comp.DecodeState(assign, gcl.RoleCur)
}

// traceTo builds a shortest path from an initial state into the bad set
// using the stored BFS layers.
func (e *Engine) traceTo(bad bdd.Ref) *mc.Trace {
	if e.opts.NoTrace || len(e.layers) == 0 {
		return nil
	}
	// Find the earliest layer intersecting bad.
	k := -1
	var cur gcl.State
	for i, layer := range e.layers {
		hit := e.m.And(layer, bad)
		if hit != bdd.False {
			k = i
			cur = e.decode(e.m.PickCube(hit))
			break
		}
	}
	if k < 0 {
		return nil
	}
	states := make([]gcl.State, k+1)
	states[k] = cur
	for i := k - 1; i >= 0; i-- {
		pre := e.Preimage(e.StateBDD(states[i+1]))
		hit := e.m.And(pre, e.layers[i])
		states[i] = e.decode(e.m.PickCube(hit))
	}
	return mc.NewTrace(states)
}

// lassoTrace builds a lasso counterexample for a liveness violation: a
// concrete walk inside the EG set until a state repeats.
func (e *Engine) lassoTrace(seed, z bdd.Ref) *mc.Trace {
	vars := e.comp.Sys.StateVars()
	var states []gcl.State
	seenAt := make(map[string]int)
	cur := e.decode(e.m.PickCube(seed))
	for {
		key := gcl.Key(cur, vars)
		if at, ok := seenAt[key]; ok {
			return &mc.Trace{States: states, LoopsTo: at}
		}
		seenAt[key] = len(states)
		states = append(states, cur)
		succ := e.m.And(e.Image(e.StateBDD(cur)), z)
		if succ == bdd.False {
			return mc.NewTrace(states) // defensive; EG guarantees a successor
		}
		cur = e.decode(e.m.PickCube(succ))
		if len(states) > 1_000_000 {
			return mc.NewTrace(states)
		}
	}
}
