// Package ic3 implements IC3/PDR (property-directed reachability):
// unbounded invariant proofs by incremental induction, without unrolling
// the transition relation. The engine maintains a trapezoid of frames
// F0 ⊇ F1 ⊇ ... ⊇ Fk — clause sets over current-state bits where Fi
// overapproximates the states reachable in at most i steps — and discharges
// proof obligations (bad states and their predecessors) with many small
// incremental SAT queries against a single solver. A state cube is blocked
// at frame i by showing its negation inductive relative to F(i-1); the
// blocking clause is generalized by dropping literals, driven by the
// solver's assumption cores (sat.Solver.FinalConflict). When clause
// propagation makes two adjacent frames equal, Fi is an inductive invariant
// and the property is proved for every depth; when an obligation chain
// reaches an initial state, the chain itself is the counterexample trace.
package ic3

import (
	"context"
	"fmt"
	"sort"

	"ttastartup/internal/circuit"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/obs"
	"ttastartup/internal/sat"
)

// EngineName identifies this engine in Stats.
const EngineName = "ic3"

// Options tunes the checker.
type Options struct {
	// MaxFrames caps the frame trapezoid; 0 means unbounded (IC3
	// terminates on its own on finite systems). When the cap is hit
	// without convergence the verdict is HoldsBounded.
	MaxFrames int
	// Obs receives per-frame spans, per-query SAT spans and counter flushes,
	// obligation/core counters, and the engine span. The zero value disables
	// instrumentation.
	Obs obs.Scope
}

// clit is one cube literal: circuit input id (a current-state bit) = val.
type clit struct {
	id  int
	val bool
}

// cube is a conjunction of current-state literals, sorted by input id.
// Cubes extracted from SAT models are complete (every state bit); blocking
// generalizes them to subsets.
type cube []clit

// subsumes reports whether every literal of c occurs in d (so the states
// of c are a superset of d's and ¬c blocks everything ¬d would).
func (c cube) subsumes(d cube) bool {
	j := 0
	for _, l := range c {
		for j < len(d) && d[j].id < l.id {
			j++
		}
		if j >= len(d) || d[j].id != l.id || d[j].val != l.val {
			return false
		}
	}
	return true
}

// without returns a copy of c with literal index i removed.
func (c cube) without(i int) cube {
	out := make(cube, 0, len(c)-1)
	out = append(out, c[:i]...)
	out = append(out, c[i+1:]...)
	return out
}

// fclause is one blocking clause ¬cube, tracked at the highest frame it is
// known to hold for (delta encoding: it belongs to every Fi with i ≤ level).
// stamp remembers the frame generation (see engine.frameGen) of the last
// failed attempt to push the clause one level out; while the source frame
// is unchanged the attempt cannot start succeeding, so propagation skips it.
type fclause struct {
	cube  cube
	level int
	stamp int
}

// obligation is a cube to exclude at a frame; parent points one step
// toward the property violation, so a chain reaching an initial state is a
// counterexample. succ is the concrete completion of parent's cube that
// the SAT model witnessed when this obligation was created: the parent
// cube may be partial (the top cube is lifted to an unsat core), so the
// trace must use the witnessed completion, not an arbitrary one.
type obligation struct {
	cube   cube
	succ   gcl.State
	frame  int
	parent *obligation
	seq    int
}

// obHeap orders obligations by frame (deepest first), then FIFO.
type obHeap []*obligation

func (h obHeap) Len() int { return len(h) }
func (h obHeap) Less(i, j int) bool {
	if h[i].frame != h[j].frame {
		return h[i].frame < h[j].frame
	}
	return h[i].seq < h[j].seq
}
func (h obHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *obHeap) push(ob *obligation) {
	*h = append(*h, ob)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.Less(i, p) {
			break
		}
		h.Swap(i, p)
		i = p
	}
}

func (h *obHeap) pop() *obligation {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.Less(c+1, c) {
			c++
		}
		if !h.Less(c, i) {
			break
		}
		h.Swap(i, c)
		i = c
	}
	return top
}

// engine holds one IC3 run: a single incremental solver with the step
// encoding (cur, choice, next bits of one transition) plus activation
// literals that switch the transition relation and each frame's clauses
// into individual queries.
type engine struct {
	comp *gcl.Compiled
	ctx  context.Context
	opts Options

	solver *sat.Solver
	vars   []int // circuit input id -> SAT variable
	memo   map[circuit.Lit]sat.Lit

	initLit sat.Lit // assumable: initial-state predicate over cur bits
	tLit    sat.Lit // assumable: activates the transition relation
	badLit  sat.Lit // assumable: ¬property over cur bits

	curIDs  []int // RoleCur input ids, ascending
	nextIDs []int // cur input id -> matching RoleNext input id

	acts   []sat.Lit // acts[l] activates clauses whose level is exactly l
	frames [][]*fclause

	// Syntactic initial-state intersection: the compiled Init is a product
	// of independent per-variable constraints (gcl.InitConst/InitSet/InitAny),
	// so cube-vs-Init checks are pure bit arithmetic instead of SAT queries.
	varOf   []int    // cur input id -> dense state-var index
	bitOf   []int    // cur input id -> bit position within the variable
	vinits  [][]int  // dense var index -> permitted initial values
	maskSc  []uint32 // scratch: bits of the var fixed by the cube
	wantSc  []uint32 // scratch: required values of those bits
	stampSc []int    // scratch: generation stamp guarding maskSc/wantSc
	witness []int    // latest intersecting initial state, one value per var
	gen     int

	addCnt []int      // clause additions per level, for frameGen
	inf    []*fclause // F∞: absolutely inductive clauses, asserted permanently

	obSeq       int
	queries     int
	obligations int
	coreKept    int
	coreTotal   int

	// Observability sinks: the tap is the single SAT accounting path; the
	// remaining handles are resolved once in newEngine (all nil-safe).
	tap        *mc.SATTap
	frameSpan  *obs.Span
	gFrames    *obs.Gauge
	gQueue     *obs.Gauge
	cObls      *obs.Counter
	cCoreKept  *obs.Counter
	cCoreTotal *obs.Counter
}

// frameGen returns a generation counter for Fi: the number of clauses ever
// added at levels ≥ i. The consecution query over Fi can only change answer
// (UNSAT-wards) when this grows.
func (e *engine) frameGen(i int) int {
	g := 0
	for l := i; l < len(e.addCnt); l++ {
		g += e.addCnt[l]
	}
	return g
}

func newEngine(ctx context.Context, comp *gcl.Compiled, prop mc.Property, opts Options) *engine {
	e := &engine{
		comp:   comp,
		ctx:    ctx,
		opts:   opts,
		solver: sat.New(),
		memo:   make(map[circuit.Lit]sat.Lit),
	}
	e.tap = mc.NewSATTap(opts.Obs, e.solver)
	e.gFrames = opts.Obs.Reg.Gauge(obs.MIC3Frames)
	e.gQueue = opts.Obs.Reg.Gauge(obs.MIC3QueueDepth)
	e.cObls = opts.Obs.Reg.Counter(obs.MIC3Obligations)
	e.cCoreKept = opts.Obs.Reg.Counter(obs.MIC3CoreKept)
	e.cCoreTotal = opts.Obs.Reg.Counter(obs.MIC3CoreTotal)
	e.vars = make([]int, comp.NumInputs())
	for id := range e.vars {
		e.vars[id] = e.solver.NewVar()
	}
	e.nextIDs = make([]int, comp.NumInputs())
	for id, info := range comp.Bits {
		if info.Role != gcl.RoleCur {
			continue
		}
		// The compiler interleaves state bits: each cur bit is allocated
		// immediately before its next bit (see gcl.Compile).
		next := id + 1
		if next >= len(comp.Bits) || comp.Bits[next].Role != gcl.RoleNext ||
			comp.Bits[next].Var != info.Var || comp.Bits[next].Bit != info.Bit {
			panic("ic3: compiled bit layout: cur bit not followed by its next bit")
		}
		e.curIDs = append(e.curIDs, id)
		e.nextIDs[id] = next
	}
	e.solver.SetStop(func() bool { return ctx.Err() != nil })

	e.initLit = e.encode(comp.Init)
	e.badLit = e.encode(comp.CompileExpr(prop.Pred)).Not()
	// Every reachable state is in-range (initial states are, and updates
	// are domain-checked), but the binary encoding admits out-of-range bit
	// patterns. Assert the domain constraints over current-state bits
	// permanently: without them the bad region is bloated with garbage
	// states the engine would have to block cube by cube.
	vars := comp.Sys.StateVars()
	vidx := make(map[*gcl.Var]int, len(vars))
	e.vinits = make([][]int, len(vars))
	for i, v := range vars {
		e.solver.AddClause(e.encode(comp.B.InRangeBV(comp.CurBV(v), v.Type.Card)))
		vidx[v] = i
		vals := v.InitValues()
		if vals == nil {
			vals = make([]int, v.Type.Card)
			for w := range vals {
				vals[w] = w
			}
		}
		e.vinits[i] = vals
	}
	e.varOf = make([]int, comp.NumInputs())
	e.bitOf = make([]int, comp.NumInputs())
	for _, id := range e.curIDs {
		e.varOf[id] = vidx[comp.Bits[id].Var]
		e.bitOf[id] = comp.Bits[id].Bit
	}
	e.maskSc = make([]uint32, len(vars))
	e.wantSc = make([]uint32, len(vars))
	e.stampSc = make([]int, len(vars))
	e.witness = make([]int, len(vars))
	e.tLit = sat.Pos(e.solver.NewVar())
	for _, mr := range comp.Rels {
		e.solver.AddClause(e.tLit.Not(), e.encode(mr.Rel))
	}

	// acts[0]/frames[0] are unused: F0 is the initial-state predicate.
	e.acts = []sat.Lit{0}
	e.frames = [][]*fclause{nil}
	e.addCnt = []int{0}
	return e
}

// k returns the index of the frontier frame.
func (e *engine) k() int { return len(e.acts) - 1 }

// newFrame opens frame k+1 with an empty clause set.
func (e *engine) newFrame() {
	e.acts = append(e.acts, sat.Pos(e.solver.NewVar()))
	e.frames = append(e.frames, nil)
	e.addCnt = append(e.addCnt, 0)
	e.frameSpan.End()
	e.frameSpan = e.opts.Obs.Trace.Start(obs.CatFrame, fmt.Sprintf("F%d", e.k()))
	e.gFrames.SetMax(int64(e.k()))
}

// encode Tseitin-encodes the cone of l and returns its literal (the
// single-frame analogue of bmc.Checker.encode).
func (e *engine) encode(l circuit.Lit) sat.Lit {
	switch {
	case l == circuit.True:
		return e.constTrue()
	case l == circuit.False:
		return e.constTrue().Not()
	case l.Complemented():
		return e.encode(l.Not()).Not()
	}
	if lit, ok := e.memo[l]; ok {
		return lit
	}
	var lit sat.Lit
	if id, ok := e.comp.B.InputID(l); ok {
		lit = sat.Pos(e.vars[id])
	} else {
		a, b, ok := e.comp.B.Fanins(l)
		if !ok {
			panic("ic3: unrecognized circuit literal")
		}
		la := e.encode(a)
		lb := e.encode(b)
		x := sat.Pos(e.solver.NewVar())
		// x <-> la AND lb
		e.solver.AddClause(x.Not(), la)
		e.solver.AddClause(x.Not(), lb)
		e.solver.AddClause(x, la.Not(), lb.Not())
		lit = x
	}
	e.memo[l] = lit
	return lit
}

func (e *engine) constTrue() sat.Lit {
	if lit, ok := e.memo[circuit.True]; ok {
		return lit
	}
	v := sat.Pos(e.solver.NewVar())
	e.solver.AddClause(v)
	e.memo[circuit.True] = v
	return v
}

// litFor returns the SAT literal of a cube literal, primed (next-state
// copy) or unprimed.
func (e *engine) litFor(l clit, primed bool) sat.Lit {
	id := l.id
	if primed {
		id = e.nextIDs[id]
	}
	if l.val {
		return sat.Pos(e.vars[id])
	}
	return sat.Neg(e.vars[id])
}

// query is the single SAT entry point: a false result is UNSAT only when
// the returned error is nil; an interrupted search surfaces the context
// error instead, so no deadline or cancellation is ever misread as a proof.
func (e *engine) query(assumps []sat.Lit) (bool, error) {
	e.queries++
	if e.queries%2048 == 0 {
		// Consecution queries retire one temporary clause each; compact the
		// clause database periodically so they stop burdening propagation.
		e.solver.Simplify()
	}
	if e.tap.Solve(assumps...) {
		return true, nil
	}
	if e.solver.Stopped() {
		if err := e.ctx.Err(); err != nil {
			return false, err
		}
		return false, context.Canceled
	}
	return false, nil
}

// frameAssumps returns the activation literals selecting frame Fi: the
// initial-state predicate for F0, plus every clause set at levels ≥ max(i,1)
// (the trapezoid is delta-encoded; a clause at level l holds in all Fj, j ≤ l).
func (e *engine) frameAssumps(i int, extra ...sat.Lit) []sat.Lit {
	as := make([]sat.Lit, 0, e.k()+len(extra)+1)
	lo := i
	if i == 0 {
		as = append(as, e.initLit)
		lo = 1
	}
	for l := lo; l <= e.k(); l++ {
		as = append(as, e.acts[l])
	}
	return append(as, extra...)
}

// modelCube extracts the current-state part of the solver model as a
// complete cube plus its decoded state.
func (e *engine) modelCube() (cube, gcl.State) {
	assign := make([]bool, e.comp.NumInputs())
	c := make(cube, 0, len(e.curIDs))
	for _, id := range e.curIDs {
		v := e.solver.Value(e.vars[id])
		assign[id] = v
		c = append(c, clit{id: id, val: v})
	}
	return c, e.comp.DecodeState(assign, gcl.RoleCur)
}

// modelSucc decodes the next-state part of the solver model as a state —
// the concrete successor the model chose for a (possibly partial) primed
// cube assumption.
func (e *engine) modelSucc() gcl.State {
	assign := make([]bool, e.comp.NumInputs())
	for _, id := range e.curIDs {
		assign[id] = e.solver.Value(e.vars[e.nextIDs[id]])
	}
	return e.comp.DecodeState(assign, gcl.RoleCur)
}

// isInitial concretely evaluates the initial-state predicate on a state.
func (e *engine) isInitial(st gcl.State) bool {
	assign := make([]bool, e.comp.NumInputs())
	e.comp.EncodeState(st, gcl.RoleCur, assign)
	return e.comp.EvalLit(e.comp.Init, assign)
}

// blockQuery asks whether cube s has a predecessor inside Fi-1 ∧ ¬s:
// SAT?[F(i-1) ∧ ¬s ∧ T ∧ s']. On SAT it returns the predecessor; on UNSAT
// it returns the subset of s's literals appearing (primed) in the
// assumption core — the seed for generalization.
func (e *engine) blockQuery(i int, s cube) (found bool, pred cube, predSt, succSt gcl.State, core cube, err error) {
	// The negated cube is a disjunction, so it enters the solver as a
	// clause guarded by a fresh activation literal; the literal is pinned
	// false once the query is answered, retiring the clause for good.
	act := sat.Pos(e.solver.NewVar())
	notS := make([]sat.Lit, 0, len(s)+1)
	notS = append(notS, act.Not())
	for _, l := range s {
		notS = append(notS, e.litFor(l, false).Not())
	}
	e.solver.AddClause(notS...)
	defer e.solver.AddClause(act.Not())

	assumps := e.frameAssumps(i-1, act, e.tLit)
	for _, l := range s {
		assumps = append(assumps, e.litFor(l, true))
	}
	ok, err := e.query(assumps)
	if err != nil {
		return false, nil, nil, nil, nil, err
	}
	if ok {
		pred, predSt = e.modelCube()
		return true, pred, predSt, e.modelSucc(), nil, nil
	}
	inCore := make(map[sat.Lit]bool, len(s))
	for _, l := range e.solver.FinalConflict() {
		inCore[l] = true
	}
	for _, l := range s {
		if inCore[e.litFor(l, true)] {
			core = append(core, l)
		}
	}
	e.coreTotal += len(s)
	e.coreKept += len(core)
	e.cCoreTotal.Add(int64(len(s)))
	e.cCoreKept.Add(int64(len(core)))
	return false, nil, nil, nil, core, nil
}

// absQuery asks whether cube s has a predecessor outside s under the
// permanent clauses alone: SAT?[¬s ∧ T ∧ s']. UNSAT means ¬s is absolutely
// inductive — it holds initially (s is Init-disjoint) and is preserved by
// every transition relative only to clauses that themselves hold in all
// reachable states — so ¬s may be asserted permanently (F∞).
func (e *engine) absQuery(s cube) (bool, error) {
	act := sat.Pos(e.solver.NewVar())
	notS := make([]sat.Lit, 0, len(s)+1)
	notS = append(notS, act.Not())
	for _, l := range s {
		notS = append(notS, e.litFor(l, false).Not())
	}
	e.solver.AddClause(notS...)
	defer e.solver.AddClause(act.Not())

	assumps := make([]sat.Lit, 0, len(s)+2)
	assumps = append(assumps, act, e.tLit)
	for _, l := range s {
		assumps = append(assumps, e.litFor(l, true))
	}
	return e.query(assumps)
}

// addInf asserts ¬g permanently: it holds in every frame, present and
// future, so every later query is strengthened for free and the clause
// never needs propagation again.
func (e *engine) addInf(g cube) {
	e.inf = append(e.inf, &fclause{cube: g, level: int(^uint(0) >> 1)})
	cl := make([]sat.Lit, 0, len(g))
	for _, l := range g {
		cl = append(cl, e.litFor(l, false).Not())
	}
	e.solver.AddClause(cl...)
	// Every finite frame just gained a clause; invalidate all push stamps.
	e.addCnt[len(e.addCnt)-1]++
}

// liftBad shrinks a complete property-violating state cube to the
// assumption core that still contradicts the property: every in-range
// state matching the shrunk cube violates P (the in-range constraints are
// permanent clauses), so blocking it excludes a whole family of bad states
// instead of one concrete state per query. Because no initial state is bad
// (the depth-0 check ran first), the lifted cube stays Init-disjoint.
func (e *engine) liftBad(s cube) (cube, error) {
	assumps := make([]sat.Lit, 0, len(s)+1)
	assumps = append(assumps, e.badLit.Not())
	for _, l := range s {
		assumps = append(assumps, e.litFor(l, false))
	}
	ok, err := e.query(assumps)
	if err != nil {
		return nil, err
	}
	if ok {
		panic("ic3: complete violating cube satisfies the property")
	}
	inCore := make(map[sat.Lit]bool, len(s))
	for _, l := range e.solver.FinalConflict() {
		inCore[l] = true
	}
	var out cube
	for _, l := range s {
		if inCore[e.litFor(l, false)] {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		return s, nil
	}
	return out, nil
}

// intersectsInit decides Init ∧ c ≠ ∅ syntactically: Init is a product of
// independent per-variable value sets, so the cube intersects it exactly
// when every variable it constrains still admits a permitted initial value
// on the fixed bits. On intersection e.witness holds one initial state
// inside the cube (any permitted value for unconstrained variables).
func (e *engine) intersectsInit(c cube) bool {
	e.gen++
	for _, l := range c {
		vi := e.varOf[l.id]
		if e.stampSc[vi] != e.gen {
			e.stampSc[vi] = e.gen
			e.maskSc[vi], e.wantSc[vi] = 0, 0
		}
		bit := uint32(1) << e.bitOf[l.id]
		e.maskSc[vi] |= bit
		if l.val {
			e.wantSc[vi] |= bit
		}
	}
	for vi, vals := range e.vinits {
		if e.stampSc[vi] != e.gen {
			e.witness[vi] = vals[0]
			continue
		}
		ok := false
		for _, w := range vals {
			if uint32(w)&e.maskSc[vi] == e.wantSc[vi] {
				e.witness[vi] = w
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// restoreInit grows g (a subset of full, which must itself be disjoint
// from the initial states) back until it is disjoint from Init, using each
// intersecting witness to pick a literal that excludes it. A blocking
// clause whose cube intersects Init would unsoundly strengthen the frames.
func (e *engine) restoreInit(full, g cube) cube {
	for len(g) < len(full) && e.intersectsInit(g) {
		added := false
		for _, l := range full {
			if g.contains(l.id) {
				continue
			}
			w := uint32(e.witness[e.varOf[l.id]])
			if (w>>e.bitOf[l.id])&1 == 1 != l.val {
				g = g.insert(l)
				added = true
				break
			}
		}
		if !added {
			// The witness agrees with every literal of full — but full is
			// disjoint from the initial states by construction.
			panic("ic3: cube unexpectedly intersects the initial states")
		}
	}
	return g
}

func (c cube) contains(id int) bool {
	i := sort.Search(len(c), func(i int) bool { return c[i].id >= id })
	return i < len(c) && c[i].id == id
}

func (c cube) insert(l clit) cube {
	i := sort.Search(len(c), func(i int) bool { return c[i].id >= l.id })
	c = append(c, clit{})
	copy(c[i+1:], c[i:])
	c[i] = l
	return c
}

// generalize shrinks the blocked cube s at frame i: first to the
// assumption core of the failed consecution query, then by trying to drop
// each remaining literal, keeping every drop whose smaller cube is still
// inductive relative to F(i-1) and still disjoint from Init.
func (e *engine) generalize(i int, s, core cube) (cube, error) {
	g := e.restoreInit(s, core)
	for idx := 0; idx < len(g) && len(g) > 1; {
		cand := g.without(idx)
		// A candidate touching the initial states can never become a
		// blocking clause, no matter what the consecution query says.
		if e.intersectsInit(cand) {
			idx++
			continue
		}
		found, _, _, _, c2, err := e.blockQuery(i, cand)
		if err != nil {
			return nil, err
		}
		if found {
			idx++
			continue
		}
		shrunk := e.restoreInit(cand, c2)
		if len(shrunk) >= len(g) {
			idx++
			continue
		}
		// One pass: keep idx in place; the literals ahead of it in the
		// shrunk cube were already present and still deserve a drop attempt,
		// the ones behind were tried against a superset and are unlikely to
		// drop now (a second pass rarely pays for its queries).
		g = shrunk
	}
	return g, nil
}

// addBlocked records clause ¬g at the given level, both in the frame
// bookkeeping and (guarded by the level's activation literal) in the solver.
func (e *engine) addBlocked(g cube, level int) *fclause {
	fc := &fclause{cube: g, level: level}
	e.frames[level] = append(e.frames[level], fc)
	e.addFrameClause(g, level)
	return fc
}

func (e *engine) addFrameClause(g cube, level int) {
	// The activation literal goes last: the solver watches the first two
	// literals, so asserting acts[level] — which every query does for a
	// whole range of levels — must not trigger a scan of every frame clause.
	cl := make([]sat.Lit, 0, len(g)+1)
	for _, l := range g {
		cl = append(cl, e.litFor(l, false).Not())
	}
	cl = append(cl, e.acts[level].Not())
	e.solver.AddClause(cl...)
	e.addCnt[level]++
}

// isBlocked reports whether s is already excluded from Fi by a recorded
// clause (syntactic subsumption over F∞ and levels ≥ i).
func (e *engine) isBlocked(s cube, i int) bool {
	for _, fc := range e.inf {
		if fc.cube.subsumes(s) {
			return true
		}
	}
	for l := i; l <= e.k(); l++ {
		for _, fc := range e.frames[l] {
			if fc.cube.subsumes(s) {
				return true
			}
		}
	}
	return false
}

// block discharges the obligation queue seeded with top. It returns a
// counterexample trace if an obligation chain reaches an initial state,
// or nil once every obligation is blocked.
func (e *engine) block(top *obligation) (*mc.Trace, error) {
	var h obHeap
	h.push(top)
	for h.Len() > 0 {
		e.gQueue.Set(int64(h.Len()))
		ob := h.pop()
		if e.isBlocked(ob.cube, ob.frame) {
			if ob.frame < e.k() {
				ob2 := *ob
				ob2.frame++
				ob2.seq = e.nextSeq()
				h.push(&ob2)
			}
			continue
		}
		e.obligations++
		e.cObls.Inc()
		found, pred, predSt, succSt, core, err := e.blockQuery(ob.frame, ob.cube)
		if err != nil {
			return nil, err
		}
		if found {
			if e.isInitial(predSt) {
				return e.traceFrom(predSt, succSt, ob), nil
			}
			h.push(&obligation{cube: pred, succ: succSt, frame: ob.frame - 1, parent: ob, seq: e.nextSeq()})
			ob.seq = e.nextSeq()
			h.push(ob)
			continue
		}
		g, err := e.generalize(ob.frame, ob.cube, core)
		if err != nil {
			return nil, err
		}
		// Push the freshly generalized clause as far out as it stays
		// inductive: strong clauses reach the frontier immediately instead
		// of waiting one propagation pass per frame.
		lvl, pushFailed := ob.frame, false
		for lvl < e.k() {
			up, _, _, _, _, err := e.blockQuery(lvl+1, g)
			if err != nil {
				return nil, err
			}
			if up {
				pushFailed = true
				break
			}
			lvl++
		}
		if !pushFailed {
			// The clause held all the way to the frontier; if it is
			// absolutely inductive it becomes permanent and never has to be
			// blocked, pushed, or propagated again.
			up, err := e.absQuery(g)
			if err != nil {
				return nil, err
			}
			if !up {
				e.addInf(g)
				continue
			}
		}
		fc := e.addBlocked(g, lvl)
		if pushFailed {
			fc.stamp = e.frameGen(lvl)
		}
		if lvl < e.k() {
			ob2 := *ob
			ob2.frame = lvl + 1
			ob2.seq = e.nextSeq()
			h.push(&ob2)
		}
	}
	return nil, nil
}

func (e *engine) nextSeq() int { e.obSeq++; return e.obSeq }

// traceFrom stitches the obligation chain into a concrete counterexample:
// the initial predecessor, then the witnessed completion of each
// obligation's cube up to the property violation. succ is the completion
// of ob's own cube from the query that found initSt; every later position
// uses the completion recorded when the chain link was created. Every
// adjacent pair was extracted from one model of the transition relation,
// so the trace replays on the concrete stepper even though the top cube is
// lifted to a partial bad cube.
func (e *engine) traceFrom(initSt, succ gcl.State, ob *obligation) *mc.Trace {
	out := []gcl.State{initSt}
	s := succ
	for o := ob; o != nil; o = o.parent {
		out = append(out, s)
		s = o.succ
	}
	return mc.NewTrace(out)
}

// propagate pushes clauses outward: a clause still inductive one frame
// later moves up. It reports convergence — some frame's clause set drained
// completely, so Fi == Fi+1 is an inductive invariant containing Init and
// excluded from ¬P for good.
func (e *engine) propagate() (bool, error) {
	for l := 1; l < e.k(); l++ {
		kept := e.frames[l][:0]
		for _, fc := range e.frames[l] {
			// The push query depends only on F(l), T and the cube; while no
			// clause was added at levels ≥ l since the last failed attempt,
			// the UNSAT answer cannot have changed.
			gen := e.frameGen(l)
			if fc.stamp == gen {
				kept = append(kept, fc)
				continue
			}
			// UNSAT?[F(l) ∧ T ∧ cube'] — the clause ¬cube holds at l+1.
			assumps := e.frameAssumps(l, e.tLit)
			for _, cl := range fc.cube {
				assumps = append(assumps, e.litFor(cl, true))
			}
			ok, err := e.query(assumps)
			if err != nil {
				return false, err
			}
			if ok {
				fc.stamp = gen
				kept = append(kept, fc)
				continue
			}
			fc.level = l + 1
			fc.stamp = 0
			e.frames[l+1] = append(e.frames[l+1], fc)
			e.addFrameClause(fc.cube, l+1)
		}
		e.frames[l] = kept
		if len(kept) == 0 {
			return true, nil
		}
	}
	return false, nil
}

// finish closes the open frame span, fills run.Stats through the shared
// tap path, and stamps the result with the finished run's statistics.
func (e *engine) finish(run *mc.Run, res *mc.Result) {
	e.frameSpan.End()
	e.frameSpan = nil
	bits := 0
	for _, v := range e.comp.Sys.StateVars() {
		bits += v.Type.Bits()
	}
	shrink := 0.0
	if e.coreTotal > 0 {
		shrink = float64(e.coreKept) / float64(e.coreTotal)
	}
	run.Stats.StateBits = bits
	run.Stats.Iterations = e.k()
	run.Stats.Obligations = e.obligations
	run.Stats.CoreShrink = shrink
	e.tap.FillStats(&run.Stats)
	res.Stats = run.Finish(res.Verdict)
}

// abort closes the open frame span and aborts the engine span with err.
func (e *engine) abort(run *mc.Run, err error) {
	e.frameSpan.End()
	e.frameSpan = nil
	run.Abort(err)
}

// CheckInvariantCtx proves or refutes G(pred) unboundedly. Cancellation
// of ctx reaches every SAT query; an interrupted query aborts the run with
// the context error and is never reported as a proof.
func CheckInvariantCtx(ctx context.Context, comp *gcl.Compiled, prop mc.Property, opts Options) (*mc.Result, error) {
	if prop.Kind != mc.Invariant {
		return nil, fmt.Errorf("ic3: CheckInvariantCtx on %v property", prop.Kind)
	}
	run := mc.StartRun(opts.Obs, EngineName, prop.Name)
	e := newEngine(ctx, comp, prop, opts)
	res := &mc.Result{Property: prop}

	// Depth 0: an initial state violating the property.
	ok, err := e.query([]sat.Lit{e.initLit, e.badLit})
	if err != nil {
		e.abort(run, err)
		return nil, err
	}
	if ok {
		_, st := e.modelCube()
		res.Verdict = mc.Violated
		res.Trace = mc.NewTrace([]gcl.State{st})
		e.finish(run, res)
		return res, nil
	}

	e.newFrame()
	for {
		// Pull every bad state out of the frontier frame and block it.
		// The bad-state query deliberately omits the transition relation:
		// a violating state with no successors (deadlock) must be found too.
		for {
			ok, err := e.query(e.frameAssumps(e.k(), e.badLit))
			if err != nil {
				e.abort(run, err)
				return nil, err
			}
			if !ok {
				break
			}
			s, _ := e.modelCube()
			s, err = e.liftBad(s)
			if err != nil {
				e.abort(run, err)
				return nil, err
			}
			tr, err := e.block(&obligation{cube: s, frame: e.k(), seq: e.nextSeq()})
			if err != nil {
				e.abort(run, err)
				return nil, err
			}
			if tr != nil {
				res.Verdict = mc.Violated
				res.Trace = tr
				e.finish(run, res)
				return res, nil
			}
		}
		proved, err := e.propagate()
		if err != nil {
			e.abort(run, err)
			return nil, err
		}
		if proved {
			res.Verdict = mc.Holds
			e.finish(run, res)
			return res, nil
		}
		if e.opts.MaxFrames > 0 && e.k() >= e.opts.MaxFrames {
			res.Verdict = mc.HoldsBounded
			e.finish(run, res)
			return res, nil
		}
		e.newFrame()
	}
}
