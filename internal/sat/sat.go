// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, VSIDS-style branching, phase saving,
// first-UIP conflict analysis with backjumping, Luby restarts, and
// activity-based deletion of learnt clauses. It is the backend of the
// bounded model checker (package mc/bmc).
//
// The data layout follows MiniSat (Eén and Sörensson, "An Extensible
// SAT-solver", SAT 2003): clauses live inline in one pointer-free arena
// and are named by their offset, variable state is a set of parallel
// arrays with the assignment stored per literal, and the branching heap
// carries each variable's activity beside it.
package sat

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Lit is a literal: variable index (1-based) shifted left once, with the
// LSB set for negative polarity.
type Lit int32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(v << 1) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(v<<1 | 1) }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the variable of l.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether l is negative.
func (l Lit) Sign() bool { return l&1 == 1 }

func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// A clause is stored in the arena at its offset (a cref) as a header of
// clauseHeader words followed by its literals:
//
//	arena[c]             size<<1 | learnt
//	arena[c+1], [c+2]    activity, a float64 split into its low and high words
//	arena[c+3 …]         the size literals
//
// Watchers and reasons hold crefs; noReason marks a decision or a
// level-0 unit.
const (
	clauseHeader = 3
	noReason     = int32(-1)
)

type watcher struct {
	cref    int32 // clause offset in the arena
	blocker Lit   // quick-check literal
}

// heapEntry is one slot of the branching heap: the variable with a copy of
// its activity, so a comparison reads no other array.
type heapEntry struct {
	act float64
	v   int32
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena    []Lit       // clause headers and literals, in clause order
	watches  [][]watcher // indexed by literal
	vals     []lbool     // indexed by literal: its current value
	trail    []Lit
	trailLim []int
	qhead    int

	// Per-variable state, index 1..n.
	level    []int32
	reason   []int32 // cref or noReason
	activity []float64
	phase    []bool  // saved phase
	seen     []uint8 // scratch: analyze marks 1, AddClause 1<<sign per polarity

	varInc   float64
	claInc   float64
	order    []heapEntry // binary max-heap on activity
	heapPos  []int32     // slot of each variable in order, or -1
	unsat    bool        // conflict at level 0 during AddClause
	restarts int
	conflTot int

	// Search statistics: plain fields, not atomics — the solver is
	// single-threaded and these sit in the innermost loops. Engines
	// flush deltas to an obs registry per Solve call.
	decisions    int // decision levels opened (assumptions included)
	propagations int // literals dequeued by unit propagation
	learntTot    int // learnt clauses ever recorded (units included)

	// learnt clause bookkeeping
	learntCount int
	maxLearnt   float64

	model []bool // snapshot of the last satisfying assignment

	finalConflict []Lit // assumption core of the last UNSAT Solve

	// Scratch buffers reused across calls.
	litBuf   []Lit    // AddClause's normalized clause, analyze's learnt clause
	coreBuf  []Lit    // analyzeFinal's core
	clearBuf []int32  // variables whose seen mark must be reset
	scoreBuf []scored // reduceDB's candidates

	stop    func() bool // optional cancellation probe (see SetStop)
	stopped bool        // last Solve call was interrupted by stop
}

type scored struct {
	cref int32
	act  float64
}

// SetStop installs a cancellation probe polled periodically during Solve
// (between restarts and every few thousand search steps). When the probe
// returns true, Solve gives up and returns false without an UNSAT verdict;
// callers distinguish interruption from unsatisfiability via Stopped. Pass
// nil to remove the probe. The solver remains usable after an interrupt.
func (s *Solver) SetStop(fn func() bool) { s.stop = fn }

// Stopped reports whether the most recent Solve call was interrupted by
// the stop probe rather than reaching a verdict.
func (s *Solver) Stopped() bool { return s.stopped }

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		// Slot 0 of every per-variable array is unused.
		watches:   make([][]watcher, 2),
		vals:      make([]lbool, 2),
		level:     make([]int32, 1),
		reason:    []int32{noReason},
		activity:  make([]float64, 1),
		phase:     make([]bool, 1),
		seen:      make([]uint8, 1),
		heapPos:   []int32{-1},
		varInc:    1,
		claInc:    1,
		maxLearnt: 4000,
	}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.watches = append(s.watches, nil, nil)
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, 0)
	s.heapPos = append(s.heapPos, -1)
	s.heapInsert(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) - 1 }

// Conflicts returns the total number of conflicts encountered.
func (s *Solver) Conflicts() int { return s.conflTot }

// Decisions returns the total number of decision levels opened across
// all Solve calls, assumption levels included (MiniSat's convention).
func (s *Solver) Decisions() int { return s.decisions }

// Propagations returns the total number of literals dequeued by unit
// propagation across all Solve calls.
func (s *Solver) Propagations() int { return s.propagations }

// Restarts returns the total number of Luby restarts taken.
func (s *Solver) Restarts() int { return s.restarts }

// LearntTotal returns the number of clauses ever learnt from conflicts,
// counting unit clauses and clauses since evicted by reduceDB.
func (s *Solver) LearntTotal() int { return s.learntTot }

// LearntCurrent returns the number of learnt clauses currently kept in
// the clause database.
func (s *Solver) LearntCurrent() int { return s.learntCount }

// ---------------------------------------------------------------------------
// Clause arena.

func (s *Solver) clauseSize(c int32) int32 { return int32(s.arena[c] >> 1) }

func (s *Solver) isLearnt(c int32) bool { return s.arena[c]&1 == 1 }

// lits returns the literals of clause c, aliasing the arena.
func (s *Solver) lits(c int32) []Lit {
	return s.arena[c+clauseHeader : c+clauseHeader+s.clauseSize(c)]
}

func (s *Solver) clauseActivity(c int32) float64 {
	return math.Float64frombits(uint64(uint32(s.arena[c+1])) | uint64(uint32(s.arena[c+2]))<<32)
}

func (s *Solver) setClauseActivity(c int32, a float64) {
	b := math.Float64bits(a)
	s.arena[c+1], s.arena[c+2] = Lit(uint32(b)), Lit(uint32(b>>32))
}

// allocClause appends a clause to the arena and returns its offset.
func (s *Solver) allocClause(lits []Lit, learnt bool, act float64) int32 {
	c := len(s.arena)
	if c+clauseHeader+len(lits) > math.MaxInt32 {
		panic("sat: clause arena exceeds 2^31 words")
	}
	hdr := Lit(len(lits) << 1)
	if learnt {
		hdr |= 1
	}
	s.arena = append(s.arena, hdr, 0, 0)
	s.arena = append(s.arena, lits...)
	s.setClauseActivity(int32(c), act)
	return int32(c)
}

// watch adds clause c to the watch lists of its first two literals.
func (s *Solver) watch(c int32) {
	l0, l1 := s.arena[c+clauseHeader], s.arena[c+clauseHeader+1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{cref: c, blocker: l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{cref: c, blocker: l0})
}

// rewatch rebuilds every watch list from the arena in clause order, the
// order in which the clauses were first attached.
func (s *Solver) rewatch() {
	for li := range s.watches {
		s.watches[li] = s.watches[li][:0]
	}
	for c := int32(0); c < int32(len(s.arena)); c += clauseHeader + s.clauseSize(c) {
		s.watch(c)
	}
}

// locked reports whether clause c is the reason of a current assignment.
// A clause implies its first literal and keeps it first while that
// literal stays assigned.
func (s *Solver) locked(c int32) bool {
	l0 := s.arena[c+clauseHeader]
	return s.reason[l0.Var()] == c && s.vals[l0] == lTrue
}

// AddClause adds a problem clause. It returns false if the formula became
// trivially unsatisfiable. Must be called at decision level 0 (before or
// between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalize: drop duplicate/false literals, detect tautologies. The
	// literals keep their order, so the first two are the ones watched.
	out := s.litBuf[:0]
	defer func() {
		for _, l := range out {
			s.seen[l.Var()] = 0
		}
		s.litBuf = out
	}()
	for _, l := range lits {
		v := l.Var()
		if v <= 0 || v >= len(s.level) {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		switch {
		case s.seen[v]&(1<<(l.Not()&1)) != 0:
			return true // tautology
		case s.seen[v]&(1<<(l&1)) != 0, s.vals[l] == lFalse:
			continue
		case s.vals[l] == lTrue:
			return true // already satisfied
		}
		s.seen[v] |= 1 << (l & 1)
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		if s.propagate() != noReason {
			s.unsat = true
			return false
		}
		return true
	}
	s.watch(s.allocClause(out, false, 0))
	return true
}

func (s *Solver) uncheckedEnqueue(l Lit, reason int32) {
	s.vals[l], s.vals[l^1] = lTrue, lFalse
	v := l.Var()
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = reason
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the offset of a
// conflicting clause, or noReason.
func (s *Solver) propagate() int32 {
	vals, arena := s.vals, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if vals[w.blocker] == lTrue {
				kept = append(kept, w)
				continue
			}
			lits := arena[w.cref+clauseHeader : w.cref+clauseHeader+int32(arena[w.cref]>>1)]
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], falseLit
			}
			first := lits[0]
			if vals[first] == lTrue {
				kept = append(kept, watcher{cref: w.cref, blocker: first})
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{cref: w.cref, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict.
			kept = append(kept, w)
			if vals[first] == lFalse {
				// Conflict: keep remaining watchers and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return w.cref
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		s.watches[p] = kept
	}
	return noReason
}

// analyze performs first-UIP conflict analysis; it returns the learnt
// clause (asserting literal first) and the backjump level. The clause
// aliases a scratch buffer that the next AddClause or analyze reuses.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := append(s.litBuf[:0], 0) // placeholder for the asserting literal
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	toClear := s.clearBuf[:0]

	for {
		if s.isLearnt(confl) {
			s.bumpClause(confl)
		}
		lits := s.lits(confl)
		if p != Lit(-1) {
			lits = lits[1:]
		}
		for _, q := range lits {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			toClear = append(toClear, int32(v))
			s.bumpVar(v)
			if int(s.level[v]) == len(s.trailLim) {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next marked literal on the trail.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		counter--
		idx--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Compute backjump level: second-highest level in the clause.
	back := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = int(s.level[learnt[1].Var()])
	}
	for _, v := range toClear {
		s.seen[v] = 0
	}
	s.litBuf, s.clearBuf = learnt, toClear
	return learnt, back
}

func (s *Solver) cancelUntil(level int) {
	if len(s.trailLim) <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Sign()
		s.vals[l], s.vals[l^1] = lUndef, lUndef
		s.reason[v] = noReason
		if s.heapPos[v] == -1 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i < len(s.activity); i++ {
			s.activity[i] *= 1e-100
		}
		for i := range s.order {
			s.order[i].act *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if i := s.heapPos[v]; i != -1 {
		s.order[i].act = s.activity[v]
		s.heapUp(int(i))
	}
}

func (s *Solver) bumpClause(c int32) {
	act := s.clauseActivity(c) + s.claInc
	s.setClauseActivity(c, act)
	if act > 1e20 {
		for d := int32(0); d < int32(len(s.arena)); d += clauseHeader + s.clauseSize(d) {
			if s.isLearnt(d) {
				s.setClauseActivity(d, s.clauseActivity(d)*1e-20)
			}
		}
		s.claInc *= 1e-20
	}
}

// Solve searches for a satisfying assignment consistent with the given
// assumption literals. It returns true if one exists; the model is then
// available via Value. The solver remains usable (incrementally) after
// either outcome.
func (s *Solver) Solve(assumptions ...Lit) bool {
	s.stopped = false
	s.finalConflict = nil
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	lubyIdx := 0
	for {
		if s.stop != nil && s.stop() {
			s.stopped = true
			s.cancelUntil(0)
			return false
		}
		lubyIdx++
		budget := 100 * luby(lubyIdx)
		switch s.search(budget, assumptions) {
		case lTrue:
			// Snapshot the model, then restore level 0 for future calls.
			s.model = slices.Grow(s.model[:0], len(s.level))[:len(s.level)]
			for v := 1; v < len(s.level); v++ {
				s.model[v] = s.vals[Pos(v)] == lTrue
			}
			s.cancelUntil(0)
			return true
		case lFalse:
			s.cancelUntil(0)
			return false
		}
		s.restarts++
		s.cancelUntil(0)
	}
}

// search runs CDCL until a result or conflict budget exhaustion (lUndef).
func (s *Solver) search(budget int, assumptions []Lit) lbool {
	conflicts := 0
	steps := 0
	for {
		// A conflict-free run of decisions can stay inside search for a long
		// time on large instances; poll the stop probe on a coarse stride so
		// cancellation latency stays bounded without measurable overhead.
		if steps++; steps&0xfff == 0 && s.stop != nil && s.stop() {
			return lUndef
		}
		confl := s.propagate()
		if confl != noReason {
			conflicts++
			s.conflTot++
			if len(s.trailLim) == 0 {
				s.unsat = true
				return lFalse
			}
			learnt, back := s.analyze(confl)
			s.learntTot++
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noReason)
			} else {
				c := s.allocClause(learnt, true, s.claInc)
				s.watch(c)
				s.learntCount++
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if float64(s.learntCount) > s.maxLearnt {
				s.reduceDB()
			}
			if conflicts >= budget {
				return lUndef
			}
			continue
		}

		// Apply assumptions, then decide.
		var next Lit
		for len(s.trailLim) < len(assumptions) {
			a := assumptions[len(s.trailLim)]
			switch s.vals[a] {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.finalConflict = s.analyzeFinal(a)
				return lFalse // conflict with assumptions
			}
			next = a
			break
		}
		if next == 0 {
			next = s.pickBranch()
			if next == 0 {
				return lTrue // all variables assigned
			}
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, noReason)
	}
}

// FinalConflict returns the assumption core of the most recent Solve call:
// a subset of its assumption literals under which the formula is already
// unsatisfiable (MiniSat's analyzeFinal). An empty core means the formula
// is unsatisfiable without any assumptions. The result is meaningful only
// when Solve returned false and Stopped reports false; the slice is owned
// by the solver and valid until the next Solve call.
func (s *Solver) FinalConflict() []Lit { return s.finalConflict }

// analyzeFinal computes the subset of the current assumptions responsible
// for falsifying assumption a. Called from search at the moment the
// assumption-application loop finds a false: every decision
// level on the trail is then an assumption level, so walking ¬a's
// implication graph backwards and collecting the decisions it reaches
// yields exactly the conflicting assumptions.
func (s *Solver) analyzeFinal(a Lit) []Lit {
	core := append(s.coreBuf[:0], a)
	if len(s.trailLim) == 0 || s.level[a.Var()] == 0 {
		// a is refuted by level-0 facts alone; no other assumption is
		// involved (a itself stays in the core: the formula plus a is
		// unsatisfiable, the formula alone need not be).
		s.coreBuf = core
		return core
	}
	toClear := s.clearBuf[:0]
	mark := func(v int) {
		if s.seen[v] == 0 && s.level[v] > 0 {
			s.seen[v] = 1
			toClear = append(toClear, int32(v))
		}
	}
	mark(a.Var())
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		p := s.trail[i]
		if s.seen[p.Var()] == 0 {
			continue
		}
		if r := s.reason[p.Var()]; r == noReason {
			// A decision below the assumption-application point is itself
			// an assumption; record it as applied on the trail. (When the
			// assumptions contain both a and ¬a, p is a.Not() here and
			// the two-literal core is the honest answer.)
			core = append(core, p)
		} else {
			for _, q := range s.lits(r)[1:] {
				mark(q.Var())
			}
		}
	}
	for _, v := range toClear {
		s.seen[v] = 0
	}
	s.coreBuf, s.clearBuf = core, toClear
	return core
}

func (s *Solver) pickBranch() Lit {
	for {
		v := s.heapPop()
		if v == 0 {
			return 0
		}
		if s.vals[Pos(v)] == lUndef {
			if s.phase[v] {
				return Pos(v)
			}
			return Neg(v)
		}
	}
}

// reduceDB removes the lower-activity half of learnt clauses that are not
// reasons for current assignments. The arena is compacted in clause order
// and the watches are rebuilt.
func (s *Solver) reduceDB() {
	cands := s.scoreBuf[:0]
	for c := int32(0); c < int32(len(s.arena)); c += clauseHeader + s.clauseSize(c) {
		if s.isLearnt(c) && s.clauseSize(c) > 2 && !s.locked(c) {
			cands = append(cands, scored{c, s.clauseActivity(c)})
		}
	}
	s.scoreBuf = cands
	if len(cands) < 2 {
		s.maxLearnt *= 1.5
		return
	}
	// Remove the half with lowest activity; ties go to the older clause.
	slices.SortStableFunc(cands, func(a, b scored) int { return cmp.Compare(a.act, b.act) })
	remove := cands[:len(cands)/2]
	slices.SortFunc(remove, func(a, b scored) int { return cmp.Compare(a.cref, b.cref) })

	// Compact in place: every kept clause moves down to offset to. A
	// reason is only ever a kept (locked) clause, found through its first
	// literal; a moved reason's new offset is below every unvisited old one.
	to, next := int32(0), 0
	for c := int32(0); c < int32(len(s.arena)); {
		n := clauseHeader + s.clauseSize(c)
		if next < len(remove) && remove[next].cref == c {
			next++
		} else {
			if v := s.arena[c+clauseHeader].Var(); s.reason[v] == c {
				s.reason[v] = to
			}
			copy(s.arena[to:], s.arena[c:c+n])
			to += n
		}
		c += n
	}
	s.arena = s.arena[:to]
	s.learntCount -= len(remove)
	s.rewatch()
	s.maxLearnt *= 1.1
}

// Simplify removes clauses satisfied at decision level 0 and strips
// level-0-false literals from the rest, compacting the clause database and
// rebuilding the watch lists. Callers that retire activation-guarded
// clauses by pinning the activation literal (e.g. IC3 consecution queries)
// call this periodically so dead clauses stop burdening propagation. Must
// be called between Solve calls; the solver stays equivalent.
func (s *Solver) Simplify() {
	if s.unsat {
		return
	}
	if len(s.trailLim) != 0 {
		panic("sat: Simplify above decision level 0")
	}
	if s.propagate() != noReason {
		s.unsat = true
		return
	}
	// Level-0 assignments are permanent, so their reason clauses are never
	// walked again; drop the references before the clauses disappear. No
	// reason survives, so compaction has none to move.
	for _, l := range s.trail {
		s.reason[l.Var()] = noReason
	}
	to := int32(0)
outer:
	for c := int32(0); c < int32(len(s.arena)); {
		hdr, act := s.arena[c], s.clauseActivity(c)
		lits := s.lits(c)
		c += clauseHeader + int32(len(lits))
		for _, l := range lits {
			if s.vals[l] == lTrue {
				if hdr&1 == 1 {
					s.learntCount--
				}
				continue outer
			}
		}
		// Not satisfied, so at least two literals survive: a unit would
		// have propagated above and an empty clause conflicted. The kept
		// literals move down, never past one still to be read.
		n := int32(0)
		for _, l := range lits {
			if s.vals[l] == lUndef {
				s.arena[to+clauseHeader+n] = l
				n++
			}
		}
		s.arena[to] = Lit(n<<1) | hdr&1
		s.setClauseActivity(to, act)
		to += clauseHeader + n
	}
	s.arena = s.arena[:to]
	s.rewatch()
}

// Value returns the model value of variable v after a successful Solve.
func (s *Solver) Value(v int) bool {
	if v >= len(s.model) {
		return false
	}
	return s.model[v]
}

// luby computes the Luby restart sequence (1,1,2,1,1,2,4,...).
func luby(i int) int {
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// ---------------------------------------------------------------------------
// Activity-ordered binary heap over variables. An entry's act always equals
// activity[v].

// before is the heap order: strictly higher activity first, so ties keep
// the order the heap already has.
func (e heapEntry) before(f heapEntry) bool { return e.act > f.act }

func (s *Solver) heapInsert(v int) {
	s.order = append(s.order, heapEntry{act: s.activity[v], v: int32(v)})
	s.heapPos[v] = int32(len(s.order) - 1)
	s.heapUp(len(s.order) - 1)
}

func (s *Solver) heapPop() int {
	if len(s.order) == 0 {
		return 0
	}
	top := s.order[0].v
	last := s.order[len(s.order)-1]
	s.order = s.order[:len(s.order)-1]
	s.heapPos[top] = -1
	if len(s.order) > 0 {
		s.order[0] = last
		s.heapPos[last.v] = 0
		s.heapDown(0)
	}
	return int(top)
}

func (s *Solver) heapUp(i int) {
	order, pos := s.order, s.heapPos
	e := order[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(order[p]) {
			break
		}
		order[i] = order[p]
		pos[order[i].v] = int32(i)
		i = p
	}
	order[i] = e
	pos[e.v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	order, pos := s.order, s.heapPos
	e := order[i]
	n := len(order)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && order[c+1].before(order[c]) {
			c++
		}
		if !order[c].before(e) {
			break
		}
		order[i] = order[c]
		pos[order[i].v] = int32(i)
		i = c
	}
	order[i] = e
	pos[e.v] = int32(i)
}
