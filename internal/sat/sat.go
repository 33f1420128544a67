// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, VSIDS-style branching, phase saving,
// first-UIP conflict analysis with backjumping, Luby restarts, and
// activity-based deletion of learnt clauses. It is the backend of the
// bounded model checker (package mc/bmc).
package sat

import "fmt"

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

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

type watcher struct {
	clause  int // clause index
	blocker Lit // quick-check literal
}

type varState struct {
	assign   lbool
	level    int32
	reason   int32 // clause index or -1
	activity float64
	phase    bool // saved phase
	seen     bool // scratch for conflict analysis
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	vars     []varState // index 1..n
	clauses  []clause
	watches  [][]watcher // indexed by literal
	trail    []Lit
	trailLim []int
	qhead    int

	varInc   float64
	claInc   float64
	order    []int // variables sorted lazily by activity (binary heap)
	heapPos  []int
	unsat    bool // conflict at level 0 during AddClause
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

	stop    func() bool // optional cancellation probe (see SetStop)
	stopped bool        // last Solve call was interrupted by stop
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
		vars:      make([]varState, 1), // slot 0 unused
		watches:   make([][]watcher, 2),
		varInc:    1,
		claInc:    1,
		heapPos:   make([]int, 1),
		maxLearnt: 4000,
	}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.vars)
	s.vars = append(s.vars, varState{reason: -1})
	s.watches = append(s.watches, nil, nil)
	s.heapPos = append(s.heapPos, -1)
	s.heapInsert(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.vars) - 1 }

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

func (s *Solver) value(l Lit) lbool {
	a := s.vars[l.Var()].assign
	if a == lUndef {
		return lUndef
	}
	if l.Sign() == (a == lFalse) {
		return lTrue
	}
	return lFalse
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
	// Normalize: drop duplicate/false literals, detect tautologies.
	out := lits[:0:0]
	seen := make(map[Lit]bool, len(lits))
	for _, l := range lits {
		if l.Var() <= 0 || l.Var() >= len(s.vars) {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		switch {
		case seen[l.Not()]:
			return true // tautology
		case seen[l], s.value(l) == lFalse:
			continue
		case s.value(l) == lTrue:
			return true // already satisfied
		}
		seen[l] = true
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() != -1 {
			s.unsat = true
			return false
		}
		return true
	}
	s.attachClause(clause{lits: out})
	return true
}

func (s *Solver) attachClause(c clause) int {
	idx := len(s.clauses)
	s.clauses = append(s.clauses, c)
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{clause: idx, blocker: c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{clause: idx, blocker: c.lits[0]})
	return idx
}

func (s *Solver) uncheckedEnqueue(l Lit, reason int32) {
	vs := &s.vars[l.Var()]
	if l.Sign() {
		vs.assign = lFalse
	} else {
		vs.assign = lTrue
	}
	vs.level = int32(len(s.trailLim))
	vs.reason = reason
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the index of a
// conflicting clause, or -1.
func (s *Solver) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := &s.clauses[w.clause]
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, watcher{clause: w.clause, blocker: c.lits[0]})
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{clause: w.clause, blocker: c.lits[0]})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflict.
			kept = append(kept, w)
			if s.value(c.lits[0]) == lFalse {
				// Conflict: keep remaining watchers and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return w.clause
			}
			s.uncheckedEnqueue(c.lits[0], int32(w.clause))
		}
		s.watches[p] = kept
	}
	return -1
}

// analyze performs first-UIP conflict analysis; it returns the learnt
// clause (asserting literal first) and the backjump level.
func (s *Solver) analyze(confl int) ([]Lit, int) {
	learnt := []Lit{0} // placeholder for the asserting literal
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	var toClear []int

	for {
		c := &s.clauses[confl]
		if c.learnt {
			s.bumpClause(confl)
		}
		start := 0
		if p != Lit(-1) {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			vs := &s.vars[v]
			if vs.seen || vs.level == 0 {
				continue
			}
			vs.seen = true
			toClear = append(toClear, v)
			s.bumpVar(v)
			if int(vs.level) == len(s.trailLim) {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next marked literal on the trail.
		for !s.vars[s.trail[idx].Var()].seen {
			idx--
		}
		p = s.trail[idx]
		confl = int(s.vars[p.Var()].reason)
		s.vars[p.Var()].seen = false
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
			if s.vars[learnt[i].Var()].level > s.vars[learnt[maxI].Var()].level {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = int(s.vars[learnt[1].Var()].level)
	}
	for _, v := range toClear {
		s.vars[v].seen = false
	}
	return learnt, back
}

func (s *Solver) cancelUntil(level int) {
	if len(s.trailLim) <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		l := s.trail[i]
		vs := &s.vars[l.Var()]
		vs.phase = vs.assign == lTrue
		vs.assign = lUndef
		vs.reason = -1
		if s.heapPos[l.Var()] == -1 {
			s.heapInsert(l.Var())
		}
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.vars[v].activity += s.varInc
	if s.vars[v].activity > 1e100 {
		for i := 1; i < len(s.vars); i++ {
			s.vars[i].activity *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] != -1 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *Solver) bumpClause(ci int) {
	s.clauses[ci].activity += s.claInc
	if s.clauses[ci].activity > 1e20 {
		for i := range s.clauses {
			if s.clauses[i].learnt {
				s.clauses[i].activity *= 1e-20
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
			s.model = make([]bool, len(s.vars))
			for v := 1; v < len(s.vars); v++ {
				s.model[v] = s.vars[v].assign == lTrue
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
		if confl != -1 {
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
				s.uncheckedEnqueue(learnt[0], -1)
			} else {
				ci := s.attachClause(clause{lits: learnt, learnt: true, activity: s.claInc})
				s.learntCount++
				s.uncheckedEnqueue(learnt[0], int32(ci))
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
			switch s.value(a) {
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
		s.uncheckedEnqueue(next, -1)
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
// assumption-application loop finds value(a) == lFalse: every decision
// level on the trail is then an assumption level, so walking ¬a's
// implication graph backwards and collecting the decisions it reaches
// yields exactly the conflicting assumptions.
func (s *Solver) analyzeFinal(a Lit) []Lit {
	core := []Lit{a}
	if len(s.trailLim) == 0 || s.vars[a.Var()].level == 0 {
		// a is refuted by level-0 facts alone; no other assumption is
		// involved (a itself stays in the core: the formula plus a is
		// unsatisfiable, the formula alone need not be).
		return core
	}
	var toClear []int
	mark := func(v int) {
		vs := &s.vars[v]
		if !vs.seen && vs.level > 0 {
			vs.seen = true
			toClear = append(toClear, v)
		}
	}
	mark(a.Var())
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		p := s.trail[i]
		vs := &s.vars[p.Var()]
		if !vs.seen {
			continue
		}
		if vs.reason == -1 {
			// A decision below the assumption-application point is itself
			// an assumption; record it as applied on the trail. (When the
			// assumptions contain both a and ¬a, p is a.Not() here and
			// the two-literal core is the honest answer.)
			core = append(core, p)
		} else {
			for _, q := range s.clauses[vs.reason].lits[1:] {
				mark(q.Var())
			}
		}
	}
	for _, v := range toClear {
		s.vars[v].seen = false
	}
	return core
}

func (s *Solver) pickBranch() Lit {
	for {
		v := s.heapPop()
		if v == 0 {
			return 0
		}
		if s.vars[v].assign == lUndef {
			if s.vars[v].phase {
				return Pos(v)
			}
			return Neg(v)
		}
	}
}

// reduceDB removes the lower-activity half of learnt clauses that are not
// reasons for current assignments. Watches are rebuilt.
func (s *Solver) reduceDB() {
	type scored struct {
		idx int
		act float64
	}
	var learnts []scored
	locked := make(map[int]bool)
	for _, l := range s.trail {
		if r := s.vars[l.Var()].reason; r >= 0 {
			locked[int(r)] = true
		}
	}
	for i := range s.clauses {
		if s.clauses[i].learnt && !locked[i] && len(s.clauses[i].lits) > 2 {
			learnts = append(learnts, scored{i, s.clauses[i].activity})
		}
	}
	if len(learnts) < 2 {
		s.maxLearnt *= 1.5
		return
	}
	// Partial selection: remove the half with lowest activity.
	// Simple nth-element via sort of the small scored slice.
	for i := 1; i < len(learnts); i++ {
		for j := i; j > 0 && learnts[j].act < learnts[j-1].act; j-- {
			learnts[j], learnts[j-1] = learnts[j-1], learnts[j]
		}
	}
	remove := make(map[int]bool, len(learnts)/2)
	for _, sc := range learnts[:len(learnts)/2] {
		remove[sc.idx] = true
	}

	// Compact the clause DB, remapping indices.
	remap := make([]int32, len(s.clauses))
	out := s.clauses[:0]
	for i := range s.clauses {
		if remove[i] {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(out))
		out = append(out, s.clauses[i])
	}
	s.clauses = out
	s.learntCount -= len(remove)
	for v := 1; v < len(s.vars); v++ {
		if r := s.vars[v].reason; r >= 0 {
			s.vars[v].reason = remap[r]
		}
	}
	for li := range s.watches {
		s.watches[li] = s.watches[li][:0]
	}
	for i := range s.clauses {
		c := &s.clauses[i]
		s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{clause: i, blocker: c.lits[1]})
		s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{clause: i, blocker: c.lits[0]})
	}
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
	if s.propagate() != -1 {
		s.unsat = true
		return
	}
	// Level-0 assignments are permanent, so their reason clauses are never
	// walked again; drop the references before the clauses disappear.
	for _, l := range s.trail {
		s.vars[l.Var()].reason = -1
	}
	remap := make([]int32, len(s.clauses))
	out := s.clauses[:0]
	removedLearnt := 0
outer:
	for i := range s.clauses {
		c := &s.clauses[i]
		kept := c.lits[:0]
		for _, l := range c.lits {
			switch s.value(l) {
			case lTrue:
				remap[i] = -1
				if c.learnt {
					removedLearnt++
				}
				continue outer
			case lUndef:
				kept = append(kept, l)
			}
		}
		// Not satisfied, so at least two literals survive: a unit would
		// have propagated above and an empty clause conflicted.
		c.lits = kept
		remap[i] = int32(len(out))
		out = append(out, *c)
	}
	s.clauses = out
	s.learntCount -= removedLearnt
	for v := 1; v < len(s.vars); v++ {
		if r := s.vars[v].reason; r >= 0 {
			s.vars[v].reason = remap[r]
		}
	}
	for li := range s.watches {
		s.watches[li] = s.watches[li][:0]
	}
	for i := range s.clauses {
		c := &s.clauses[i]
		s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{clause: i, blocker: c.lits[1]})
		s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{clause: i, blocker: c.lits[0]})
	}
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
// Activity-ordered binary heap over variables.

func (s *Solver) heapLess(a, b int) bool { return s.vars[a].activity > s.vars[b].activity }

func (s *Solver) heapInsert(v int) {
	s.order = append(s.order, v)
	s.heapPos[v] = len(s.order) - 1
	s.heapUp(len(s.order) - 1)
}

func (s *Solver) heapPop() int {
	if len(s.order) == 0 {
		return 0
	}
	top := s.order[0]
	last := s.order[len(s.order)-1]
	s.order = s.order[:len(s.order)-1]
	s.heapPos[top] = -1
	if len(s.order) > 0 {
		s.order[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return top
}

func (s *Solver) heapUp(i int) {
	v := s.order[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.order[p]) {
			break
		}
		s.order[i] = s.order[p]
		s.heapPos[s.order[i]] = i
		i = p
	}
	s.order[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapDown(i int) {
	v := s.order[i]
	for {
		c := 2*i + 1
		if c >= len(s.order) {
			break
		}
		if c+1 < len(s.order) && s.heapLess(s.order[c+1], s.order[c]) {
			c++
		}
		if !s.heapLess(s.order[c], v) {
			break
		}
		s.order[i] = s.order[c]
		s.heapPos[s.order[i]] = i
		i = c
	}
	s.order[i] = v
	s.heapPos[v] = i
}
