package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// arenaClauses lists the clauses in the arena in clause order.
func arenaClauses(s *Solver) [][]Lit {
	var out [][]Lit
	for c := int32(0); c < int32(len(s.arena)); c += clauseHeader + s.clauseSize(c) {
		out = append(out, slices.Clone(s.lits(c)))
	}
	return out
}

// checkSolverInvariants checks the arena's cross-references: every reason
// names a clause start whose first literal is the reasoned assignment,
// every clause is watched exactly on the negations of its first two
// literals, and LearntCurrent counts the learnt clauses in the arena.
func checkSolverInvariants(t *testing.T, s *Solver) {
	t.Helper()
	starts := map[int32]bool{}
	learnt := 0
	for c := int32(0); c < int32(len(s.arena)); c += clauseHeader + s.clauseSize(c) {
		starts[c] = true
		if s.isLearnt(c) {
			learnt++
		}
	}
	if learnt != s.LearntCurrent() {
		t.Errorf("arena holds %d learnt clauses, LearntCurrent = %d", learnt, s.LearntCurrent())
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r == noReason {
			continue
		}
		if !starts[r] {
			t.Fatalf("reason %d of %v is not a clause start", r, l)
		}
		if first := s.lits(r)[0]; first != l {
			t.Errorf("reason of %v implies %v first", l, first)
		}
	}
	for v := 1; v <= s.NumVars(); v++ {
		if s.vals[Pos(v)] == lUndef && s.reason[v] != noReason {
			t.Errorf("unassigned variable %d keeps reason %d", v, s.reason[v])
		}
	}
	watched := map[int32]int{}
	for li, ws := range s.watches {
		for _, w := range ws {
			if !starts[w.cref] {
				t.Fatalf("watcher on %v names %d, not a clause start", Lit(li), w.cref)
			}
			lits := s.lits(w.cref)
			if Lit(li) != lits[0].Not() && Lit(li) != lits[1].Not() {
				t.Errorf("clause %v watched on %v", lits, Lit(li))
			}
			watched[w.cref]++
		}
	}
	for c := range starts {
		if watched[c] != 2 {
			t.Errorf("clause %v has %d watchers, want 2", s.lits(c), watched[c])
		}
	}
}

// TestSimplifyRemovesSatisfiedAndStripsFalse pins what Simplify does to
// the clause database at level 0.
func TestSimplifyRemovesSatisfiedAndStripsFalse(t *testing.T) {
	s := New()
	a, b, c, d, e := Pos(s.NewVar()), Pos(s.NewVar()), Pos(s.NewVar()), Pos(s.NewVar()), Pos(s.NewVar())
	s.AddClause(a, b, c)          // satisfied once a holds
	s.AddClause(a.Not(), b, d, e) // loses ¬a
	s.AddClause(c, d)             // untouched
	s.AddClause(b.Not(), e, a)    // satisfied
	s.AddClause(d.Not(), a.Not(), e.Not())
	s.AddClause(a)
	s.Simplify()
	got := arenaClauses(s)
	want := [][]Lit{{b, d, e}, {c, d}, {d.Not(), e.Not()}}
	if !slices.EqualFunc(got, want, slices.Equal[[]Lit]) {
		t.Fatalf("clauses after Simplify = %v, want %v", got, want)
	}
	checkSolverInvariants(t, s)
	if !s.Solve(b.Not(), d.Not()) || !s.Value(e.Var()) {
		t.Error("¬b ∧ ¬d forces e through the stripped (b ∨ d ∨ e)")
	}
	if s.Solve(d, e) {
		t.Error("d ∧ e contradicts the stripped (¬d ∨ ¬e)")
	}
}

// TestSimplifyRetiresLearntClauses learns clauses under an activation
// literal, pins it false, and checks that Simplify removes exactly the
// clauses it satisfies and that LearntCurrent drops by the learnt ones.
func TestSimplifyRetiresLearntClauses(t *testing.T) {
	s := New()
	act := guardedPigeonhole(s, 6, 5)
	keep := guardedPigeonhole(s, 5, 4)
	if s.Solve(act) {
		t.Fatal("guarded PHP(6,5) must be unsat")
	}
	if s.Solve(keep) {
		t.Fatal("guarded PHP(5,4) must be unsat")
	}
	before := s.LearntCurrent()
	if before == 0 {
		t.Fatal("no learnt clauses kept; the test is vacuous")
	}
	s.AddClause(act.Not())
	satisfied, satisfiedLearnt := 0, 0
	for c := int32(0); c < int32(len(s.arena)); c += clauseHeader + s.clauseSize(c) {
		if slices.ContainsFunc(s.lits(c), func(l Lit) bool { return s.vals[l] == lTrue }) {
			satisfied++
			if s.isLearnt(c) {
				satisfiedLearnt++
			}
		}
	}
	if satisfiedLearnt == 0 {
		t.Fatal("no learnt clause mentions the retired activation literal")
	}
	total := len(arenaClauses(s))
	s.Simplify()
	if got := len(arenaClauses(s)); got != total-satisfied {
		t.Errorf("Simplify kept %d of %d clauses, want %d", got, total, total-satisfied)
	}
	if got := s.LearntCurrent(); got != before-satisfiedLearnt {
		t.Errorf("LearntCurrent = %d after Simplify, want %d - %d", got, before, satisfiedLearnt)
	}
	for _, cl := range arenaClauses(s) {
		for _, l := range cl {
			if s.vals[l] != lUndef {
				t.Fatalf("clause %v keeps the level-0 literal %v", cl, l)
			}
		}
	}
	checkSolverInvariants(t, s)
	if s.Solve(keep) {
		t.Error("guarded PHP(5,4) must stay unsat after Simplify")
	}
	if !s.Solve(keep.Not()) {
		t.Error("the released instance must be sat")
	}
}

// TestReduceDBKeepsReasons compacts the arena in the middle of a search,
// when learnt clauses above level 0 are reasons, and checks that every
// reason still names the clause that implied it.
func TestReduceDBKeepsReasons(t *testing.T) {
	s := New()
	s.maxLearnt = 1e9 // reduce only when the test says so
	act := guardedPigeonhole(s, 7, 6)
	// Learn a few hundred clauses, then stop before the query is refuted.
	polls := 0
	s.SetStop(func() bool { polls++; return polls > 3 })
	if s.Solve(act) || !s.Stopped() {
		t.Fatal("guarded PHP(7,6) must be interrupted, not answered")
	}
	s.SetStop(nil)
	// Search by hand under act until a learnt clause is a reason.
	reasons := func() map[Lit][]Lit {
		m := map[Lit][]Lit{}
		for _, l := range s.trail {
			if r := s.reason[l.Var()]; r != noReason && s.isLearnt(r) {
				m[l] = slices.Clone(s.lits(r))
			}
		}
		return m
	}
	next := act
	for len(reasons()) == 0 {
		if next == 0 {
			t.Fatal("no learnt clause became a reason; the test is vacuous")
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, noReason)
		for confl := s.propagate(); confl != noReason; confl = s.propagate() {
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noReason)
				continue
			}
			c := s.allocClause(learnt, true, s.claInc)
			s.watch(c)
			s.learntCount++
			s.uncheckedEnqueue(learnt[0], c)
		}
		next = s.pickBranch()
	}
	before, learnt := reasons(), s.LearntCurrent()
	s.reduceDB()
	if got := s.LearntCurrent(); got >= learnt || got < len(before) {
		t.Errorf("reduceDB kept %d of %d learnt clauses with %d locked", got, learnt, len(before))
	}
	checkSolverInvariants(t, s)
	after := reasons()
	if len(after) != len(before) {
		t.Errorf("%d learnt reasons after reduceDB, want %d", len(after), len(before))
	}
	for l, cl := range before {
		if !slices.Equal(after[l], cl) {
			t.Errorf("reason of %v is %v after reduceDB, was %v", l, after[l], cl)
		}
	}
	s.cancelUntil(0)
	if !s.Solve(act.Not()) {
		t.Error("the released instance must be sat after reduceDB")
	}
}

// TestSimplifyAgainstBruteForce checks random instances with level-0 units
// against enumeration, under random assumptions, before and after
// Simplify; models must satisfy every clause.
func TestSimplifyAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := range 300 {
		nvars := 5 + rng.Intn(6)
		s := New()
		for range nvars {
			s.NewVar()
		}
		var cnf [][]Lit
		for range 2*nvars + rng.Intn(2*nvars) {
			cl := []Lit{randomLit(rng, nvars), randomLit(rng, nvars), randomLit(rng, nvars)}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		for range 1 + rng.Intn(3) {
			u := randomLit(rng, nvars)
			cnf = append(cnf, []Lit{u})
			s.AddClause(u)
		}
		assumps := []Lit{randomLit(rng, nvars), randomLit(rng, nvars)}
		query := func(stage string, assumps ...Lit) {
			full := slices.Clone(cnf)
			for _, a := range assumps {
				full = append(full, []Lit{a})
			}
			got, want := s.Solve(assumps...), brute(nvars, full)
			if got != want {
				t.Fatalf("iter %d %s under %v: solver=%v brute=%v", iter, stage, assumps, got, want)
			}
			if !got {
				return
			}
			for _, cl := range full {
				if !slices.ContainsFunc(cl, func(l Lit) bool { return s.Value(l.Var()) != l.Sign() }) {
					t.Fatalf("iter %d %s: model violates %v", iter, stage, cl)
				}
			}
		}
		query("before")
		query("before", assumps...)
		s.Simplify()
		if !s.unsat {
			checkSolverInvariants(t, s)
		}
		query("after")
		query("after", assumps...)
	}
}
