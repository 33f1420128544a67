package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// searchRecord is everything one golden instance observably produces: the
// answer of every Solve call (S or U), the solver's cumulative counters
// after the last call, and an FNV-1a digest over every model, every
// FinalConflict core and the counters after each call.
type searchRecord struct {
	name          string
	answers       string
	conflicts     int
	decisions     int
	propagations  int
	restarts      int
	learntTotal   int
	learntCurrent int
	digest        uint64
}

func (r searchRecord) String() string {
	return fmt.Sprintf("{%q, %q, %d, %d, %d, %d, %d, %d, %#x}", r.name, r.answers,
		r.conflicts, r.decisions, r.propagations, r.restarts, r.learntTotal, r.learntCurrent, r.digest)
}

// searchLog folds Solve outcomes into a searchRecord.
type searchLog struct {
	s       *Solver
	answers []byte
	h       []byte
}

func (g *searchLog) word(x int) {
	g.h = fmt.Appendf(g.h, "%d,", x)
}

// solve runs one query and logs its answer, its model or core, and the
// counters after it.
func (g *searchLog) solve(assumps ...Lit) bool {
	ok := g.s.Solve(assumps...)
	if ok {
		g.answers = append(g.answers, 'S')
		for v := 1; v <= g.s.NumVars(); v++ {
			if g.s.Value(v) {
				g.word(v)
			}
		}
	} else {
		g.answers = append(g.answers, 'U')
		g.word(-1)
		for _, l := range g.s.FinalConflict() {
			g.word(int(l))
		}
	}
	g.word(g.s.Conflicts())
	g.word(g.s.Decisions())
	g.word(g.s.Propagations())
	g.word(g.s.Restarts())
	g.word(g.s.LearntTotal())
	g.word(g.s.LearntCurrent())
	g.h = append(g.h, ';')
	return ok
}

func (g *searchLog) record(name string) searchRecord {
	f := fnv.New64a()
	f.Write(g.h)
	return searchRecord{name, string(g.answers), g.s.Conflicts(), g.s.Decisions(),
		g.s.Propagations(), g.s.Restarts(), g.s.LearntTotal(), g.s.LearntCurrent(), f.Sum64()}
}

// randomLit draws a literal over variables 1..nvars.
func randomLit(rng *rand.Rand, nvars int) Lit {
	return Lit(2*(1+rng.Intn(nvars)) + rng.Intn(2))
}

// addRandom3SAT adds nclauses random 3-literal clauses over variables
// 1..nvars (which must already exist).
func addRandom3SAT(s *Solver, rng *rand.Rand, nvars, nclauses int) {
	for range nclauses {
		s.AddClause(randomLit(rng, nvars), randomLit(rng, nvars), randomLit(rng, nvars))
	}
}

func random3SATInstance(seed int64, nvars, nclauses int) *Solver {
	s := New()
	for range nvars {
		s.NewVar()
	}
	addRandom3SAT(s, rand.New(rand.NewSource(seed)), nvars, nclauses)
	return s
}

// incrementalSequence mimics an IC3-style session on one solver: a random
// base formula, clause groups guarded by fresh activation literals, queries
// under activation plus random assumptions, retired groups pinned false by
// a unit, a few level-0 facts, and Simplify every fourth query.
func incrementalSequence(g *searchLog) {
	s := g.s
	rng := rand.New(rand.NewSource(11))
	const nvars = 90
	for range nvars {
		s.NewVar()
	}
	addRandom3SAT(s, rng, nvars, 300)
	var acts []Lit
	for q := range 48 {
		act := Pos(s.NewVar())
		acts = append(acts, act)
		for range 40 {
			cl := []Lit{act.Not()}
			for range 3 {
				cl = append(cl, randomLit(rng, nvars))
			}
			s.AddClause(cl...)
		}
		assumps := []Lit{act}
		for range 1 + rng.Intn(12) {
			assumps = append(assumps, randomLit(rng, nvars))
		}
		g.solve(assumps...)
		if q%3 == 2 {
			// Retire the oldest live group.
			s.AddClause(acts[0].Not())
			acts = acts[1:]
		}
		if q%7 == 6 {
			s.AddClause(randomLit(rng, nvars))
		}
		if q%4 == 3 {
			s.Simplify()
		}
	}
	g.solve()
}

// goldenSearch is the recorded behaviour of the solver on each instance.
// The memory layout of the solver may change freely, but every entry must
// stay identical: a layout change that reorders watch lists, breaks a heap
// tie differently or rounds an activity differently shows up here.
var goldenSearch = []searchRecord{
	{"3sat-120-sat", "S", 225, 294, 6783, 2, 225, 225, 0x5b5d40d0f346fd4},
	{"3sat-120-unsat", "U", 536, 662, 14292, 4, 535, 529, 0xf9c08efd3e69f651},
	{"php-7-6", "U", 762, 912, 9964, 5, 761, 754, 0x60bb9524ad2e6b60},
	{"incremental-simplify", "UUUSUSUUUUUUUUSUUSSUUUUUUSUUUUUUUUUUUUUSUUUUUUUUU", 166, 531, 4835, 0, 165, 73, 0xe3adbed01dbae419},
	{"3sat-230-reduce-rescale", "U", 64493, 77495, 2613841, 193, 64492, 8592, 0x5870ac7dd08d1459},
}

func runGoldenInstance(name string) searchRecord {
	g := &searchLog{}
	switch name {
	case "3sat-120-sat":
		g.s = random3SATInstance(3, 120, 500)
		g.solve()
	case "3sat-120-unsat":
		g.s = random3SATInstance(1, 120, 540)
		g.solve()
	case "php-7-6":
		g.s = New()
		pigeonhole(g.s, 7, 6)
		g.solve()
	case "incremental-simplify":
		g.s = New()
		incrementalSequence(g)
	case "3sat-230-reduce-rescale":
		g.s = random3SATInstance(5, 230, 1000)
		g.solve()
	default:
		panic("unknown golden instance " + name)
	}
	return g.record(name)
}

// TestSearchGolden pins the exact search of the solver: answers,
// conflicts, decisions, propagations, restarts, learnt-clause counts and a
// digest of every model and FinalConflict core. The last instance runs
// long enough to pass reduceDB (more than 4000 learnt clauses), the
// variable-activity rescale (more than 4489 conflicts lift the increment
// past 1e100) and the clause-activity rescale (more than 46030 conflicts
// lift it past 1e20).
func TestSearchGolden(t *testing.T) {
	for _, want := range goldenSearch {
		got := runGoldenInstance(want.name)
		if got != want {
			t.Errorf("search changed:\n got  %v\n want %v", got, want)
		}
	}
	last := goldenSearch[len(goldenSearch)-1]
	if last.conflicts <= 46030 || last.learntTotal <= 4000 || last.learntCurrent >= last.learntTotal-1000 {
		t.Errorf("%s no longer reaches reduceDB and the activity rescale: %v", last.name, last)
	}
}
