package sat

import (
	"math/rand"
	"testing"
)

// BenchmarkPigeonholeUnsat measures CDCL on the classic hard family.
func BenchmarkPigeonholeUnsat(b *testing.B) {
	for b.Loop() {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() {
			b.Fatal("PHP(8,7) must be unsat")
		}
	}
}

// BenchmarkRandom3SAT measures solving near the phase transition
// (clause/variable ratio ~4.3).
func BenchmarkRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for b.Loop() {
		s := New()
		const nvars = 120
		vars := make([]int, nvars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		for range 516 {
			var cl [3]Lit
			for k := range 3 {
				v := vars[rng.Intn(nvars)]
				if rng.Intn(2) == 0 {
					cl[k] = Pos(v)
				} else {
					cl[k] = Neg(v)
				}
			}
			s.AddClause(cl[:]...)
		}
		_ = s.Solve()
	}
}

// BenchmarkIncrementalAssumptions measures repeated solving under varying
// assumptions, the BMC usage pattern.
func BenchmarkIncrementalAssumptions(b *testing.B) {
	s := New()
	const n = 60
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+2 < n; i++ {
		s.AddClause(Neg(vars[i]), Pos(vars[i+1]), Pos(vars[i+2]))
	}
	b.ResetTimer()
	for b.Loop() {
		for i := range 16 {
			_ = s.Solve(Pos(vars[i]), Neg(vars[n-1-i]))
		}
	}
}

// BenchmarkIC3Pattern measures the IC3 usage pattern on one incremental
// solver: every query adds a clause group guarded by a fresh activation
// literal, solves under that literal plus many state assumptions, and then
// retires the group by pinning the literal false; Simplify runs
// periodically to drop the retired clauses.
func BenchmarkIC3Pattern(b *testing.B) {
	const (
		nvars    = 300
		queries  = 512
		simplify = 64
	)
	rng := rand.New(rand.NewSource(5))
	base := make([][]Lit, 850)
	for i := range base {
		base[i] = []Lit{randomLit(rng, nvars), randomLit(rng, nvars), randomLit(rng, nvars)}
	}
	type query struct {
		group   [][]Lit
		assumps []Lit
	}
	qs := make([]query, queries)
	for i := range qs {
		for range 8 {
			qs[i].group = append(qs[i].group, []Lit{randomLit(rng, nvars), randomLit(rng, nvars), randomLit(rng, nvars)})
		}
		for range 16 {
			qs[i].assumps = append(qs[i].assumps, randomLit(rng, nvars))
		}
	}
	for b.Loop() {
		s := New()
		for range nvars {
			s.NewVar()
		}
		for _, cl := range base {
			s.AddClause(cl...)
		}
		sat := 0
		for i, q := range qs {
			act := Pos(s.NewVar())
			for _, cl := range q.group {
				s.AddClause(append([]Lit{act.Not()}, cl...)...)
			}
			if s.Solve(append([]Lit{act}, q.assumps...)...) {
				sat++
			}
			s.AddClause(act.Not())
			if i%simplify == simplify-1 {
				s.Simplify()
			}
		}
		if sat == 0 || sat == queries {
			b.Fatalf("%d of %d queries sat: the pattern needs both answers", sat, queries)
		}
	}
}
