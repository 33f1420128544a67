package bdd

import (
	"math/rand"
	"testing"
)

// BenchmarkBuildRandomFunctions measures And/Or/Xor construction with the
// unique table and operation cache.
func BenchmarkBuildRandomFunctions(b *testing.B) {
	for b.Loop() {
		m := New(24, Config{})
		for s := range 64 {
			_ = buildRandom(m, uint16(s))
		}
	}
}

// BenchmarkAndExists measures the relational product on a synthetic
// relation: a chained adjacency over interleaved variable pairs.
func BenchmarkAndExists(b *testing.B) {
	const nvars = 32
	m := New(nvars, Config{})
	// rel: conjunction of (x_{2i} <-> x_{2i+1}) — a frame-like relation.
	rel := Ref(True)
	for i := 0; i < nvars; i += 2 {
		rel = m.And(rel, m.Iff(m.Var(i), m.Var(i+1)))
	}
	set := buildRandom(m, 0x77)
	var cur []int
	for i := 0; i < nvars; i += 2 {
		cur = append(cur, i)
	}
	cube := m.Cube(cur)
	b.ResetTimer()
	for b.Loop() {
		_ = m.AndExists(set, rel, cube)
	}
}

// BenchmarkSatCount measures exact model counting.
func BenchmarkSatCount(b *testing.B) {
	const nvars = 24
	m := New(nvars, Config{})
	f := buildRandom(m, 0x1234)
	vars := make([]int, nvars)
	for i := range vars {
		vars[i] = i
	}
	b.ResetTimer()
	for b.Loop() {
		_ = m.SatCount(f, vars)
	}
}

// BenchmarkPopulateAndGC measures building a garbage-heavy manager plus a
// full mark-and-sweep cycle (timed together: collection alone is a small
// fraction, and untimed per-iteration setup misleads b.Loop).
func BenchmarkPopulateAndGC(b *testing.B) {
	for b.Loop() {
		m := New(20, Config{})
		keep := m.Protect(buildRandom(m, 1))
		for s := range 200 {
			_ = buildRandom(m, uint16(s))
		}
		if m.GC() == 0 {
			b.Fatal("nothing collected")
		}
		_ = keep
	}
}

// BenchmarkCacheGrowth builds a running parity of random formulas until the
// pool passes 1<<18 live nodes, so the unique table rehashes and the op
// cache doubles three times past its initial size, re-homing its entries.
func BenchmarkCacheGrowth(b *testing.B) {
	for b.Loop() {
		m := New(24, Config{})
		funcs := randomFuncs(m, rand.New(rand.NewSource(3)), 24, 64)
		acc := False
		for i := 0; m.NumNodes() <= 1<<18; i++ {
			acc = m.Xor(acc, m.Or(funcs[i], funcs[i+1]))
		}
		if len(m.cache) < 1<<18 {
			b.Fatalf("op cache at %d entries after %d nodes", len(m.cache), m.NumNodes())
		}
	}
}

// BenchmarkUniqueTable measures mkNode's unique-table probe in a table of
// over 1<<20 nodes. Each iteration makes 1<<16 calls, alternating a triple
// already in the table with a new one; the new nodes are removed again,
// untimed, so every iteration probes the same table. Each call's operands
// depend on the previous result (r>>31 is always 0, but the compiler
// cannot know), as in the kernel's recursions, so the probes' cache misses
// cannot overlap.
func BenchmarkUniqueTable(b *testing.B) {
	const nvars, probes = 24, 1 << 16
	m := New(nvars, Config{})
	rng := rand.New(rand.NewSource(5))
	funcs := randomFuncs(m, rng, nvars, 64)
	acc := False
	for i := 0; m.NumNodes() <= 1<<20; i++ {
		acc = m.Xor(acc, m.Or(funcs[i%64], funcs[(i*7+1)%64]))
	}
	type triple struct {
		level     int32
		low, high Ref
	}
	ts := make([]triple, 0, probes)
	for len(ts) < probes {
		a, c := Ref(2+rng.Intn(m.used-2)), Ref(2+rng.Intn(m.used-2))
		if len(ts)%2 == 0 {
			n := m.node(a)
			ts = append(ts, triple{n.level, n.low, n.high})
		} else if top := min(m.node(a).level, m.node(c).level); a != c && top > 0 {
			ts = append(ts, triple{int32(rng.Intn(int(top))), a, c})
		}
	}
	mark := m.used
	round := func() {
		r := Ref(0)
		for j := range ts {
			t := ts[j^int(r>>31)]
			r = m.mkNode(t.level, t.low, t.high)
		}
		b.StopTimer()
		for r := m.used - 1; r >= mark; r-- {
			m.unhook(Ref(r))
		}
		m.used = mark
		b.StartTimer()
	}
	round() // let the table and the op cache take their final sizes
	b.ResetTimer()
	for b.Loop() {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/probe")
}
