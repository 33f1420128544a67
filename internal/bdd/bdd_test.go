package bdd

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// evalAll exhaustively compares a BDD against a reference boolean function
// over nvars variables.
func evalAll(t *testing.T, m *Manager, f Ref, nvars int, want func([]bool) bool, name string) {
	t.Helper()
	assign := make([]bool, nvars)
	for mask := 0; mask < 1<<nvars; mask++ {
		for i := range nvars {
			assign[i] = mask&(1<<i) != 0
		}
		if got := m.Eval(f, assign); got != want(assign) {
			t.Fatalf("%s: mismatch at %v: got %v", name, assign, got)
		}
	}
}

func TestBasicOps(t *testing.T) {
	m := New(3, Config{})
	x, y, z := m.Var(0), m.Var(1), m.Var(2)

	evalAll(t, m, m.And(x, y), 3, func(a []bool) bool { return a[0] && a[1] }, "and")
	evalAll(t, m, m.Or(x, z), 3, func(a []bool) bool { return a[0] || a[2] }, "or")
	evalAll(t, m, m.Not(y), 3, func(a []bool) bool { return !a[1] }, "not")
	evalAll(t, m, m.Xor(x, y), 3, func(a []bool) bool { return a[0] != a[1] }, "xor")
	evalAll(t, m, m.Iff(y, z), 3, func(a []bool) bool { return a[1] == a[2] }, "iff")
	evalAll(t, m, m.Implies(x, z), 3, func(a []bool) bool { return !a[0] || a[2] }, "implies")
	evalAll(t, m, m.Diff(x, y), 3, func(a []bool) bool { return a[0] && !a[1] }, "diff")
	evalAll(t, m, m.Ite(x, y, z), 3, func(a []bool) bool {
		if a[0] {
			return a[1]
		}
		return a[2]
	}, "ite")
	evalAll(t, m, m.NVar(1), 3, func(a []bool) bool { return !a[1] }, "nvar")
}

func TestCanonicity(t *testing.T) {
	m := New(4, Config{})
	x, y := m.Var(0), m.Var(1)
	// (x AND y) built two different ways must be the same node.
	a := m.And(x, y)
	b := m.Not(m.Or(m.Not(x), m.Not(y)))
	if a != b {
		t.Errorf("De Morgan forms differ: %d vs %d", a, b)
	}
	// Tautologies collapse to True.
	if got := m.Or(x, m.Not(x)); got != True {
		t.Errorf("x OR !x = %d, want True", got)
	}
	if got := m.And(x, m.Not(x)); got != False {
		t.Errorf("x AND !x = %d, want False", got)
	}
}

func TestExists(t *testing.T) {
	m := New(4, Config{})
	x, y, z := m.Var(0), m.Var(1), m.Var(2)
	f := m.And(m.Or(x, y), m.Or(m.Not(x), z))
	// ∃x. f = (y ∨ z ∨ (y∧z))... compute reference by expansion.
	cube := m.Cube([]int{0})
	g := m.Exists(f, cube)
	evalAll(t, m, g, 4, func(a []bool) bool {
		f0 := (false || a[1]) && (true || a[2])
		f1 := (true) && (!true || a[2]) || false
		_ = f1
		v0 := (a[1]) && true // x=false: (0∨y)∧(1∨z)
		v1 := true && (a[2]) // x=true:  (1∨y)∧(0∨z)
		_ = f0
		return v0 || v1
	}, "exists-x")

	// Quantifying all support yields a constant.
	all := m.Cube([]int{0, 1, 2})
	if got := m.Exists(f, all); got != True {
		t.Errorf("exists all vars of satisfiable f = %d, want True", got)
	}
	if got := m.Exists(False, all); got != False {
		t.Errorf("exists of False = %d", got)
	}
	// Quantifying variables outside the support is the identity.
	out := m.Cube([]int{3})
	if got := m.Exists(f, out); got != f {
		t.Errorf("exists over non-support changed f")
	}
}

func TestAndExistsEqualsComposition(t *testing.T) {
	f := func(seed uint16) bool {
		m := New(5, Config{})
		a := buildRandom(m, seed)
		b := buildRandom(m, seed^0x5aa5)
		cube := m.Cube([]int{1, 3})
		got := m.AndExists(a, b, cube)
		want := m.Exists(m.And(a, b), cube)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// buildRandom deterministically builds a pseudo-random function over the
// manager's variables from a seed.
func buildRandom(m *Manager, seed uint16) Ref {
	r := Ref(True)
	s := uint32(seed)*2654435761 + 1
	for i := 0; i < m.NumVars(); i++ {
		s = s*1664525 + 1013904223
		v := m.Var(i)
		if s&1 != 0 {
			v = m.Not(v)
		}
		switch (s >> 1) % 3 {
		case 0:
			r = m.And(r, v)
		case 1:
			r = m.Or(r, v)
		case 2:
			r = m.Xor(r, v)
		}
	}
	return r
}

func TestPermute(t *testing.T) {
	// Interleaved layout: cur bits at even indices, next at odd.
	m := New(6, Config{})
	curToNext := m.NewPermutation([]int{1, 1, 3, 3, 5, 5})
	f := m.And(m.Var(0), m.Or(m.Var(2), m.Not(m.Var(4)))) // cur-only
	g := m.Permute(f, curToNext)
	evalAll(t, m, g, 6, func(a []bool) bool { return a[1] && (a[3] || !a[5]) }, "permute")

	nextToCur := m.NewPermutation([]int{0, 0, 2, 2, 4, 4})
	back := m.Permute(g, nextToCur)
	if back != f {
		t.Errorf("round-trip permute changed function")
	}
}

func TestPermuteRejectsNonMonotone(t *testing.T) {
	m := New(4, Config{})
	f := m.And(m.Var(0), m.Var(1))
	// Swapping 0 and 1 is not order-preserving for a function using both.
	p := m.NewPermutation([]int{1, 0, 2, 3})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-monotone permutation")
		}
	}()
	m.Permute(f, p)
}

func TestSatCount(t *testing.T) {
	m := New(6, Config{})
	x, y := m.Var(0), m.Var(2)
	f := m.And(x, y)
	vars := []int{0, 2, 4}
	if got := m.SatCount(f, vars); got.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("SatCount(x∧y over 3 vars) = %v, want 2", got)
	}
	if got := m.SatCount(True, vars); got.Cmp(big.NewInt(8)) != 0 {
		t.Errorf("SatCount(True over 3 vars) = %v, want 8", got)
	}
	if got := m.SatCount(False, vars); got.Sign() != 0 {
		t.Errorf("SatCount(False) = %v, want 0", got)
	}
	or := m.Or(x, y)
	if got := m.SatCount(or, vars); got.Cmp(big.NewInt(6)) != 0 {
		t.Errorf("SatCount(x∨y over 3 vars) = %v, want 6", got)
	}
}

func TestSatCountAgainstBruteForce(t *testing.T) {
	f := func(seed uint16) bool {
		const n = 5
		m := New(n, Config{})
		g := buildRandom(m, seed)
		count := 0
		assign := make([]bool, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i := range n {
				assign[i] = mask&(1<<i) != 0
			}
			if m.Eval(g, assign) {
				count++
			}
		}
		vars := []int{0, 1, 2, 3, 4}
		return m.SatCount(g, vars).Cmp(big.NewInt(int64(count))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPickCube(t *testing.T) {
	m := New(4, Config{})
	f := m.And(m.Var(1), m.Not(m.Var(3)))
	cube := m.PickCube(f)
	if cube == nil {
		t.Fatal("PickCube returned nil for satisfiable f")
	}
	assign := make([]bool, 4)
	for i, v := range cube {
		assign[i] = v == 1
	}
	if !m.Eval(f, assign) {
		t.Errorf("PickCube assignment %v does not satisfy f", cube)
	}
	if m.PickCube(False) != nil {
		t.Error("PickCube(False) should be nil")
	}
}

func TestSupportAndSize(t *testing.T) {
	m := New(5, Config{})
	f := m.And(m.Var(0), m.Or(m.Var(3), m.Var(4)))
	sup := m.Support(f)
	want := []int{0, 3, 4}
	if len(sup) != len(want) {
		t.Fatalf("Support = %v", sup)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("Support = %v, want %v", sup, want)
		}
	}
	if m.Size(True) != 0 {
		t.Error("Size(True) != 0")
	}
	if m.Size(f) == 0 {
		t.Error("Size(f) == 0")
	}
}

func TestGCKeepsProtected(t *testing.T) {
	m := New(8, Config{})
	f := buildRandom(m, 0xbeef)
	m.Protect(f)
	// Build garbage.
	for s := range 50 {
		_ = buildRandom(m, uint16(s))
	}
	before := m.NumNodes()
	freed := m.GC()
	if freed == 0 {
		t.Error("GC freed nothing despite garbage")
	}
	if m.NumNodes() >= before {
		t.Error("node count did not drop")
	}
	// f still evaluates correctly and operations still work.
	evalAll(t, m, m.Not(m.Not(f)), 8, func(a []bool) bool { return m.Eval(f, a) }, "post-gc")
	// Rebuilding an identical function must find the same canonical nodes.
	g := buildRandom(m, 0xbeef)
	if g != f {
		t.Errorf("canonicity lost after GC: %d vs %d", f, g)
	}
	m.Unprotect(f)
}

func TestGCExtraRoots(t *testing.T) {
	m := New(6, Config{})
	f := buildRandom(m, 0x1234)
	m.GC(f)
	g := buildRandom(m, 0x1234)
	if g != f {
		t.Error("extra root was collected")
	}
}

func TestGCReuseAfterFree(t *testing.T) {
	m := New(6, Config{})
	_ = buildRandom(m, 1)
	m.GC()
	// Allocations after GC must reuse freed slots and stay canonical.
	a := m.And(m.Var(0), m.Var(1))
	b := m.And(m.Var(0), m.Var(1))
	if a != b {
		t.Error("canonicity broken after slot reuse")
	}
}

func TestUnprotectUnprotectedPanics(t *testing.T) {
	m := New(2, Config{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Unprotect(m.Var(0))
}

// Property: BDD ops agree with direct boolean semantics on random formulas.
func TestRandomFormulaSemantics(t *testing.T) {
	f := func(ops []uint8, seed uint8) bool {
		const n = 4
		m := New(n, Config{})
		refs := []Ref{m.Var(0), m.Var(1), m.Var(2), m.Var(3)}
		fns := []func([]bool) bool{
			func(a []bool) bool { return a[0] },
			func(a []bool) bool { return a[1] },
			func(a []bool) bool { return a[2] },
			func(a []bool) bool { return a[3] },
		}
		for _, op := range ops {
			i := int(op) % len(refs)
			j := int(op>>2) % len(refs)
			fi, fj := fns[i], fns[j]
			switch op % 3 {
			case 0:
				refs = append(refs, m.And(refs[i], refs[j]))
				fns = append(fns, func(a []bool) bool { return fi(a) && fj(a) })
			case 1:
				refs = append(refs, m.Or(refs[i], refs[j]))
				fns = append(fns, func(a []bool) bool { return fi(a) || fj(a) })
			case 2:
				refs = append(refs, m.Xor(refs[i], m.Not(refs[j])))
				fns = append(fns, func(a []bool) bool { return fi(a) == fj(a) })
			}
		}
		top := len(refs) - 1
		assign := make([]bool, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i := range n {
				assign[i] = mask&(1<<i) != 0
			}
			if m.Eval(refs[top], assign) != fns[top](assign) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestExistsAgainstBruteForce checks quantification semantics point-wise:
// ∃x.f at an assignment is f with x=0 or x=1.
func TestExistsAgainstBruteForce(t *testing.T) {
	f := func(seed uint16, cubeBits uint8) bool {
		const n = 5
		m := New(n, Config{})
		g := buildRandom(m, seed)
		var qvars []int
		for i := range n {
			if cubeBits&(1<<i) != 0 {
				qvars = append(qvars, i)
			}
		}
		q := m.Exists(g, m.Cube(qvars))
		assign := make([]bool, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i := range n {
				assign[i] = mask&(1<<i) != 0
			}
			// Reference: disjunction of g over all assignments to qvars.
			want := false
			sub := make([]bool, n)
			copy(sub, assign)
			for qm := 0; qm < 1<<len(qvars); qm++ {
				for k, v := range qvars {
					sub[v] = qm&(1<<k) != 0
				}
				if m.Eval(g, sub) {
					want = true
					break
				}
			}
			if m.Eval(q, assign) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// cacheWorkload runs one fixed operation sequence and returns every result
// in order: random formulas, running parities over them (which push the pool
// past the point where the default op cache first grows), then relational
// products, quantifications and renamings over them.
func cacheWorkload(m *Manager) []Ref {
	const nvars = 24
	out := randomFuncs(m, rand.New(rand.NewSource(3)), nvars, 64)
	acc := False
	for i := range 14 {
		acc = m.Xor(acc, m.Or(out[i], out[i+1]))
		out = append(out, acc)
	}
	var evens, odds []int
	shift := make([]int, nvars)
	for i := 0; i < nvars; i += 2 {
		evens, odds = append(evens, i), append(odds, i+1)
		shift[i], shift[i+1] = i+1, i+1 // even variable -> its odd partner
	}
	cur, next := m.Cube(evens), m.Cube(odds)
	up := m.NewPermutation(shift)
	for i, n := 0, len(out); i+1 < n; i++ {
		ex := m.Exists(m.Or(out[i], out[i+1]), cur)
		out = append(out, m.AndExists(out[i], out[i+1], cur), ex,
			m.Permute(m.Exists(out[i], next), up))
	}
	return out
}

// TestCacheNeverChangesNodeSet runs one operation sequence under a 16-entry
// op cache and under the default growing one. A cache hit only skips
// recomputing nodes that already exist, so both must return the same Refs
// and end with the same pool — the property that keeps peak-node counts
// independent of the cache.
func TestCacheNeverChangesNodeSet(t *testing.T) {
	small := New(24, Config{CacheSize: 16})
	big := New(24, Config{})
	a, b := cacheWorkload(small), cacheWorkload(big)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d: Ref %d under a 16-entry cache, %d under the default", i, a[i], b[i])
		}
	}
	if small.NumNodes() != big.NumNodes() {
		t.Fatalf("NumNodes %d vs %d", small.NumNodes(), big.NumNodes())
	}
	if len(small.cache) != 16 {
		t.Fatalf("small cache has %d entries, want 16", len(small.cache))
	}
	if len(big.cache) <= minCache {
		t.Fatalf("default cache never grew: %d entries at %d nodes", len(big.cache), big.NumNodes())
	}
	ss, bs := small.SnapshotStats(), big.SnapshotStats()
	if bs.CacheMisses >= ss.CacheMisses {
		t.Fatalf("default cache missed %d times, 16-entry cache %d", bs.CacheMisses, ss.CacheMisses)
	}
}

// TestCommutedOpsShareCacheEntry checks the operand normalization: And and
// Or are commutative, so the swapped call is a single cache hit.
func TestCommutedOpsShareCacheEntry(t *testing.T) {
	m := New(8, Config{})
	f := m.Xor(m.Var(0), m.Var(5))
	g := m.Or(m.Var(2), m.Not(m.Var(7)))
	for _, op := range []struct {
		name string
		fn   func(a, b Ref) Ref
	}{{"And", m.And}, {"Or", m.Or}} {
		r := op.fn(f, g)
		hits := m.SnapshotStats().CacheHits
		if op.fn(g, f) != r {
			t.Fatalf("%s is not commutative", op.name)
		}
		if got := m.SnapshotStats().CacheHits - hits; got != 1 {
			t.Fatalf("%s(g,f) after %s(f,g): %d cache hits, want 1", op.name, op.name, got)
		}
	}
}
