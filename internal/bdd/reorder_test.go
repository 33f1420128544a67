package bdd

import (
	"math/rand"
	"testing"
)

// checkInvariants verifies the structural health of the whole manager:
// children strictly below parents, no duplicate triples (canonicity), no
// collapsed nodes, every live node findable through the unique table (see
// checkTable), and var2level/level2var mutually inverse.
func checkInvariants(t *testing.T, m *Manager) {
	t.Helper()
	for i := 0; i < int(m.nvars); i++ {
		if m.level2var[m.var2level[i]] != int32(i) {
			t.Fatalf("var2level/level2var not inverse at var %d", i)
		}
	}
	isFree := make(map[Ref]bool, len(m.free))
	for _, f := range m.free {
		isFree[f] = true
	}
	seen := make(map[[3]int32]Ref)
	for i := 2; i < m.used; i++ {
		n := m.node(Ref(i))
		if isFree[Ref(i)] {
			if n.level >= 0 {
				t.Fatalf("free slot %d lacks the level -1 marker", i)
			}
			continue
		}
		if n.level < 0 {
			t.Fatalf("node %d: reorder sentinel survived outside a reorder", i)
		}
		if n.low == n.high {
			t.Fatalf("node %d: collapsed node in pool", i)
		}
		for _, c := range []Ref{n.low, n.high} {
			if c > 1 && m.node(c).level <= n.level {
				t.Fatalf("node %d (level %d): child %d at level %d not strictly below",
					i, n.level, c, m.node(c).level)
			}
		}
		key := [3]int32{n.level, int32(n.low), int32(n.high)}
		if prev, dup := seen[key]; dup {
			t.Fatalf("duplicate nodes %d and %d for triple %v", prev, i, key)
		}
		seen[key] = Ref(i)
		if r, _, _ := m.lookup(n.level, n.low, n.high); r != Ref(i) {
			t.Fatalf("node %d: unique-table probe finds %d", i, r)
		}
	}
	if entries := checkTable(t, m); entries != m.NumNodes()-2 {
		t.Fatalf("unique table holds %d entries, want %d live non-terminals", entries, m.NumNodes()-2)
	}
}

// checkTable verifies the unique table's own invariants and returns its
// entry count: every entry is a live node (no free slot, no reorder-dead
// node) carrying its hash tag, no empty slot lies between an entry's home
// and its slot (so probes reach it), and the load is at most 3/4.
func checkTable(t *testing.T, m *Manager) int {
	t.Helper()
	mask := len(m.table) - 1
	entries := 0
	for i, s := range m.table {
		if s == 0 {
			continue
		}
		entries++
		r := Ref(s & refMask)
		if r < 2 || int(r) >= m.used || m.node(r).level < 0 {
			t.Fatalf("slot %d holds %d, not a live node", i, r)
		}
		h := m.home(r)
		if s&m.tagMask != uint32(h>>32)&m.tagMask {
			t.Fatalf("slot %d: node %d carries tag %#x, want %#x", i, r, s&m.tagMask, uint32(h>>32)&m.tagMask)
		}
		for j := int(h) & mask; j != i; j = (j + 1) & mask {
			if m.table[j] == 0 {
				t.Fatalf("node %d in slot %d: empty slot %d between it and its home", r, i, j)
			}
		}
	}
	if tableFull(entries, len(m.table)) {
		t.Fatalf("unique table past 3/4 load: %d entries in %d slots", entries, len(m.table))
	}
	return entries
}

// truthTable snapshots f over nvars variables as a bitset.
func truthTable(m *Manager, f Ref, nvars int) []uint64 {
	tt := make([]uint64, (1<<nvars+63)/64)
	assign := make([]bool, nvars)
	for mask := 0; mask < 1<<nvars; mask++ {
		for i := 0; i < nvars; i++ {
			assign[i] = mask&(1<<i) != 0
		}
		if m.Eval(f, assign) {
			tt[mask/64] |= 1 << (mask % 64)
		}
	}
	return tt
}

// randomFuncs builds k random functions over nvars variables and protects
// them.
func randomFuncs(m *Manager, rng *rand.Rand, nvars, k int) []Ref {
	out := make([]Ref, 0, k)
	for len(out) < k {
		f := True
		for j := 0; j < 6; j++ {
			v := rng.Intn(nvars)
			lit := m.Var(v)
			if rng.Intn(2) == 0 {
				lit = m.NVar(v)
			}
			switch rng.Intn(3) {
			case 0:
				f = m.And(f, lit)
			case 1:
				f = m.Or(f, lit)
			default:
				f = m.Xor(f, lit)
			}
		}
		out = append(out, m.Protect(f))
	}
	return out
}

func TestReorderPreservesFunctions(t *testing.T) {
	const nvars = 10
	rng := rand.New(rand.NewSource(7))
	m := New(nvars, Config{})
	funcs := randomFuncs(m, rng, nvars, 20)
	want := make([][]uint64, len(funcs))
	for i, f := range funcs {
		want[i] = truthTable(m, f, nvars)
	}
	before := m.NumNodes()
	st := m.Reorder()
	checkInvariants(t, m)
	if st.NodesAfter > st.NodesBefore {
		t.Errorf("reorder grew the pool: %d -> %d", st.NodesBefore, st.NodesAfter)
	}
	if m.NumNodes() > before {
		t.Errorf("live nodes grew across reorder: %d -> %d", before, m.NumNodes())
	}
	for i, f := range funcs {
		got := truthTable(m, f, nvars)
		for w := range got {
			if got[w] != want[i][w] {
				t.Fatalf("function %d changed across reorder", i)
			}
		}
	}
	// Ops must still work on the reordered manager.
	g := m.And(funcs[0], m.Not(funcs[1]))
	_ = truthTable(m, g, nvars)
	checkInvariants(t, m)
}

func TestReorderRepeatedlyWithGC(t *testing.T) {
	const nvars = 12
	rng := rand.New(rand.NewSource(99))
	m := New(nvars, Config{})
	funcs := randomFuncs(m, rng, nvars, 12)
	want := make([][]uint64, len(funcs))
	for i, f := range funcs {
		want[i] = truthTable(m, f, nvars)
	}
	for round := 0; round < 5; round++ {
		m.Reorder()
		checkInvariants(t, m)
		m.GC()
		checkInvariants(t, m)
		// Mutate the protected set a little between rounds.
		f := m.Protect(m.Xor(funcs[round%len(funcs)], funcs[(round+1)%len(funcs)]))
		m.Unprotect(f)
		for i, f := range funcs {
			got := truthTable(m, f, nvars)
			for w := range got {
				if got[w] != want[i][w] {
					t.Fatalf("round %d: function %d changed", round, i)
				}
			}
		}
	}
}

func TestSetGroupsKeepsPairsAdjacent(t *testing.T) {
	const nvars = 12
	rng := rand.New(rand.NewSource(3))
	m := New(nvars, Config{})
	var groups [][]int
	for v := 0; v < nvars; v += 2 {
		groups = append(groups, []int{v, v + 1})
	}
	m.SetGroups(groups)
	randomFuncs(m, rng, nvars, 16)
	m.Reorder()
	checkInvariants(t, m)
	for v := 0; v < nvars; v += 2 {
		if m.VarLevel(v+1) != m.VarLevel(v)+1 {
			t.Fatalf("pair (%d,%d) split: levels %d and %d", v, v+1, m.VarLevel(v), m.VarLevel(v+1))
		}
	}
}

// TestReorderKeepsPermutationsValid is the pair-grouping invariant end to
// end: an interleaved cur/next renaming registered before any reorder must
// stay order-preserving (and correct) after sifting moves the pairs.
func TestReorderKeepsPermutationsValid(t *testing.T) {
	const pairs = 5
	const nvars = 2 * pairs
	m := New(nvars, Config{})
	var groups [][]int
	permCN := make([]int, nvars)
	permNC := make([]int, nvars)
	for p := 0; p < pairs; p++ {
		c, n := 2*p, 2*p+1
		groups = append(groups, []int{c, n})
		permCN[c], permCN[n] = n, n
		permNC[c], permNC[n] = c, c
	}
	m.SetGroups(groups)
	curToNext := m.NewPermutation(permCN)
	nextToCur := m.NewPermutation(permNC)

	rng := rand.New(rand.NewSource(11))
	// Functions over cur variables only.
	var curFuncs []Ref
	for i := 0; i < 10; i++ {
		f := True
		for j := 0; j < 5; j++ {
			v := 2 * rng.Intn(pairs)
			lit := m.Var(v)
			if rng.Intn(2) == 0 {
				lit = m.NVar(v)
			}
			if rng.Intn(2) == 0 {
				f = m.And(f, lit)
			} else {
				f = m.Or(f, lit)
			}
		}
		curFuncs = append(curFuncs, m.Protect(f))
	}
	want := make([][]uint64, len(curFuncs))
	for i, f := range curFuncs {
		want[i] = truthTable(m, m.Permute(f, curToNext), nvars)
	}
	m.Reorder()
	checkInvariants(t, m)
	for i, f := range curFuncs {
		g := m.Permute(f, curToNext) // must not panic: pairs stayed interleaved
		got := truthTable(m, g, nvars)
		for w := range got {
			if got[w] != want[i][w] {
				t.Fatalf("permuted function %d changed across reorder", i)
			}
		}
		if back := m.Permute(g, nextToCur); back != f {
			t.Fatalf("round-trip rename of function %d lost identity", i)
		}
	}
}

func TestAutoReorderTrigger(t *testing.T) {
	const nvars = 14
	m := New(nvars, Config{AutoReorder: true, ReorderStart: 64})
	if m.ReorderPending() {
		t.Fatal("fresh manager should not have a pending reorder")
	}
	// Build something big enough to cross the threshold: a parity-ish mix.
	f := False
	for v := 0; v < nvars; v++ {
		f = m.Xor(f, m.Var(v))
	}
	g := True
	for v := 0; v < nvars-1; v++ {
		g = m.And(g, m.Or(m.Var(v), m.Var(v+1)))
	}
	if !m.ReorderPending() {
		t.Fatalf("threshold %d not armed at %d nodes", 64, m.NumNodes())
	}
	m.Protect(f)
	m.Protect(g)
	st, ran := m.ReorderIfPending()
	if !ran {
		t.Fatal("ReorderIfPending did not run")
	}
	if m.ReorderPending() {
		t.Fatal("pending flag survived the reorder")
	}
	if st.Swaps == 0 {
		t.Error("sifting performed no swaps on a 14-variable pool")
	}
	checkInvariants(t, m)
	if _, ran := m.ReorderIfPending(); ran {
		t.Fatal("second ReorderIfPending ran without pending flag")
	}
	stats := m.SnapshotStats()
	if stats.Reorders != 1 || stats.ReorderSwaps != st.Swaps {
		t.Errorf("stats = %+v, want 1 reorder with %d swaps", stats, st.Swaps)
	}
}

// TestReorderShrinksSeparatedPairs is the classic win: for f = (a0∧b0) ∨
// (a1∧b1) ∨ ... with all a's ordered before all b's, the BDD is
// exponential; interleaving the pairs makes it linear. Sifting must find
// (something close to) the small order.
func TestReorderShrinksSeparatedPairs(t *testing.T) {
	const pairs = 7
	const nvars = 2 * pairs
	m := New(nvars, Config{})
	// Variables 0..pairs-1 are the a's, pairs..2*pairs-1 the b's.
	f := False
	for p := 0; p < pairs; p++ {
		f = m.Or(f, m.And(m.Var(p), m.Var(pairs+p)))
	}
	m.Protect(f)
	before := m.Size(f)
	st := m.Reorder()
	checkInvariants(t, m)
	after := m.Size(f)
	if after >= before {
		t.Fatalf("sifting did not shrink the separated-pairs function: %d -> %d (stats %+v)",
			before, after, st)
	}
	// The optimal interleaved order gives 3n-1 nodes (plus terminals
	// excluded by Size); allow slack but require the exponential cliff gone.
	if after > 6*pairs {
		t.Errorf("size after sifting = %d, want near-linear (≤ %d)", after, 6*pairs)
	}
	tt := truthTable(m, f, nvars)
	m2 := New(nvars, Config{})
	f2 := False
	for p := 0; p < pairs; p++ {
		f2 = m2.Or(f2, m2.And(m2.Var(p), m2.Var(pairs+p)))
	}
	tt2 := truthTable(m2, f2, nvars)
	for w := range tt {
		if tt[w] != tt2[w] {
			t.Fatal("function changed across reorder")
		}
	}
}

func TestVarOrderAccessors(t *testing.T) {
	m := New(6, Config{})
	for v := 0; v < 6; v++ {
		if m.VarLevel(v) != v || m.VarAt(v) != v {
			t.Fatalf("fresh manager order not identity at %d", v)
		}
	}
	ord := m.VarOrder()
	if len(ord) != 6 {
		t.Fatalf("VarOrder length %d", len(ord))
	}
	randomFuncs(m, rand.New(rand.NewSource(1)), 6, 8)
	m.Reorder()
	ord = m.VarOrder()
	seen := make([]bool, 6)
	for l, v := range ord {
		if m.VarLevel(v) != l || m.VarAt(l) != v {
			t.Fatalf("accessors inconsistent at level %d", l)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("variable %d missing from order", v)
		}
	}
}

// TestReorderPoolRealloc pins the swap primitive against pool growth
// mid-rewrite: swapAdjacent holds a *node for the node it rewrites while
// reorderMk allocates its new cofactors. The test pads the pool up to a
// chunk boundary, so the leading GC leaves the last chunk full and the
// first reorderMk opens a new chunk mid-swap, then checks every function
// and every structural invariant survived.
func TestReorderPoolRealloc(t *testing.T) {
	const nvars = 12
	rng := rand.New(rand.NewSource(42))
	m := New(nvars, Config{})
	funcs := randomFuncs(m, rng, nvars, 24)
	want := make([][]uint64, len(funcs))
	for i, f := range funcs {
		want[i] = truthTable(m, f, nvars)
	}
	// Take the rest of the first chunk, then free it all again: the GC puts
	// it on the freelist, which reorderMk bypasses.
	for m.used < chunkSize {
		m.newSlot()
	}
	chunks := len(m.chunks)
	m.Reorder()
	if st := m.SnapshotStats(); st.ReorderSwaps == 0 {
		t.Fatal("reorder made no swaps")
	}
	if len(m.chunks) <= chunks {
		t.Fatalf("reorder opened no chunk: %d chunks, %d slots used", len(m.chunks), m.used)
	}
	checkInvariants(t, m)
	for i, f := range funcs {
		got := truthTable(m, f, nvars)
		for w := range got {
			if got[w] != want[i][w] {
				t.Fatalf("function %d changed across a chunk-opening reorder", i)
			}
		}
	}
}
