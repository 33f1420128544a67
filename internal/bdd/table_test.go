package bdd

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// goldenWorkload runs cacheWorkload (which grows the op cache), a GC, a
// reorder and a round of relational products and ITEs on the reordered
// manager, returning every result in order.
func goldenWorkload(m *Manager) []Ref {
	out := cacheWorkload(m)
	m.GC(out...)
	m.Reorder(out[:64]...)
	rng := rand.New(rand.NewSource(5))
	var cube []int
	for v := 0; v < 24; v += 3 {
		cube = append(cube, v)
	}
	c := m.Cube(cube)
	for range 48 {
		a, b := out[rng.Intn(64)], out[rng.Intn(64)]
		out = append(out, m.AndExists(a, b, c), m.Ite(a, b, m.Not(a)))
	}
	return out
}

// TestLayoutGolden pins the kernel's observable behaviour to values
// recorded with the chained unique table and 20-byte op-cache entries:
// the table and cache layouts may change how nodes and entries are
// stored, but not which Refs are handed out, how many nodes live, or
// which op-cache probes hit.
func TestLayoutGolden(t *testing.T) {
	m := New(24, Config{})
	refs := goldenWorkload(m)
	h := fnv.New64a()
	for _, r := range refs {
		h.Write([]byte{byte(r), byte(r >> 8), byte(r >> 16), byte(r >> 24)})
	}
	st := m.SnapshotStats()
	got := [5]uint64{uint64(len(refs)), h.Sum64(), uint64(m.NumNodes()), uint64(st.CacheHits), uint64(st.CacheMisses)}
	want := [5]uint64{405, 0x3cff1e89e9eefdd9, 1552, 265408, 277513}
	if got != want {
		t.Fatalf("(results, Ref fingerprint, nodes, cache hits, cache misses) = %#x, want %#x", got, want)
	}
}

// TestZeroTagSameNodes runs the golden workload with every hash tag equal,
// so each probe compares every node in its run. The tags only filter
// probes: Refs and node counts must match the default manager's.
func TestZeroTagSameNodes(t *testing.T) {
	tagged, untagged := New(24, Config{}), New(24, Config{})
	untagged.tagMask = 0
	a, b := goldenWorkload(tagged), goldenWorkload(untagged)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d: Ref %d with tags, %d without", i, a[i], b[i])
		}
	}
	if tagged.NumNodes() != untagged.NumNodes() {
		t.Fatalf("NumNodes %d with tags, %d without", tagged.NumNodes(), untagged.NumNodes())
	}
	checkInvariants(t, untagged)
}

// TestUnhookWrapsPastSlotZero builds a probe run that starts in the last
// two slots and wraps past slot 0, with entries homed at slot 0 queued
// behind the wrapped ones, then deletes the entries one by one. After
// each deletion every remaining entry must still be reachable from its
// home, and entries homed at slot 0 must not shift back across the wrap.
func TestUnhookWrapsPastSlotZero(t *testing.T) {
	m := New(4, Config{})
	mask := len(m.table) - 1
	pick := func(homes func(int) bool, k int) []Ref {
		var out []Ref
		for high := Ref(2); len(out) < k; high++ {
			if homes(int(hash3(0, int32(False), int32(high))) & mask) {
				r := m.newSlot()
				*m.node(r) = node{level: 0, low: False, high: high}
				m.hook(r)
				out = append(out, r)
			}
		}
		return out
	}
	refs := pick(func(h int) bool { return h >= mask-1 }, 4)
	refs = append(refs, pick(func(h int) bool { return h == 0 }, 2)...)
	if m.table[0] == 0 || m.table[3] == 0 {
		t.Fatalf("probe run did not wrap: slots 0..3 = %v", m.table[:4])
	}
	for _, victim := range []int{0, 4, 2, 1, 5, 3} {
		m.unhook(refs[victim])
		refs[victim] = 0
		checkTable(t, m)
		for _, r := range refs {
			if r == 0 {
				continue
			}
			n := m.node(r)
			if f, _, _ := m.lookup(n.level, n.low, n.high); f != r {
				t.Fatalf("after deleting entry %d, node %d is unreachable", victim, r)
			}
		}
	}
	for i, s := range m.table {
		if s != 0 {
			t.Fatalf("slot %d still holds %#x after every deletion", i, s)
		}
	}
}

// TestTableGrowsBetweenSwaps drives the swap primitive by hand on a pool
// the table held before the swaps without growing, checking the table
// after every adjacent-level swap: it must hold exactly the live nodes, at
// most 3/4 load, and have grown at some swap.
func TestTableGrowsBetweenSwaps(t *testing.T) {
	const nvars = 16
	m := New(nvars, Config{})
	funcs := randomFuncs(m, rand.New(rand.NewSource(9)), nvars, 64)
	acc := True
	for i := 0; m.NumNodes() < 11000; i++ {
		acc = m.Protect(m.Xor(acc, m.Or(funcs[i%64], funcs[(i*5+3)%64])))
	}
	m.GC()
	if len(m.table) != minTable {
		t.Fatalf("table grew before the swaps: %d slots at %d nodes", len(m.table), m.NumNodes())
	}
	m.rs = &reorderState{}
	m.buildReorderState(nil)
	for l := int32(0); l < nvars-1; l++ {
		m.swapAdjacent(l)
		if entries := checkTable(t, m); entries != m.rs.total {
			t.Fatalf("after swapping levels %d/%d: %d table entries, %d live nodes", l, l+1, entries, m.rs.total)
		}
	}
	m.rs = nil
	m.GC()
	checkInvariants(t, m)
	if len(m.table) == minTable {
		t.Fatalf("no swap grew the table (%d live nodes)", m.NumNodes())
	}
}
