package bdd

import (
	"math/big"
	"sort"
)

// Cube builds the conjunction of the given variables (all positive), the
// form quantification operations expect.
func (m *Manager) Cube(vars []int) Ref {
	levels := make([]int32, len(vars))
	for i, v := range vars {
		levels[i] = m.var2level[v]
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	r := True
	for i := len(levels) - 1; i >= 0; i-- {
		r = m.mkNode(levels[i], False, r)
	}
	return r
}

// Exists computes the existential quantification of f over the variables of
// cube (a positive conjunction built with Cube).
func (m *Manager) Exists(f, cube Ref) Ref {
	if f == False || f == True || cube == True {
		return f
	}
	// Skip cube variables above f.
	for cube != True && m.node(cube).level < m.node(f).level {
		cube = m.node(cube).high
	}
	if cube == True {
		return f
	}
	if r, ok := m.cacheLookup(opExists, f, cube, 0); ok {
		return r
	}
	n := m.node(f)
	var r Ref
	if n.level == m.node(cube).level {
		r0 := m.Exists(n.low, m.node(cube).high)
		if r0 == True {
			r = True
		} else {
			r = m.Or(r0, m.Exists(n.high, m.node(cube).high))
		}
	} else {
		r = m.mkNode(n.level, m.Exists(n.low, cube), m.Exists(n.high, cube))
	}
	m.cacheStore(opExists, f, cube, 0, r)
	return r
}

// AndExists computes ∃cube. f ∧ g in one pass (the relational product at
// the heart of symbolic image computation).
func (m *Manager) AndExists(f, g, cube Ref) Ref {
	switch {
	case f == False || g == False:
		return False
	case f == True && g == True:
		return True
	case cube == True:
		return m.And(f, g)
	case f == True:
		return m.Exists(g, cube)
	case g == True:
		return m.Exists(f, cube)
	}
	nf, ng := m.node(f), m.node(g)
	top := nf.level
	if ng.level < top {
		top = ng.level
	}
	for cube != True && m.node(cube).level < top {
		cube = m.node(cube).high
	}
	if cube == True {
		return m.And(f, g)
	}
	if r, ok := m.cacheLookup(opAndExists, f, g, cube); ok {
		return r
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	var r Ref
	if m.node(cube).level == top {
		rest := m.node(cube).high
		r0 := m.AndExists(f0, g0, rest)
		if r0 == True {
			r = True
		} else {
			r = m.Or(r0, m.AndExists(f1, g1, rest))
		}
	} else {
		r = m.mkNode(top, m.AndExists(f0, g0, cube), m.AndExists(f1, g1, cube))
	}
	m.cacheStore(opAndExists, f, g, cube, r)
	return r
}

// Permutation is a registered variable renaming usable with Permute. The
// mapping must be strictly order-preserving on the support of every BDD it
// is applied to (adjacent cur/next interleaving satisfies this for
// cur-only or next-only functions).
type Permutation struct {
	id int32
	mp []int32
}

// NewPermutation registers a renaming: variable i maps to perm[i].
func (m *Manager) NewPermutation(perm []int) *Permutation {
	if len(perm) != int(m.nvars) {
		panic("bdd: permutation length must equal variable count")
	}
	mp := make([]int32, len(perm))
	for i, p := range perm {
		if p < 0 || p >= int(m.nvars) {
			panic("bdd: permutation target out of range")
		}
		mp[i] = int32(p)
	}
	m.permEpoch++
	return &Permutation{id: m.permEpoch, mp: mp}
}

// Permute renames the variables of f according to p.
func (m *Manager) Permute(f Ref, p *Permutation) Ref {
	r, _ := m.permute(f, p)
	return r
}

// permute returns the renamed BDD and the minimum (top) new level in its
// cone; the level is used to verify order preservation as we rebuild.
func (m *Manager) permute(f Ref, p *Permutation) (Ref, int32) {
	if f == False || f == True {
		return f, m.nvars
	}
	if r, ok := m.cacheLookup(opPermute, f, Ref(p.id), 0); ok {
		return r, m.node(r).level
	}
	n := m.node(f)
	newLevel := m.var2level[p.mp[m.level2var[n.level]]]
	r0, l0 := m.permute(n.low, p)
	r1, l1 := m.permute(n.high, p)
	if newLevel >= l0 || newLevel >= l1 {
		panic("bdd: permutation is not order-preserving on this function")
	}
	r := m.mkNode(newLevel, r0, r1)
	m.cacheStore(opPermute, f, Ref(p.id), 0, r)
	lvl := newLevel
	if r != False && r != True {
		lvl = m.node(r).level
	}
	return r, lvl
}

// SatCount returns the exact number of satisfying assignments of f over the
// given variable set. The support of f must be a subset of vars.
func (m *Manager) SatCount(f Ref, vars []int) *big.Int {
	sorted := make([]int32, len(vars))
	for i, v := range vars {
		sorted[i] = m.var2level[v]
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	index := make(map[int32]int, len(sorted))
	for i, v := range sorted {
		index[v] = i
	}
	// pos is f's position in sorted; the terminals sit past the end.
	pos := func(f Ref) int {
		if f == False || f == True {
			return len(sorted)
		}
		j, ok := index[m.node(f).level]
		if !ok {
			panic("bdd: SatCount variable set does not cover support")
		}
		return j
	}
	// below(f) counts f's models over the variables after its own
	// position: one big.Int per node, shared by every edge into it. A
	// child's count extends to its parent's suffix by a shift over the
	// positions skipped between them.
	zero, one := new(big.Int), big.NewInt(1)
	memo := make(map[Ref]*big.Int)
	var scratch big.Int
	var below func(f Ref) *big.Int
	below = func(f Ref) *big.Int {
		switch f {
		case False:
			return zero
		case True:
			return one
		}
		if c, ok := memo[f]; ok {
			return c
		}
		n, j := m.node(f), pos(f)
		lo, hi := below(n.low), below(n.high)
		c := new(big.Int).Lsh(lo, uint(pos(n.low)-j-1))
		c.Add(c, scratch.Lsh(hi, uint(pos(n.high)-j-1)))
		memo[f] = c
		return c
	}
	return new(big.Int).Lsh(below(f), uint(pos(f)))
}

// PickCube returns one satisfying assignment of f as a slice indexed by
// variable: 0, 1, or -1 (don't care). Returns nil when f is unsatisfiable.
func (m *Manager) PickCube(f Ref) []int8 {
	if f == False {
		return nil
	}
	out := make([]int8, m.nvars)
	for i := range out {
		out[i] = -1
	}
	for f != True {
		n := m.node(f)
		if n.low != False {
			out[m.level2var[n.level]] = 0
			f = n.low
		} else {
			out[m.level2var[n.level]] = 1
			f = n.high
		}
	}
	return out
}

// Eval evaluates f under a complete assignment indexed by variable.
func (m *Manager) Eval(f Ref, assign []bool) bool {
	for f != False && f != True {
		n := m.node(f)
		if assign[m.level2var[n.level]] {
			f = n.high
		} else {
			f = n.low
		}
	}
	return f == True
}

// Support returns the sorted variable indices appearing in f.
func (m *Manager) Support(f Ref) []int {
	seen := make(map[Ref]bool)
	vars := make(map[int32]bool)
	var walk func(Ref)
	walk = func(f Ref) {
		if f == False || f == True || seen[f] {
			return
		}
		seen[f] = true
		n := m.node(f)
		vars[n.level] = true
		walk(n.low)
		walk(n.high)
	}
	walk(f)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, int(m.level2var[v]))
	}
	sort.Ints(out)
	return out
}

// Size returns the number of nodes in the BDD rooted at f (excluding
// terminals).
func (m *Manager) Size(f Ref) int {
	seen := make(map[Ref]bool)
	var walk func(Ref) int
	walk = func(f Ref) int {
		if f == False || f == True || seen[f] {
			return 0
		}
		seen[f] = true
		n := m.node(f)
		return 1 + walk(n.low) + walk(n.high)
	}
	return walk(f)
}
