// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// over a chunked node pool, with an open-addressed, tag-filtered unique
// table kept at load at most 3/4, a direct-mapped operation cache that
// grows with the node count, explicit mark-and-sweep garbage collection,
// quantification, relational products, order-preserving renaming, and
// exact model counting. It is the backend of the symbolic model checker
// (package mc/symbolic).
package bdd

import (
	"errors"
	"fmt"
	"time"
)

// Ref identifies a BDD node in a Manager. The constants False and True are
// the terminal nodes of every manager.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// ErrNodeLimit is thrown (via panic, recovered at engine boundaries) when a
// manager exceeds its configured node capacity.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

type node struct {
	level     int32 // position in the current order; terminals use level = nvars; -1 marks a free slot
	low, high Ref
}

// Refs are 28 bits wide. The spare high bits of a 32-bit word carry a
// hash tag in a unique-table slot and the op code in an op-cache key.
const (
	refBits = 28
	maxRefs = 1 << refBits
	refMask = maxRefs - 1
)

// The node pool is a list of fixed-size chunks: growing it copies nothing,
// leaves no garbage, and never moves a node, so *node pointers stay valid
// across allocation (reorderMk relies on this mid-swap).
const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
)

// The unique table starts at minTable slots. The op cache starts at
// minCache entries and doubles each time the live-node count passes
// cacheMark, which doubles with it (about one entry per live node), up to
// Config.CacheSize.
const (
	minTable        = 1 << 14
	minCache        = 1 << 16
	defaultCacheMax = 1 << 21
)

// cacheEntry is 16 bytes, so four fill a 64-byte line and none straddles
// two. key is op<<refBits | f; 0 marks an empty entry (op codes start at 1).
type cacheEntry struct {
	key    uint32
	g, h   Ref
	result Ref
}

// Cache operation codes.
const (
	opIte int32 = iota + 1
	opExists
	opAndExists
	opPermute
)

// Manager owns the node pool of a BDD universe. Variables start at level
// i = variable index (0 is topmost); dynamic reordering (see reorder.go)
// may move them, with var2level/level2var tracking the mapping. All public
// APIs speak variable indices; node levels are internal.
type Manager struct {
	nvars     int32
	chunks    []*[chunkSize]node // Ref r lives at chunks[r>>chunkBits][r%chunkSize]
	used      int                // slots handed out: live, free and reorder-dead
	free      []Ref              // freelist from GC
	table     []uint32           // unique table (table.go)
	tagMask   uint32             // slot bits that hold the hash tag
	cache     []cacheEntry
	cacheMax  int // op-cache ceiling (Config.CacheSize)
	cacheMark int // live-node count past which the op cache next doubles

	var2level []int32   // variable index -> level
	level2var []int32   // level -> variable index
	groups    [][]int32 // variable groups kept adjacent while sifting

	roots     map[Ref]int // protected external references
	nodeLimit int
	gcCount   int
	permEpoch int32 // distinguishes permutations in the op cache

	// Dynamic-reordering state (reorder.go).
	autoReorder      bool
	reorderStart     int
	reorderMaxGrowth float64
	reorderThreshold int
	reorderPending   bool
	rs               *reorderState
	reorders         int
	reorderSwaps     int
	reorderGain      int
	reorderPause     time.Duration

	// Stats: plain fields — the manager is single-threaded and the cache
	// probe is the hottest path in the symbolic engine. PublishObs flushes
	// deltas to an attached obs registry at safe points.
	gcFreed     int
	gcPause     time.Duration
	cacheHits   int
	cacheMisses int

	obs obsSinks
}

// Config tunes a Manager.
type Config struct {
	// NodeLimit caps the node pool (0 = default 48M nodes, roughly 1 GiB).
	// Values above 2^28, the width of a Ref, are clamped to 2^28.
	NodeLimit int
	// CacheSize is the ceiling of the operation cache, in entries, rounded
	// up to a power of two (0 = default 1<<21 entries of 16 bytes, 32 MB).
	// The cache starts at 1<<16 entries (or the ceiling, if smaller) and
	// doubles as the live-node count does, up to this ceiling; its size
	// never changes which nodes exist.
	CacheSize int
	// AutoReorder arms dynamic variable reordering: once the node pool
	// grows past the reorder threshold, the manager flags a reorder as
	// pending, and the next safe point (ReorderIfPending, or a manual
	// Reorder) runs pair-grouped sifting. Reordering has the same caller
	// contract as GC: no unprotected intermediate results may be live.
	AutoReorder bool
	// ReorderStart is the live-node count that arms the first automatic
	// reorder (0 = default 1<<14). After each reorder the threshold is
	// doubled relative to the post-reorder pool so reordering amortises.
	ReorderStart int
	// ReorderMaxGrowth bounds transient growth while sifting: a block
	// stops moving in a direction once the pool exceeds this factor of the
	// best size seen (0 = default 1.2).
	ReorderMaxGrowth float64
}

// New returns a manager with nvars boolean variables.
func New(nvars int, cfg Config) *Manager {
	if cfg.NodeLimit == 0 {
		cfg.NodeLimit = 48 << 20
	}
	cfg.NodeLimit = min(cfg.NodeLimit, maxRefs)
	if cfg.CacheSize == 0 {
		cfg.CacheSize = defaultCacheMax
	}
	if cfg.ReorderStart == 0 {
		cfg.ReorderStart = 1 << 14
	}
	if cfg.ReorderMaxGrowth == 0 {
		cfg.ReorderMaxGrowth = 1.2
	}
	cacheMax := 1
	for cacheMax < cfg.CacheSize {
		cacheMax <<= 1
	}
	m := &Manager{
		nvars:            int32(nvars),
		table:            make([]uint32, minTable),
		tagMask:          ^uint32(refMask),
		cache:            make([]cacheEntry, min(minCache, cacheMax)),
		cacheMax:         cacheMax,
		cacheMark:        minTable,
		roots:            make(map[Ref]int),
		nodeLimit:        cfg.NodeLimit,
		var2level:        make([]int32, nvars),
		level2var:        make([]int32, nvars),
		autoReorder:      cfg.AutoReorder,
		reorderStart:     cfg.ReorderStart,
		reorderMaxGrowth: cfg.ReorderMaxGrowth,
		reorderThreshold: cfg.ReorderStart,
	}
	for i := 0; i < nvars; i++ {
		m.var2level[i] = int32(i)
		m.level2var[i] = int32(i)
	}
	*m.node(m.newSlot()) = node{level: m.nvars, low: False, high: False}
	*m.node(m.newSlot()) = node{level: m.nvars, low: True, high: True}
	return m
}

// node returns the pool slot of r. The pointer stays valid for the life of
// the manager.
func (m *Manager) node(r Ref) *node {
	return &m.chunks[r>>chunkBits][r&(chunkSize-1)]
}

// newSlot hands out the next never-used slot, opening a chunk when the
// last one is full.
func (m *Manager) newSlot() Ref {
	if m.used == len(m.chunks)*chunkSize {
		m.chunks = append(m.chunks, new([chunkSize]node))
	}
	m.used++
	return Ref(m.used - 1)
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return int(m.nvars) }

// NumNodes returns the number of live (allocated, not freed) nodes,
// including the two terminals.
func (m *Manager) NumNodes() int { return m.used - len(m.free) }

// VarLevel returns the current level of variable i.
func (m *Manager) VarLevel(i int) int { return int(m.var2level[i]) }

// VarAt returns the variable index at the given level.
func (m *Manager) VarAt(level int) int { return int(m.level2var[level]) }

// VarOrder returns the current order as a level-indexed slice of variable
// indices (a copy).
func (m *Manager) VarOrder() []int {
	out := make([]int, m.nvars)
	for l, v := range m.level2var {
		out[l] = int(v)
	}
	return out
}

// Var returns the BDD for variable i.
func (m *Manager) Var(i int) Ref {
	return m.mkNode(m.var2level[i], False, True)
}

// NVar returns the BDD for the negation of variable i.
func (m *Manager) NVar(i int) Ref {
	return m.mkNode(m.var2level[i], True, False)
}

// mkNode returns the canonical node (level, low, high), creating it if
// needed.
func (m *Manager) mkNode(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	r, slot, tag := m.lookup(level, low, high)
	if r != 0 {
		return r
	}
	if k := len(m.free); k > 0 {
		r = m.free[k-1]
		m.free = m.free[:k-1]
	} else {
		if m.used >= m.nodeLimit {
			panic(ErrNodeLimit)
		}
		r = m.newSlot()
	}
	*m.node(r) = node{level: level, low: low, high: high}
	m.table[slot] = tag | uint32(r)
	live := m.NumNodes()
	if m.autoReorder && !m.reorderPending && live >= m.reorderThreshold {
		m.reorderPending = true
	}
	if live > m.cacheMark {
		m.cacheMark *= 2
		if size := min(m.cacheMark, m.cacheMax); size > len(m.cache) {
			m.growCache(size)
		}
	}
	if tableFull(live-2, len(m.table)) { // the terminals are not in the table
		m.rebuild(2 * len(m.table))
	}
	return r
}

// growCache moves the op cache into a table of size entries, re-homing
// every entry. Both sizes are powers of two, so an entry's new slot
// agrees with its old one in the low bits and no two entries collide.
func (m *Manager) growCache(size int) {
	old := m.cache
	m.cache = make([]cacheEntry, size)
	for _, e := range old {
		if e.key != 0 {
			*m.cacheSlot(int32(e.key>>refBits), Ref(e.key&refMask), e.g, e.h) = e
		}
	}
}

func (m *Manager) cacheSlot(op int32, f, g, h Ref) *cacheEntry {
	return &m.cache[hash3(op^int32(f), int32(g), int32(h))&uint64(len(m.cache)-1)]
}

func (m *Manager) cacheLookup(op int32, f, g, h Ref) (Ref, bool) {
	e := m.cacheSlot(op, f, g, h)
	if e.key == uint32(op)<<refBits|uint32(f) && e.g == g && e.h == h {
		m.cacheHits++
		return e.result, true
	}
	m.cacheMisses++
	return 0, false
}

// cacheStore re-hashes rather than reusing the lookup's slot: the cache
// may have grown in between.
func (m *Manager) cacheStore(op int32, f, g, h, result Ref) {
	*m.cacheSlot(op, f, g, h) = cacheEntry{key: uint32(op)<<refBits | uint32(f), g: g, h: h, result: result}
}

// Ite computes if-then-else: f ? g : h.
func (m *Manager) Ite(f, g, h Ref) Ref {
	// Standard triples (Brace, Rudell & Bryant 1990): ite(f,f,h) is
	// ite(f,1,h) and ite(f,g,f) is ite(f,g,0). Each rewrite computes the
	// same function through the same cofactors, so it builds the same nodes.
	if g == f {
		g = True
	}
	if h == f {
		h = False
	}
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	// And (ite(f,g,0)) and Or (ite(f,1,h)) commute: put the smaller Ref
	// first so both operand orders share one cache entry.
	switch {
	case h == False && g < f:
		f, g = g, f
	case g == True && h < f:
		f, h = h, f
	}
	if r, ok := m.cacheLookup(opIte, f, g, h); ok {
		return r
	}
	nf, ng, nh := m.node(f), m.node(g), m.node(h)
	top := nf.level
	if ng.level < top {
		top = ng.level
	}
	if nh.level < top {
		top = nh.level
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r0 := m.Ite(f0, g0, h0)
	r1 := m.Ite(f1, g1, h1)
	r := m.mkNode(top, r0, r1)
	m.cacheStore(opIte, f, g, h, r)
	return r
}

func (m *Manager) cofactors(f Ref, level int32) (Ref, Ref) {
	n := m.node(f)
	if n.level != level {
		return f, f
	}
	return n.low, n.high
}

// Not returns the negation of f.
func (m *Manager) Not(f Ref) Ref { return m.Ite(f, False, True) }

// And returns f AND g.
func (m *Manager) And(f, g Ref) Ref { return m.Ite(f, g, False) }

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) Ref { return m.Ite(f, True, g) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) Ref { return m.Ite(f, m.Not(g), g) }

// Iff returns f <-> g.
func (m *Manager) Iff(f, g Ref) Ref { return m.Ite(f, g, m.Not(g)) }

// Implies returns f -> g.
func (m *Manager) Implies(f, g Ref) Ref { return m.Ite(f, g, True) }

// Diff returns f AND NOT g.
func (m *Manager) Diff(f, g Ref) Ref { return m.Ite(g, False, f) }

// String renders summary statistics.
func (m *Manager) String() string {
	return fmt.Sprintf("bdd: %d vars, %d nodes (%d GCs, %d freed)",
		m.nvars, m.NumNodes(), m.gcCount, m.gcFreed)
}
