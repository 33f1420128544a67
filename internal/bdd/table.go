package bdd

// The unique table maps each node triple (level, low, high) to its Ref. It
// is open-addressed with linear probing: a []uint32 whose power-of-two
// size keeps the load at most 3/4. A slot is 0 when empty; otherwise it
// holds the node's Ref in its low refBits bits and, under tagMask, the
// high bits of the triple's hash. A probe reads a node only when the tag
// matches, so a miss, the common case when nodes are being created, walks
// its run of slots (usually within one cache line) without touching the
// pool. Deletion (reordering's unhook) shifts later entries of the run
// back, so there are no tombstones.

func hash3(a, b, c int32) uint64 {
	h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9 ^ uint64(c)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// tableFull reports whether entries nodes would put a table of size slots
// past 3/4 load.
func tableFull(entries, size int) bool { return 4*entries > 3*size }

// lookup probes for (level, low, high). It returns the node if present;
// otherwise 0, with the empty slot that ends the probe run and the tagged
// word a new node's Ref is or-ed into there.
func (m *Manager) lookup(level int32, low, high Ref) (Ref, int, uint32) {
	h := hash3(level, int32(low), int32(high))
	tag := uint32(h>>32) & m.tagMask
	mask := len(m.table) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := m.table[i]
		if s == 0 {
			return 0, i, tag
		}
		if s&m.tagMask == tag {
			r := Ref(s & refMask)
			if n := m.node(r); n.level == level && n.low == low && n.high == high {
				return r, i, tag
			}
		}
	}
}

// home returns the hash of f's triple.
func (m *Manager) home(f Ref) uint64 {
	n := m.node(f)
	return hash3(n.level, int32(n.low), int32(n.high))
}

// hook inserts f, which must not be in the table.
func (m *Manager) hook(f Ref) {
	h := m.home(f)
	mask := len(m.table) - 1
	i := int(h) & mask
	for m.table[i] != 0 {
		i = (i + 1) & mask
	}
	m.table[i] = uint32(h>>32)&m.tagMask | uint32(f)
}

// unhook removes f by backward-shift deletion: each later entry of the
// run moves into the hole when the hole lies between its home and its
// slot, so every entry stays reachable from its home with no empty slot
// in between.
func (m *Manager) unhook(f Ref) {
	mask := len(m.table) - 1
	i := int(m.home(f)) & mask
	for m.table[i]&refMask != uint32(f) {
		if m.table[i] == 0 {
			panic("bdd: reorder: node missing from unique table")
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; m.table[j] != 0; j = (j + 1) & mask {
		if home := int(m.home(Ref(m.table[j]&refMask))) & mask; (j-home)&mask >= (j-i)&mask {
			m.table[i] = m.table[j]
			i = j
		}
	}
	m.table[i] = 0
}

// rebuild empties the table, resized to size slots, and inserts every live
// node of the pool (free slots and reorder-dead nodes carry level -1). It
// works in batches: it hashes a batch, loads every home slot, then places
// the batch, so the loads' cache misses overlap instead of queueing behind
// one another.
func (m *Manager) rebuild(size int) {
	if size == len(m.table) {
		clear(m.table)
	} else {
		m.table = make([]uint32, size)
	}
	const batch = 32
	var (
		refs [batch]Ref
		hs   [batch]uint64
		home [batch]uint32
	)
	mask := size - 1
	for f := Ref(2); int(f) < m.used; {
		k := 0
		for ; k < batch && int(f) < m.used; f++ {
			if n := m.node(f); n.level >= 0 {
				refs[k], hs[k] = f, hash3(n.level, int32(n.low), int32(n.high))
				k++
			}
		}
		for j := range k {
			home[j] = m.table[int(hs[j])&mask]
		}
		for j := range k {
			i := int(hs[j]) & mask
			if home[j] != 0 { // still taken: slots only fill during a rebuild
				i = (i + 1) & mask
			}
			for m.table[i] != 0 {
				i = (i + 1) & mask
			}
			m.table[i] = uint32(hs[j]>>32)&m.tagMask | uint32(refs[j])
		}
	}
}
