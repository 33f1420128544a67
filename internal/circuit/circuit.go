// Package circuit provides an and-inverter-graph (AIG) representation of
// boolean functions with structural hashing.
//
// A circuit is a DAG whose internal nodes are two-input AND gates and whose
// leaves are primary inputs; edges may be complemented. Circuits are the
// shared intermediate form between the guarded-command compiler (package
// gcl), the BDD engine (package bdd), and the CNF generator used for
// SAT-based bounded model checking (package mc/bmc).
package circuit

import (
	"fmt"
	"strconv"
)

// Lit is a literal: a reference to a circuit node with an optional
// complement bit in the LSB. The zero value is the constant false.
type Lit uint32

// Constant literals.
const (
	False Lit = 0
	True  Lit = 1
)

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// node returns the node index of l.
func (l Lit) node() uint32 { return uint32(l) >> 1 }

// neg reports whether l is complemented.
func (l Lit) neg() bool { return l&1 == 1 }

// Complemented reports whether l is a complemented edge.
func (l Lit) Complemented() bool { return l.neg() }

// String renders the literal for debugging.
func (l Lit) String() string {
	switch l {
	case False:
		return "0"
	case True:
		return "1"
	}
	s := strconv.FormatUint(uint64(l.node()), 10)
	if l.neg() {
		return "!n" + s
	}
	return "n" + s
}

// nodeRec is a single AND gate or input. Inputs have in0 == in1 == 0 and a
// nonzero inputID+1 stored in aux.
type nodeRec struct {
	in0, in1 Lit    // operands; in0 >= in1 canonically for AND gates
	aux      uint32 // for inputs: inputID+1; for AND gates: 0
}

// Builder constructs a circuit incrementally. The zero value is NOT usable;
// call New.
type Builder struct {
	nodes  []nodeRec
	hash   map[[2]Lit]Lit
	inputs []Lit // literal for each primary input, by input ID
}

// New returns an empty circuit builder.
func New() *Builder {
	b := &Builder{
		nodes: make([]nodeRec, 1, 1024), // node 0 is the constant
		hash:  make(map[[2]Lit]Lit, 1024),
	}
	return b
}

// NumNodes returns the number of nodes, including the constant node.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// NumInputs returns the number of primary inputs created so far.
func (b *Builder) NumInputs() int { return len(b.inputs) }

// Input creates a fresh primary input and returns its (positive) literal.
func (b *Builder) Input() Lit {
	id := uint32(len(b.inputs))
	l := b.push(nodeRec{aux: id + 1})
	b.inputs = append(b.inputs, l)
	return l
}

// InputID returns the primary-input ID of l's node and true, or 0 and false
// if l does not refer to an input node.
func (b *Builder) InputID(l Lit) (int, bool) {
	n := b.nodes[l.node()]
	if l.node() != 0 && n.aux != 0 {
		return int(n.aux - 1), true
	}
	return 0, false
}

// Fanins returns the operand literals of an AND node, or ok=false for
// inputs and constants.
func (b *Builder) Fanins(l Lit) (Lit, Lit, bool) {
	if l.node() == 0 {
		return 0, 0, false
	}
	n := b.nodes[l.node()]
	if n.aux != 0 {
		return 0, 0, false
	}
	return n.in0, n.in1, true
}

func (b *Builder) push(n nodeRec) Lit {
	b.nodes = append(b.nodes, n)
	return Lit(uint32(len(b.nodes)-1) << 1)
}

// And returns a literal for x AND y, with constant folding and structural
// hashing.
func (b *Builder) And(x, y Lit) Lit {
	// Constant folding and trivial cases.
	switch {
	case x == False || y == False || x == y.Not():
		return False
	case x == True:
		return y
	case y == True || x == y:
		return x
	}
	if x < y { // canonical operand order
		x, y = y, x
	}
	key := [2]Lit{x, y}
	if l, ok := b.hash[key]; ok {
		return l
	}
	l := b.push(nodeRec{in0: x, in1: y})
	b.hash[key] = l
	return l
}

// Or returns x OR y.
func (b *Builder) Or(x, y Lit) Lit { return b.And(x.Not(), y.Not()).Not() }

// Xor returns x XOR y.
func (b *Builder) Xor(x, y Lit) Lit {
	return b.Or(b.And(x, y.Not()), b.And(x.Not(), y))
}

// Iff returns x <-> y.
func (b *Builder) Iff(x, y Lit) Lit { return b.Xor(x, y).Not() }

// Implies returns x -> y.
func (b *Builder) Implies(x, y Lit) Lit { return b.Or(x.Not(), y) }

// Ite returns if-then-else: c ? t : e.
func (b *Builder) Ite(c, t, e Lit) Lit {
	return b.Or(b.And(c, t), b.And(c.Not(), e))
}

// AndAll conjoins all literals (True for an empty list) using a balanced
// tree to keep circuit depth low.
func (b *Builder) AndAll(ls []Lit) Lit {
	switch len(ls) {
	case 0:
		return True
	case 1:
		return ls[0]
	}
	mid := len(ls) / 2
	return b.And(b.AndAll(ls[:mid]), b.AndAll(ls[mid:]))
}

// OrAll disjoins all literals (False for an empty list).
func (b *Builder) OrAll(ls []Lit) Lit {
	switch len(ls) {
	case 0:
		return False
	case 1:
		return ls[0]
	}
	mid := len(ls) / 2
	return b.Or(b.OrAll(ls[:mid]), b.OrAll(ls[mid:]))
}

// Eval evaluates literal l under the given input assignment (indexed by
// input ID). The assignment must cover every input in l's cone.
func (b *Builder) Eval(l Lit, inputs []bool) bool {
	memo := make(map[uint32]bool, 64)
	return b.evalRec(l, inputs, memo)
}

func (b *Builder) evalRec(l Lit, inputs []bool, memo map[uint32]bool) bool {
	n := l.node()
	if n == 0 {
		return l.neg() // !False == True
	}
	v, ok := memo[n]
	if !ok {
		rec := b.nodes[n]
		if rec.aux != 0 {
			id := int(rec.aux - 1)
			if id >= len(inputs) {
				panic(fmt.Sprintf("circuit: eval of input %d with only %d assignments", id, len(inputs)))
			}
			v = inputs[id]
		} else {
			v = b.evalRec(rec.in0, inputs, memo) && b.evalRec(rec.in1, inputs, memo)
		}
		memo[n] = v
	}
	if l.neg() {
		return !v
	}
	return v
}

// Support returns the sorted list of input IDs in the cone of l.
func (b *Builder) Support(l Lit) []int {
	seen := make(map[uint32]bool, 64)
	var ids []int
	inSupport := make(map[int]bool, 16)
	var walk func(Lit)
	walk = func(l Lit) {
		n := l.node()
		if n == 0 || seen[n] {
			return
		}
		seen[n] = true
		rec := b.nodes[n]
		if rec.aux != 0 {
			id := int(rec.aux - 1)
			if !inSupport[id] {
				inSupport[id] = true
				ids = append(ids, id)
			}
			return
		}
		walk(rec.in0)
		walk(rec.in1)
	}
	walk(l)
	sortInts(ids)
	return ids
}

func sortInts(a []int) {
	// Insertion sort: supports are small and this avoids importing sort for
	// a hot path used only in diagnostics.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
