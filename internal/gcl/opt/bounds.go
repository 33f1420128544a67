package opt

import "ttastartup/internal/gcl"

// interval is an inclusive value range. The analysis in this package is
// variable-environment aware: variable reads resolve through an ivEnv, and
// per-command guard refinement tightens the environment further. Its zero
// environment is the guard-insensitive analysis internal/gcl/lint runs
// through Bounds.
type interval struct{ lo, hi int }

func singleton(v int) interval { return interval{v, v} }

func (a interval) union(b interval) interval {
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

func (a interval) intersect(b interval) interval {
	if b.lo > a.lo {
		a.lo = b.lo
	}
	if b.hi < a.hi {
		a.hi = b.hi
	}
	return a
}

func (a interval) empty() bool       { return a.lo > a.hi }
func (a interval) isSingleton() bool { return a.lo == a.hi }

// disjoint reports whether the two intervals share no value.
func (a interval) disjoint(b interval) bool { return a.hi < b.lo || b.hi < a.lo }

// refKey distinguishes current from primed reads: a guard constraint on
// XN(v) says nothing about the value X(v) reads in the same step.
type refKey struct {
	v      *gcl.Var
	primed bool
}

// ivEnv maps variables to a sound interval of the values they can take.
// base holds flow-insensitive facts (the narrowing fixpoint); ref holds
// per-command guard refinements keyed by (variable, primed). Reads without
// an entry fall back to the full declared domain (the zero ivEnv).
type ivEnv struct {
	base map[*gcl.Var]interval
	ref  map[refKey]interval
}

func (env ivEnv) of(v *gcl.Var, primed bool) interval {
	if env.ref != nil {
		if iv, ok := env.ref[refKey{v, primed}]; ok {
			return iv
		}
	}
	if env.base != nil {
		if iv, ok := env.base[v]; ok {
			return iv
		}
	}
	return interval{0, v.Type.Card - 1}
}

func boolIv(canFalse, canTrue bool) interval {
	switch {
	case canFalse && canTrue:
		return interval{0, 1}
	case canTrue:
		return interval{1, 1}
	default:
		return interval{0, 0}
	}
}

// boundsIn computes an interval containing every value e can evaluate to
// when each variable read stays inside env's interval for it. Sound but
// not exact: comparisons and boolean structure are approximated through
// foldCmpIn/foldBoolIn.
func boundsIn(e gcl.Expr, env ivEnv) interval {
	switch gcl.Op(e) {
	case gcl.OpConst:
		v, _ := constOf(e)
		return singleton(v)
	case gcl.OpVar:
		v, primed, _ := gcl.VarRef(e)
		return env.of(v, primed)
	case gcl.OpCmp:
		if r, ok := foldCmpIn(e, env); ok {
			return boolIv(!r, r)
		}
		return interval{0, 1}
	case gcl.OpNot, gcl.OpAnd, gcl.OpOr:
		if r, ok := foldBoolIn(e, env); ok {
			return boolIv(!r, r)
		}
		return interval{0, 1}
	case gcl.OpIte:
		ops := gcl.Operands(e)
		if r, ok := foldBoolIn(ops[0], env); ok {
			if r {
				return boundsIn(ops[1], env)
			}
			return boundsIn(ops[2], env)
		}
		return boundsIn(ops[1], env).union(boundsIn(ops[2], env))
	case gcl.OpAdd:
		k, modular, _ := gcl.AddOf(e)
		a := boundsIn(gcl.Operands(e)[0], env)
		card := e.Type().Card
		if modular {
			lo, hi := a.lo+k, a.hi+k
			if lo >= card {
				return interval{lo - card, hi - card}
			}
			if hi >= card {
				// Wraps for part of the operand range: the result can sit
				// just below the wrap point or just above zero.
				return interval{0, card - 1}
			}
			return interval{lo, hi}
		}
		lo, hi := a.lo+k, a.hi+k
		if lo > card-1 {
			lo = card - 1
		}
		if hi > card-1 {
			hi = card - 1
		}
		return interval{lo, hi}
	}
	panic("opt: boundsIn of unknown expression kind")
}

// foldCmpIn decides a comparison from the operand intervals under env, if
// the intervals decide it.
func foldCmpIn(e gcl.Expr, env ivEnv) (bool, bool) {
	kind, _ := gcl.CmpOf(e)
	ops := gcl.Operands(e)
	a, b := boundsIn(ops[0], env), boundsIn(ops[1], env)
	sameSingleton := a.isSingleton() && b.isSingleton() && a.lo == b.lo
	switch kind {
	case gcl.CmpEq:
		if a.disjoint(b) {
			return false, true
		}
		if sameSingleton {
			return true, true
		}
	case gcl.CmpNe:
		if a.disjoint(b) {
			return true, true
		}
		if sameSingleton {
			return false, true
		}
	case gcl.CmpLt:
		if a.hi < b.lo {
			return true, true
		}
		if a.lo >= b.hi {
			return false, true
		}
	case gcl.CmpLe:
		if a.hi <= b.lo {
			return true, true
		}
		if a.lo > b.hi {
			return false, true
		}
	}
	return false, false
}

// foldBoolIn decides a boolean expression under env where the interval
// facts decide it, short-circuiting And/Or.
func foldBoolIn(e gcl.Expr, env ivEnv) (bool, bool) {
	switch gcl.Op(e) {
	case gcl.OpConst:
		v, _ := constOf(e)
		return v != 0, true
	case gcl.OpVar:
		v, primed, _ := gcl.VarRef(e)
		iv := env.of(v, primed)
		if iv.isSingleton() {
			return iv.lo != 0, true
		}
		return false, false
	case gcl.OpCmp:
		return foldCmpIn(e, env)
	case gcl.OpNot:
		if r, ok := foldBoolIn(gcl.Operands(e)[0], env); ok {
			return !r, true
		}
		return false, false
	case gcl.OpAnd, gcl.OpOr:
		and := gcl.Op(e) == gcl.OpAnd
		all := true
		for _, a := range gcl.Operands(e) {
			r, ok := foldBoolIn(a, env)
			if ok && r != and {
				return !and, true // dominating operand
			}
			all = all && ok
		}
		if all {
			return and, true
		}
		return false, false
	case gcl.OpIte:
		ops := gcl.Operands(e)
		if c, ok := foldBoolIn(ops[0], env); ok {
			if c {
				return foldBoolIn(ops[1], env)
			}
			return foldBoolIn(ops[2], env)
		}
		t, tok := foldBoolIn(ops[1], env)
		f, fok := foldBoolIn(ops[2], env)
		if tok && fok && t == f {
			return t, true
		}
		return false, false
	}
	return false, false
}

// hasAdd reports whether e contains a bounded-addition node anywhere.
// Add-free ("pure") expressions evaluate identically in the source and the
// narrowed system on every shared state, because only AddSat/AddMod are
// sensitive to their operand's type cardinality.
func hasAdd(e gcl.Expr) bool {
	if gcl.Op(e) == gcl.OpAdd {
		return true
	}
	for _, o := range gcl.Operands(e) {
		if hasAdd(o) {
			return true
		}
	}
	return false
}

// Relational kinds for guard refinement: gcl only materializes Eq/Ne/Lt/Le
// (Gt/Ge are built as swapped Lt/Le), but the mirrored side of a conjunct
// needs the other two directions.
const (
	relEq = iota
	relNe
	relLt
	relLe
	relGt
	relGe
)

func relOf(k gcl.CmpKind) int {
	switch k {
	case gcl.CmpEq:
		return relEq
	case gcl.CmpNe:
		return relNe
	case gcl.CmpLt:
		return relLt
	default:
		return relLe
	}
}

func relMirror(r int) int {
	switch r {
	case relLt:
		return relGt
	case relLe:
		return relGe
	case relGt:
		return relLt
	case relGe:
		return relLe
	default:
		return r // Eq/Ne are symmetric
	}
}

// refineGuard returns env tightened with the facts of g's pure (Add-free)
// top-level conjuncts, and whether g is satisfiable under env at all. Only
// pure conjuncts refine: outside the refined region some pure conjunct is
// false, and pure conjuncts evaluate identically in the source and the
// narrowed system, which keeps the narrow-demotion argument (narrow.go)
// non-circular. A false result means no reachable state fires the guard.
func refineGuard(g gcl.Expr, env ivEnv) (ivEnv, bool) {
	out := ivEnv{base: env.base, ref: map[refKey]interval{}}
	if env.ref != nil {
		for k, iv := range env.ref {
			out.ref[k] = iv
		}
	}
	sat := true
	var walk func(e gcl.Expr)
	walk = func(e gcl.Expr) {
		if !sat {
			return
		}
		switch gcl.Op(e) {
		case gcl.OpAnd:
			for _, o := range gcl.Operands(e) {
				walk(o)
			}
		case gcl.OpCmp:
			if hasAdd(e) {
				return
			}
			kind, _ := gcl.CmpOf(e)
			ops := gcl.Operands(e)
			if !tighten(ops[0], relOf(kind), boundsIn(ops[1], out), out) {
				sat = false
				return
			}
			if !tighten(ops[1], relMirror(relOf(kind)), boundsIn(ops[0], out), out) {
				sat = false
			}
		case gcl.OpVar:
			if !tighten(e, relEq, singleton(1), out) {
				sat = false
			}
		default:
			// Unsatisfiability may only be concluded from pure conjuncts:
			// an Add-bearing conjunct false under source semantics could
			// still fire in the narrowed system (a moved wrap point), and
			// callers skip unsat commands entirely.
			if hasAdd(e) {
				return
			}
			if r, ok := foldBoolIn(e, out); ok && !r {
				sat = false
			}
		}
	}
	walk(g)
	return out, sat
}

// tighten intersects the interval of a direct variable read with the
// relational fact "side rel other", reporting false when the intersection
// is empty (the enclosing guard cannot fire under the environment).
// Non-variable sides are left alone.
func tighten(side gcl.Expr, rel int, other interval, out ivEnv) bool {
	if gcl.Op(side) != gcl.OpVar {
		return true
	}
	v, primed, _ := gcl.VarRef(side)
	cur := out.of(v, primed)
	switch rel {
	case relEq:
		cur = cur.intersect(other)
	case relNe:
		if other.isSingleton() {
			if cur.lo == other.lo {
				cur.lo++
			}
			if cur.hi == other.lo {
				cur.hi--
			}
		}
	case relLt:
		cur = cur.intersect(interval{cur.lo, other.hi - 1})
	case relLe:
		cur = cur.intersect(interval{cur.lo, other.hi})
	case relGt:
		cur = cur.intersect(interval{other.lo + 1, cur.hi})
	case relGe:
		cur = cur.intersect(interval{other.lo, cur.hi})
	}
	if cur.empty() {
		return false
	}
	out.ref[refKey{v, primed}] = cur
	return true
}
