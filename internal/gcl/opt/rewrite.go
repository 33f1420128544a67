package opt

import "ttastartup/internal/gcl"

// constOf returns the value of a constant expression (boolean constants
// included, as 0/1).
func constOf(e gcl.Expr) (int, bool) { return gcl.ConstValue(e) }

// isFalse reports whether e is the constant false.
func isFalse(e gcl.Expr) bool {
	v, ok := constOf(e)
	return ok && v == 0
}

// isTrue reports whether e is a constant with a non-zero value.
func isTrue(e gcl.Expr) bool {
	v, ok := constOf(e)
	return ok && v != 0
}

// fold simplifies e by exact bottom-up constant folding: comparisons over
// two constants, boolean connectives with decided operands, if-then-else
// with a constant condition, and bounded additions of a constant operand
// all collapse. Folding never abstracts, so the result evaluates
// identically to e in every environment.
//
// One deliberate restriction: an Ite whose condition folds is replaced by
// the surviving branch only when that branch has the same cardinality as
// the Ite itself. The Ite's type is the wider branch, and an enclosing
// AddSat/AddMod clamps or wraps at its operand's type boundary — replacing
// the Ite with a narrower branch would move that boundary.
func fold(e gcl.Expr) gcl.Expr {
	switch gcl.Op(e) {
	case gcl.OpConst, gcl.OpVar:
		return e
	case gcl.OpCmp:
		kind, _ := gcl.CmpOf(e)
		ops := gcl.Operands(e)
		a, b := fold(ops[0]), fold(ops[1])
		if av, aok := constOf(a); aok {
			if bv, bok := constOf(b); bok {
				var r bool
				switch kind {
				case gcl.CmpEq:
					r = av == bv
				case gcl.CmpNe:
					r = av != bv
				case gcl.CmpLt:
					r = av < bv
				default:
					r = av <= bv
				}
				return gcl.B(r)
			}
		}
		switch kind {
		case gcl.CmpEq:
			return gcl.Eq(a, b)
		case gcl.CmpNe:
			return gcl.Ne(a, b)
		case gcl.CmpLt:
			return gcl.Lt(a, b)
		default:
			return gcl.Le(a, b)
		}
	case gcl.OpNot:
		a := fold(gcl.Operands(e)[0])
		if v, ok := constOf(a); ok {
			return gcl.B(v == 0)
		}
		return gcl.Not(a)
	case gcl.OpAnd, gcl.OpOr:
		and := gcl.Op(e) == gcl.OpAnd
		var args []gcl.Expr
		for _, a := range gcl.Operands(e) {
			f := fold(a)
			if v, ok := constOf(f); ok {
				if and && v == 0 {
					return gcl.False()
				}
				if !and && v != 0 {
					return gcl.True()
				}
				continue // neutral element, drop
			}
			args = append(args, f)
		}
		switch {
		case len(args) == 0 && and:
			return gcl.True()
		case len(args) == 0:
			return gcl.False()
		case len(args) == 1:
			return args[0]
		case and:
			return gcl.And(args...)
		default:
			return gcl.Or(args...)
		}
	case gcl.OpIte:
		ops := gcl.Operands(e)
		c, t, f := fold(ops[0]), fold(ops[1]), fold(ops[2])
		if v, ok := constOf(c); ok {
			branch := t
			if v == 0 {
				branch = f
			}
			if branch.Type().Card == e.Type().Card {
				return branch
			}
		}
		return gcl.Ite(c, t, f)
	case gcl.OpAdd:
		k, modular, _ := gcl.AddOf(e)
		a := fold(gcl.Operands(e)[0])
		if v, ok := constOf(a); ok {
			card := a.Type().Card
			r := v + k
			if modular {
				if r >= card {
					r -= card
				}
			} else if r > card-1 {
				r = card - 1
			}
			return gcl.C(a.Type(), r)
		}
		if modular {
			return gcl.AddMod(a, k)
		}
		return gcl.AddSat(a, k)
	}
	panic("opt: fold of unknown expression kind")
}

// Fold returns e with exact constant folding applied: the result evaluates
// identically to e in every environment. Exported for differential fuzzing
// (FuzzExprEval) and reuse by lint.
func Fold(e gcl.Expr) gcl.Expr { return fold(e) }

// Bounds returns a sound inclusive interval of e's possible values with
// every variable ranging over its full declared domain (the
// guard-insensitive analysis). Exported for differential fuzzing and for
// lint's range (GCL008) and constant-comparison (GCL009) checks.
func Bounds(e gcl.Expr) (lo, hi int) {
	iv := boundsIn(e, ivEnv{})
	return iv.lo, iv.hi
}

// stateVars collects the state variables read by e into dst, reporting
// whether any variable was newly added.
func stateVars(e gcl.Expr, dst map[*gcl.Var]bool) bool {
	added := false
	gcl.VisitVars(e, func(v *gcl.Var, _ bool) {
		if v.Kind == gcl.KindState && !dst[v] {
			dst[v] = true
			added = true
		}
	})
	return added
}
