package gcl

// This file is the read-only structural introspection surface consumed by
// static analysis (package gcl/lint) and the model transforms (gcl/opt,
// gcl/l2s). It deliberately exposes no mutation: tools decompose
// expressions and commands, and Rewrite builds new ones, without reaching
// into the package's unexported representation.

// ExprOp identifies the top-level operator of an expression.
type ExprOp int

// Expression operators, as returned by Op.
const (
	// OpConst is a typed constant; ConstValue returns its value.
	OpConst ExprOp = iota + 1
	// OpVar is a variable reference; VarRef returns the variable.
	OpVar
	// OpCmp is a comparison; CmpOf returns its kind, Operands both sides.
	OpCmp
	// OpNot is boolean negation.
	OpNot
	// OpAnd is an n-ary conjunction.
	OpAnd
	// OpOr is an n-ary disjunction.
	OpOr
	// OpIte is if-then-else; Operands returns [cond, then, else].
	OpIte
	// OpAdd is bounded addition; AddOf returns the constant and mode.
	OpAdd
)

// CmpKind identifies a comparison operator. Gt and Ge are constructed as
// Lt/Le with swapped operands, so only four kinds exist.
type CmpKind int

// Comparison kinds, as returned by CmpOf.
const (
	CmpEq CmpKind = iota + 1
	CmpNe
	CmpLt
	CmpLe
)

// Op returns the top-level operator of e.
func Op(e Expr) ExprOp {
	switch x := e.(type) {
	case constExpr:
		return OpConst
	case varExpr:
		return OpVar
	case cmpExpr:
		return OpCmp
	case notExpr:
		return OpNot
	case naryExpr:
		if x.op == opAnd {
			return OpAnd
		}
		return OpOr
	case iteExpr:
		return OpIte
	case addExpr:
		return OpAdd
	}
	panic("gcl: Op on unknown expression kind")
}

// Operands returns the direct subexpressions of e in syntactic order: both
// sides of a comparison, the arguments of And/Or, the operand of Not and of
// bounded addition, and [cond, then, else] for Ite. Constants and variable
// references have no operands.
func Operands(e Expr) []Expr {
	switch x := e.(type) {
	case constExpr, varExpr:
		return nil
	case cmpExpr:
		return []Expr{x.a, x.b}
	case notExpr:
		return []Expr{x.a}
	case naryExpr:
		out := make([]Expr, len(x.args))
		copy(out, x.args)
		return out
	case iteExpr:
		return []Expr{x.c, x.t, x.e}
	case addExpr:
		return []Expr{x.a}
	}
	panic("gcl: Operands on unknown expression kind")
}

// ConstValue returns the value of a constant expression.
func ConstValue(e Expr) (int, bool) {
	if x, ok := e.(constExpr); ok {
		return x.v, true
	}
	return 0, false
}

// VarRef returns the variable read by a variable-reference expression and
// whether the reference is primed (XN).
func VarRef(e Expr) (v *Var, primed bool, ok bool) {
	if x, ok := e.(varExpr); ok {
		return x.v, x.primed, true
	}
	return nil, false, false
}

// CmpOf returns the kind of a comparison expression.
func CmpOf(e Expr) (CmpKind, bool) {
	x, ok := e.(cmpExpr)
	if !ok {
		return 0, false
	}
	switch x.op {
	case cmpEq:
		return CmpEq, true
	case cmpNe:
		return CmpNe, true
	case cmpLt:
		return CmpLt, true
	default:
		return CmpLe, true
	}
}

// AddOf returns the constant increment of a bounded-addition expression and
// whether it is modular (AddMod) rather than saturating (AddSat).
func AddOf(e Expr) (k int, modular bool, ok bool) {
	x, ok := e.(addExpr)
	if !ok {
		return 0, false, false
	}
	return x.k, x.mode == addMod, true
}

// VisitVars calls f for every variable reference in e (with multiplicity),
// reporting whether each read is primed.
func VisitVars(e Expr, f func(v *Var, primed bool)) {
	e.vars(f)
}

// Rewrite rebuilds e bottom-up through the public constructors, mapping
// every variable read through varFn: varFn returns the replacement
// expression for a read of v (primed or not), or nil to keep the read
// unchanged. Constants are preserved verbatim, so their types — and with
// them the saturation/wrap points of enclosing bounded arithmetic and the
// bit widths of comparisons — survive the rewrite untouched. The
// optimizer and the liveness-to-safety product transplant expressions
// into their new systems with it.
func Rewrite(e Expr, varFn func(v *Var, primed bool) Expr) Expr {
	switch Op(e) {
	case OpConst:
		return e
	case OpVar:
		v, primed, _ := VarRef(e)
		if r := varFn(v, primed); r != nil {
			return r
		}
		return e
	case OpCmp:
		kind, _ := CmpOf(e)
		ops := Operands(e)
		a, b := Rewrite(ops[0], varFn), Rewrite(ops[1], varFn)
		switch kind {
		case CmpEq:
			return Eq(a, b)
		case CmpNe:
			return Ne(a, b)
		case CmpLt:
			return Lt(a, b)
		default:
			return Le(a, b)
		}
	case OpNot:
		return Not(Rewrite(Operands(e)[0], varFn))
	case OpAnd, OpOr:
		ops := Operands(e)
		args := make([]Expr, len(ops))
		for i, a := range ops {
			args[i] = Rewrite(a, varFn)
		}
		if Op(e) == OpAnd {
			return And(args...)
		}
		return Or(args...)
	case OpIte:
		ops := Operands(e)
		return Ite(Rewrite(ops[0], varFn), Rewrite(ops[1], varFn), Rewrite(ops[2], varFn))
	case OpAdd:
		k, modular, _ := AddOf(e)
		a := Rewrite(Operands(e)[0], varFn)
		if modular {
			return AddMod(a, k)
		}
		return AddSat(a, k)
	}
	panic("gcl: rewrite of unknown expression kind")
}

// Module returns the module that owns the command.
func (c *Command) Module() *Module { return c.module }

// ChoiceVars returns the choice variables in the command's support, in
// first-mention order. Only valid after the owning system has been
// finalized.
func (c *Command) ChoiceVars() []*Var {
	out := make([]*Var, len(c.choiceVars))
	copy(out, c.choiceVars)
	return out
}
