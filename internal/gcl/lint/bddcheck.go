package lint

import (
	"fmt"
	"strings"

	"ttastartup/internal/bdd"
	"ttastartup/internal/circuit"
	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/opt"
)

// checker owns the BDD universe the exact checks run in. The binary encoding
// admits bit patterns outside a variable's cardinality, so every
// satisfiability query conjoins the in-range ("domain") constraints —
// otherwise a guard could look satisfiable only at a valuation no engine can
// ever produce.
type checker struct {
	sys  *gcl.System
	comp *gcl.Compiled
	m    *bdd.Manager
	cone map[circuit.Lit]bdd.Ref

	domVal     bdd.Ref // in-range for cur and next bits of every state var
	domChoice  bdd.Ref // in-range for choice bits
	dom        bdd.Ref // conjunction of the two
	choiceCube bdd.Ref // all choice inputs, for quantification
}

func newChecker(sys *gcl.System, comp *gcl.Compiled, cfg bdd.Config) (*checker, error) {
	if comp == nil {
		comp = sys.Compile()
	}
	c := &checker{
		sys:  sys,
		comp: comp,
		cone: make(map[circuit.Lit]bdd.Ref),
	}
	c.m = bdd.New(c.comp.NumInputs(), cfg)
	err := c.guard(func() {
		b := c.comp.B
		var val, choice []circuit.Lit
		var choiceIdx []int
		for _, v := range sys.Vars() {
			if v.Kind == gcl.KindChoice {
				choice = append(choice, b.InRangeBV(c.comp.ChoiceBV(v), v.Type.Card))
				continue
			}
			val = append(val, b.InRangeBV(c.comp.CurBV(v), v.Type.Card))
			val = append(val, b.InRangeBV(c.comp.NextBV(v), v.Type.Card))
		}
		for id, info := range c.comp.Bits {
			if info.Role == gcl.RoleChoice {
				choiceIdx = append(choiceIdx, id)
			}
		}
		c.domVal = c.fromCircuit(b.AndAll(val))
		c.domChoice = c.fromCircuit(b.AndAll(choice))
		c.dom = c.m.And(c.domVal, c.domChoice)
		c.choiceCube = c.m.Cube(choiceIdx)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// guard converts bdd.ErrNodeLimit panics into errors at API boundaries.
func (c *checker) guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == bdd.ErrNodeLimit {
				err = fmt.Errorf("lint: %w", bdd.ErrNodeLimit)
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// fromCircuit converts an AIG cone into a BDD; circuit input IDs map
// one-to-one onto BDD variable indices. The cache is shared across all
// queries (the checker never garbage-collects its manager).
func (c *checker) fromCircuit(l circuit.Lit) bdd.Ref {
	if r, ok := c.cone[l]; ok {
		return r
	}
	var r bdd.Ref
	switch {
	case l == circuit.False:
		r = bdd.False
	case l == circuit.True:
		r = bdd.True
	case l.Complemented():
		r = c.m.Not(c.fromCircuit(l.Not()))
	default:
		if id, ok := c.comp.B.InputID(l); ok {
			r = c.m.Var(id)
		} else if a, b, ok := c.comp.B.Fanins(l); ok {
			r = c.m.And(c.fromCircuit(a), c.fromCircuit(b))
		} else {
			panic("lint: unrecognized circuit literal")
		}
	}
	c.cone[l] = r
	return r
}

// witness renders a satisfying assignment of q, restricted to the variables
// that both occur in the given circuit cones and influence q. Don't-care
// bits complete to zero, which stays a satisfying in-domain assignment
// because the domain constraints are part of q.
func (c *checker) witness(q bdd.Ref, coneLits ...circuit.Lit) string {
	if q == bdd.False {
		return ""
	}
	cube := c.m.PickCube(q)
	assign := make([]bool, c.comp.NumInputs())
	for i, v := range cube {
		if v == 1 {
			assign[i] = true
		}
	}
	inSupp := make(map[int]bool)
	for _, v := range c.m.Support(q) {
		inSupp[v] = true
	}
	rel := make(map[int]bool)
	for _, l := range coneLits {
		for _, id := range c.comp.B.Support(l) {
			if inSupp[id] {
				rel[id] = true
			}
		}
	}
	type group struct {
		v    *gcl.Var
		role gcl.BitRole
	}
	seen := make(map[group]bool)
	var parts []string
	for id, info := range c.comp.Bits {
		g := group{info.Var, info.Role}
		if !rel[id] || seen[g] {
			continue
		}
		seen[g] = true
		val := 0
		for id2, info2 := range c.comp.Bits {
			if info2.Var == g.v && info2.Role == g.role && assign[id2] {
				val |= 1 << info2.Bit
			}
		}
		name := g.v.String()
		if g.role == gcl.RoleNext {
			name += "'"
		}
		parts = append(parts, fmt.Sprintf("%s=%s", name, g.v.Type.ValueName(val)))
	}
	return strings.Join(parts, " ")
}

// effectiveGuards compiles the enabling condition of every command of m, in
// command order. A fallback's condition is the negation of the disjunction
// of the module's normal guards.
func (c *checker) effectiveGuards(m *gcl.Module) []circuit.Lit {
	b := c.comp.B
	cmds := m.Commands()
	lits := make([]circuit.Lit, len(cmds))
	var normal []circuit.Lit
	for i, cmd := range cmds {
		if cmd.Fallback {
			continue
		}
		lits[i] = c.comp.CompileExpr(cmd.Guard)
		normal = append(normal, lits[i])
	}
	for i, cmd := range cmds {
		if cmd.Fallback {
			lits[i] = b.OrAll(normal).Not()
		}
	}
	return lits
}

// checkCommands runs the per-command exact checks: GCL001 (unreachable),
// GCL010 (dead fallback), GCL008 (out-of-range update), and GCL003
// (conflicting writes between overlapping commands).
func (c *checker) checkCommands() ([]Diag, error) {
	var diags []Diag
	err := c.guard(func() {
		for mi, m := range c.sys.Modules() {
			cmds := m.Commands()
			lits := c.effectiveGuards(m)
			refs := make([]bdd.Ref, len(cmds))
			for i, lit := range lits {
				refs[i] = c.m.And(c.fromCircuit(lit), c.dom)
			}
			for ci, cmd := range cmds {
				if refs[ci] == bdd.False {
					if cmd.Fallback {
						diags = append(diags, Diag{
							Code:     CodeDeadFallback,
							Severity: Info,
							Module:   m.Name,
							Command:  cmd.Name,
							Message:  "fallback can never fire: the module's normal guards cover every valuation",
							mod:      mi, cmd: ci, vr: -1,
						})
					} else {
						diags = append(diags, Diag{
							Code:     CodeUnreachableCommand,
							Severity: Error,
							Module:   m.Name,
							Command:  cmd.Name,
							Message:  fmt.Sprintf("guard %s is unsatisfiable over the variable domains; the command can never fire", cmd.Guard),
							mod:      mi, cmd: ci, vr: -1,
						})
					}
				}
				diags = append(diags, c.checkRanges(mi, ci, m, cmd, lits[ci], refs[ci])...)
			}
			diags = append(diags, c.checkConflicts(mi, m, cmds, lits, refs)...)
		}
	})
	if err != nil {
		return nil, err
	}
	return diags, nil
}

// checkRanges reports updates that can assign a value outside the target
// variable's domain (GCL008). The interval analysis is the cheap filter;
// each hit is confirmed exactly: is dom ∧ guard ∧ (rhs >= card) satisfiable?
func (c *checker) checkRanges(mi, ci int, m *gcl.Module, cmd *gcl.Command, guardLit circuit.Lit, guardRef bdd.Ref) []Diag {
	b := c.comp.B
	var diags []Diag
	for _, u := range cmd.Updates {
		card := u.Var.Type.Card
		if _, hi := opt.Bounds(u.Expr); hi < card {
			continue
		}
		val := c.comp.CompileValue(u.Expr)
		if card >= 1<<len(val) {
			continue // the bit width cannot represent an out-of-range value
		}
		over := b.LeBV(circuit.ConstBV(card, len(val)), val)
		q := c.m.And(guardRef, c.fromCircuit(over))
		if q == bdd.False {
			continue
		}
		cube := c.m.PickCube(q)
		assign := make([]bool, c.comp.NumInputs())
		for i, v := range cube {
			if v == 1 {
				assign[i] = true
			}
		}
		got := 0
		for bit, l := range val {
			if c.comp.EvalLit(l, assign) {
				got |= 1 << bit
			}
		}
		diags = append(diags, Diag{
			Code:     CodeRangeOverflow,
			Severity: Error,
			Module:   m.Name,
			Command:  cmd.Name,
			Var:      u.Var.Name,
			Message: fmt.Sprintf("update %s := %s can yield %d, outside domain %s (card %d)",
				u.Var, u.Expr, got, u.Var.Type.Name, card),
			Witness: c.witness(q, guardLit, b.AndAll(val)),
			mod:     mi, cmd: ci, vr: u.Var.ID(),
		})
	}
	return diags
}

// checkConflicts reports pairs of commands in one module that can be enabled
// together while assigning different values to the same variable (GCL003).
func (c *checker) checkConflicts(mi int, m *gcl.Module, cmds []*gcl.Command, lits []circuit.Lit, refs []bdd.Ref) []Diag {
	b := c.comp.B
	var diags []Diag
	for i, ci := range cmds {
		if ci.Fallback {
			continue
		}
		writesI := make(map[*gcl.Var]gcl.Expr, len(ci.Updates))
		for _, u := range ci.Updates {
			writesI[u.Var] = u.Expr
		}
		for j := i + 1; j < len(cmds); j++ {
			cj := cmds[j]
			if cj.Fallback {
				continue
			}
			overlap := c.m.And(refs[i], refs[j])
			if overlap == bdd.False {
				continue
			}
			for _, u := range cj.Updates {
				exprI, ok := writesI[u.Var]
				if !ok {
					continue
				}
				lhs, rhs := c.comp.CompileValue(exprI), c.comp.CompileValue(u.Expr)
				for len(lhs) < len(rhs) {
					lhs = append(lhs, circuit.False)
				}
				for len(rhs) < len(lhs) {
					rhs = append(rhs, circuit.False)
				}
				neq := b.EqBV(lhs, rhs).Not()
				q := c.m.And(overlap, c.fromCircuit(neq))
				if q == bdd.False {
					continue
				}
				diags = append(diags, Diag{
					Code:     CodeConflictingWrites,
					Severity: Warning,
					Module:   m.Name,
					Command:  ci.Name,
					Var:      u.Var.Name,
					Message: fmt.Sprintf("commands %q and %q can be enabled together but assign %s different values (%s vs %s)",
						ci.Name, cj.Name, u.Var, exprI, u.Expr),
					Witness: c.witness(q, lits[i], lits[j], b.AndAll(lhs), b.AndAll(rhs)),
					mod:     mi, cmd: i, vr: u.Var.ID(),
				})
			}
		}
	}
	return diags
}

// checkModules runs the module-level stuck check (GCL002): a module without
// a fallback for which some in-domain valuation of the state (and of the
// primed variables it reads) enables no command for ANY choice value. Choice
// variables are existentially quantified first — a state is only stuck when
// no (command, choice) combination can fire.
func (c *checker) checkModules() ([]Diag, error) {
	var diags []Diag
	err := c.guard(func() {
		for mi, m := range c.sys.Modules() {
			cmds := m.Commands()
			hasFallback := false
			for _, cmd := range cmds {
				if cmd.Fallback {
					hasFallback = true
				}
			}
			if hasFallback {
				continue
			}
			if len(cmds) == 0 {
				diags = append(diags, Diag{
					Code:     CodeStuckModule,
					Severity: Error,
					Module:   m.Name,
					Message:  "module has no commands and no fallback; it blocks every step of the synchronous composition",
					mod:      mi, cmd: -1, vr: -1,
				})
				continue
			}
			lits := c.effectiveGuards(m)
			disj := c.comp.B.OrAll(lits)
			enabled := c.m.And(c.fromCircuit(disj), c.domChoice)
			someChoice := c.m.Exists(enabled, c.choiceCube)
			stuck := c.m.Diff(c.domVal, someChoice)
			if stuck == bdd.False {
				continue
			}
			diags = append(diags, Diag{
				Code:     CodeStuckModule,
				Severity: Warning,
				Module:   m.Name,
				Message:  "module has no fallback and a valuation under which no command is enabled for any choice value; if that valuation is reachable, the whole system deadlocks",
				Witness:  c.witness(stuck, disj),
				mod:      mi, cmd: -1, vr: -1,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return diags, nil
}
