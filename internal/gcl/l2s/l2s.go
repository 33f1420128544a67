// Package l2s implements the liveness-to-safety reduction (loop-closure
// shadow state, after Biere/Artho/Schuppan) over finalized gcl systems.
//
// Given a finite-state system S and a state predicate p, Transform builds
// the monitored product S×M: a clone of S extended with a monitor module
// holding a shadow copy of every state variable, a nondeterministic "save"
// oracle, and a "p seen" flag. A run of the product violates the safety
// invariant Safe exactly when S has a reachable lasso — a stem plus a
// cycle — along which p never holds; that is, exactly when the liveness
// property AF p (mc.Eventually) is violated. An invariant-only engine
// (IC3, k-induction) run on the product therefore decides AF p outright,
// and ProjectLasso turns the product's invariant counterexample back into
// a concrete lasso of S that the interpreter can replay, back-edge
// included.
//
// The monitor works at the gcl system level, not on the compiled circuit:
// the product is an ordinary finalized System, so every engine, the
// optimizer's trace inflation, and the interpreter-based replay machinery
// apply to it unchanged. Soundness of the encoding:
//
//   - save fires at most once (guarded on ¬saved) and copies the current
//     values of all state variables into the shadows; saved latches.
//   - seen latches p evaluated over the whole path from the initial state
//     (not merely since the save), so ¬seen at step k certifies that p
//     held at none of s_0..s_{k-1}.
//   - Safe is violated in state s_T iff saved ∧ (v = shadow_v for all v)
//     ∧ ¬seen ∧ ¬p: the shadows hold s_j for the step j at which save
//     fired, so s_T = s_j closes a cycle, and ¬seen ∧ ¬p extends the
//     p-free certificate through s_T itself.
//
// Violated Safe therefore yields a p-free lasso of S; conversely any
// p-free lasso of S is exposed by scheduling save at its loop head, so
// the reduction is equivalence-preserving for AF p. The monitor adds no
// deadlocks (one of its two commands is enabled in every state) and its
// initial states never violate Safe (saved starts at 0), matching the
// explicit engine's lasso-only semantics for eventuality violations.
package l2s

import (
	"fmt"

	"ttastartup/internal/gcl"
)

// Product is the monitored system produced by Transform.
type Product struct {
	// Sys is the finalized product system (clone of the source plus the
	// monitor module).
	Sys *gcl.System
	// Safe is the safety invariant over Sys's variables: "no closed
	// p-free loop". AF p holds in the source iff Safe is invariant in
	// the product.
	Safe gcl.Expr

	src   *gcl.System
	newOf map[*gcl.Var]*gcl.Var // source var → product clone
	saved *gcl.Var
}

// Source returns the system the product was built from.
func (p *Product) Source() *gcl.System { return p.src }

// ProductVar returns the product clone of a source variable.
func (p *Product) ProductVar(v *gcl.Var) *gcl.Var { return p.newOf[v] }

// Transform builds the monitored product of src for the state predicate
// pred (the body of an mc.Eventually property). src must be finalized and
// pred must be a plain state predicate over src's state variables.
func Transform(src *gcl.System, pred gcl.Expr) (*Product, error) {
	if !src.Finalized() {
		return nil, fmt.Errorf("l2s: source system not finalized")
	}
	var perr error
	gcl.VisitVars(pred, func(v *gcl.Var, primed bool) {
		if primed {
			perr = fmt.Errorf("l2s: predicate reads primed %s", v.Name)
		}
		if v.Kind == gcl.KindChoice {
			perr = fmt.Errorf("l2s: predicate reads choice variable %s", v.Name)
		}
	})
	if perr != nil {
		return nil, perr
	}

	p := &Product{src: src, newOf: map[*gcl.Var]*gcl.Var{}}
	ns := gcl.NewSystem(src.Name + "+l2s")

	// Clone every module, variable, and command of the source verbatim.
	mods := src.Modules()
	newMods := make([]*gcl.Module, len(mods))
	for i, m := range mods {
		nm := ns.Module(m.Name)
		newMods[i] = nm
		for _, v := range m.Vars() {
			switch v.Kind {
			case gcl.KindChoice:
				p.newOf[v] = nm.Choice(v.Name, v.Type)
			case gcl.KindState:
				p.newOf[v] = nm.Var(v.Name, v.Type, v.Init())
			}
		}
	}
	transplant := func(e gcl.Expr) gcl.Expr {
		return gcl.Rewrite(e, func(v *gcl.Var, primed bool) gcl.Expr {
			nv := p.newOf[v]
			if nv == nil {
				panic(fmt.Sprintf("l2s: transplant reads unknown variable %s", v.Name))
			}
			if primed {
				return gcl.XN(nv)
			}
			return gcl.X(nv)
		})
	}
	for i, m := range mods {
		nm := newMods[i]
		for _, c := range m.Commands() {
			ups := make([]gcl.Update, 0, len(c.Updates))
			for _, u := range c.Updates {
				ups = append(ups, gcl.Set(p.newOf[u.Var], transplant(u.Expr)))
			}
			if c.Fallback {
				nm.Fallback(c.Name, ups...)
			} else {
				nm.Cmd(c.Name, transplant(c.Guard), ups...)
			}
		}
	}

	// The monitor module. Its name must not collide with a source module.
	name := "l2s_monitor"
	for taken(mods, name) {
		name += "_"
	}
	mon := ns.Module(name)

	srcState := src.StateVars()
	shadows := make([]*gcl.Var, len(srcState))
	for i, v := range srcState {
		// Shadow initial values are irrelevant while saved is 0; pin
		// them to 0 so the monitor does not inflate the initial-state
		// count.
		shadows[i] = mon.Var(shadowName(v), v.Type, gcl.InitConst(0))
	}
	saved := mon.Bool("saved", gcl.InitConst(0))
	seen := mon.Bool("seen", gcl.InitConst(0))
	save := mon.Choice("save", gcl.BoolType())
	p.saved = saved

	prodPred := transplant(pred)
	seenNext := gcl.Or(gcl.X(seen), prodPred)

	// Two complementary commands instead of command+fallback: a module
	// with a fallback may not read choice variables in a normal guard.
	// "save" latches the shadows and saved on the oracle's signal; "wait"
	// leaves them untouched. Both keep the seen flag up to date, so seen
	// tracks p over the whole path — tracking it only since the save
	// would miss stems that satisfy p and make the reduction unsound.
	saveUps := make([]gcl.Update, 0, len(srcState)+2)
	for i, v := range srcState {
		saveUps = append(saveUps, gcl.Set(shadows[i], gcl.X(p.newOf[v])))
	}
	saveUps = append(saveUps, gcl.SetC(saved, 1), gcl.Set(seen, seenNext))
	armed := gcl.And(gcl.X(save), gcl.Not(gcl.X(saved)))
	mon.Cmd("save", armed, saveUps...)
	mon.Cmd("wait", gcl.Not(armed), gcl.Set(seen, seenNext))

	closed := make([]gcl.Expr, 0, len(srcState)+3)
	closed = append(closed, gcl.X(saved))
	for i, v := range srcState {
		closed = append(closed, gcl.Eq(gcl.X(p.newOf[v]), gcl.X(shadows[i])))
	}
	closed = append(closed, gcl.Not(gcl.X(seen)), gcl.Not(prodPred))
	p.Safe = gcl.Not(gcl.And(closed...))

	if err := ns.Finalize(); err != nil {
		return nil, fmt.Errorf("l2s: product rejected: %w", err)
	}
	p.Sys = ns
	return p, nil
}

// ProjectLasso maps an invariant counterexample of the product (a path
// ending in a ¬Safe state) back to a concrete lasso of the source system.
// It returns the projected states with the final, loop-closing state
// dropped, and the index its back-edge returns to, ready for
// mc.Trace{States, LoopsTo}.
func (p *Product) ProjectLasso(states []gcl.State) ([]gcl.State, int, error) {
	if len(states) < 2 {
		return nil, 0, fmt.Errorf("l2s: product trace of %d states cannot close a loop", len(states))
	}
	// saved latches on the step at which the oracle fired, so the first
	// index carrying saved=1 is j+1 where s_j is the loop head the
	// shadows recorded.
	first := -1
	for i, st := range states {
		if st.Get(p.saved) != 0 {
			first = i
			break
		}
	}
	if first <= 0 {
		return nil, 0, fmt.Errorf("l2s: product trace never saved a loop head (first saved index %d)", first)
	}
	loopsTo := first - 1

	proj := make([]gcl.State, len(states))
	n := len(p.src.Vars())
	for i, st := range states {
		out := make(gcl.State, n)
		for _, v := range p.src.StateVars() {
			out.Set(v, st.Get(p.newOf[v]))
		}
		proj[i] = out
	}
	vs := p.src.StateVars()
	last := len(proj) - 1
	if gcl.Key(proj[last], vs) != gcl.Key(proj[loopsTo], vs) {
		return nil, 0, fmt.Errorf("l2s: loop closure broken: final state differs from saved head %d", loopsTo)
	}
	// The final state duplicates the loop head; the back-edge of the
	// lasso is the step from proj[last-1] to proj[loopsTo].
	return proj[:last], loopsTo, nil
}

func taken(mods []*gcl.Module, name string) bool {
	for _, m := range mods {
		if m.Name == name {
			return true
		}
	}
	return false
}

func shadowName(v *gcl.Var) string {
	if v.Module != nil {
		return "shadow_" + v.Module.Name + "_" + v.Name
	}
	return "shadow_" + v.Name
}
