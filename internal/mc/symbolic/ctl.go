package symbolic

import (
	"context"
	"fmt"

	"ttastartup/internal/bdd"
	"ttastartup/internal/circuit"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
)

// CheckCTLCtx evaluates a CTL formula by BDD fixpoint iteration over the
// reachable states (successor-closedness of the reachable set makes the
// restriction sound for queries about initial states). The verdict is
// Holds when every initial state satisfies the formula; on violation the
// trace contains one offending initial state (CTL counterexamples are
// trees in general, so no linear trace is attempted). Cancellation of ctx
// reaches the reachability fixpoint and the formula's EF/EG/EU fixpoints.
func (e *Engine) CheckCTLCtx(ctx context.Context, name string, f *mc.CTLFormula) (*mc.Result, error) {
	run := mc.StartRun(e.opts.Obs, EngineName, name)
	reach, err := e.ReachableCtx(ctx)
	if err != nil {
		run.Abort(err)
		return nil, err
	}
	prop := mc.Property{Name: name, Kind: mc.CTL, CTL: f}
	res := &mc.Result{Property: prop, Verdict: mc.Holds}
	err = e.guard(func() {
		sat := e.evalCTL(ctx, f, reach)
		bad := e.m.Diff(e.m.And(e.init, reach), sat)
		if bad != bdd.False {
			res.Verdict = mc.Violated
			res.Trace = mc.NewTrace([]gcl.State{e.decode(e.m.PickCube(bad))})
		}
		e.fillStats(&run.Stats)
		run.Stats.Reachable = e.m.SatCount(reach, e.curVars)
	})
	if err != nil {
		run.Abort(err)
		return nil, err
	}
	res.Stats = run.Finish(res.Verdict)
	return res, nil
}

// evalCTL returns the set of reachable states satisfying f, polling ctx
// once per fixpoint iteration.
func (e *Engine) evalCTL(ctx context.Context, f *mc.CTLFormula, reach bdd.Ref) bdd.Ref {
	m := e.m
	within := func(s bdd.Ref) bdd.Ref { return m.And(reach, s) }
	ex := func(s bdd.Ref) bdd.Ref { return within(e.Preimage(s)) }

	switch f.Op {
	case mc.CTLAtomOp:
		pred := e.fromCircuit(e.comp.CompileExpr(f.Pred), make(map[circuit.Lit]bdd.Ref))
		return within(pred)
	case mc.CTLNotOp:
		return m.Diff(reach, e.evalCTL(ctx, f.L, reach))
	case mc.CTLAndOp:
		// The left result must survive the right subformula's fixpoints,
		// whose safe points may GC or reorder — protect it across the call.
		l := m.Protect(e.evalCTL(ctx, f.L, reach))
		r := e.evalCTL(ctx, f.R, reach)
		m.Unprotect(l)
		return m.And(l, r)
	case mc.CTLOrOp:
		l := m.Protect(e.evalCTL(ctx, f.L, reach))
		r := e.evalCTL(ctx, f.R, reach)
		m.Unprotect(l)
		return m.Or(l, r)
	case mc.CTLEXOp:
		return ex(e.evalCTL(ctx, f.L, reach))
	case mc.CTLEFOp:
		// μZ. f ∨ EX Z
		target := e.evalCTL(ctx, f.L, reach)
		z := m.Protect(target)
		for {
			pollCtx(ctx)
			next := m.Or(target, ex(z))
			if next == z {
				break
			}
			m.Unprotect(z)
			z = m.Protect(next)
			e.maybeGC(target)
		}
		m.Unprotect(z)
		return z
	case mc.CTLEGOp:
		// νZ. f ∧ EX Z
		target := e.evalCTL(ctx, f.L, reach)
		z := m.Protect(target)
		for {
			pollCtx(ctx)
			next := m.And(target, ex(z))
			if next == z {
				break
			}
			m.Unprotect(z)
			z = m.Protect(next)
			e.maybeGC(target)
		}
		m.Unprotect(z)
		return z
	case mc.CTLEUOp:
		// μZ. r ∨ (l ∧ EX Z)
		l := e.evalCTL(ctx, f.L, reach)
		r := e.evalCTL(ctx, f.R, reach)
		z := m.Protect(r)
		for {
			pollCtx(ctx)
			next := m.Or(r, m.And(l, ex(z)))
			if next == z {
				break
			}
			m.Unprotect(z)
			z = m.Protect(next)
			e.maybeGC(l, r)
		}
		m.Unprotect(z)
		return z
	case mc.CTLAXOp:
		// AX f = ¬EX ¬f (on a deadlock-free system).
		return m.Diff(reach, ex(m.Diff(reach, e.evalCTL(ctx, f.L, reach))))
	case mc.CTLAFOp:
		// AF f = ¬EG ¬f.
		neg := mc.CTLEG(mc.CTLNot(f.L))
		return m.Diff(reach, e.evalCTL(ctx, neg, reach))
	case mc.CTLAGOp:
		// AG f = ¬EF ¬f.
		neg := mc.CTLEF(mc.CTLNot(f.L))
		return m.Diff(reach, e.evalCTL(ctx, neg, reach))
	default:
		panic(fmt.Sprintf("symbolic: unknown CTL operator %d", int(f.Op)))
	}
}
