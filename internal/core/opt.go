package core

import (
	"fmt"

	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/opt"
	"ttastartup/internal/mc"
	"ttastartup/internal/obs"
)

// OptimizeProp runs the optimization pipeline for a single property over
// any finalized system and returns the handle plus the property rewritten
// onto the optimized system's variables. It is the opt step of the check
// pipeline. A CTL property is sliced for the union cone of its formula's
// atoms, which is sound for full CTL because the slice is a bisimulation
// quotient with respect to the atom predicates.
func OptimizeProp(sys *gcl.System, prop mc.Property) (*opt.Optimized, mc.Property, error) {
	preds := []gcl.Expr{prop.Pred}
	if prop.Kind == mc.CTL {
		preds = ctlAtoms(prop.CTL, nil)
	}
	o, err := opt.Optimize(sys, opt.Options{Preds: preds})
	if err != nil {
		return nil, mc.Property{}, err
	}
	if prop.Kind == mc.CTL {
		idx := 0
		return o, mc.Property{Name: prop.Name, Kind: prop.Kind, CTL: ctlRewrite(prop.CTL, o.Preds, &idx)}, nil
	}
	return o, mc.Property{Name: prop.Name, Kind: prop.Kind, Pred: o.Preds[0]}, nil
}

// FinishOpt post-processes an engine result obtained on an optimized
// system: it stamps the reduction counts into the run's stats, publishes
// the optimizer counters, and inflates any counterexample trace back to
// full source-model states so callers render and replay traces of the
// system they asked about.
func FinishOpt(res *mc.Result, o *opt.Optimized, scope obs.Scope) error {
	res.Stats.OptVarsDropped = o.Report.VarsDropped()
	res.Stats.OptCmdsDropped = o.Report.CmdsDropped()
	res.Stats.OptBitsSaved = o.Report.BitsSaved()
	if scope.Reg != nil {
		scope.Reg.Counter(obs.MOptRuns).Inc()
		scope.Reg.Counter(obs.MOptVarsDropped).Add(int64(o.Report.VarsDropped()))
		scope.Reg.Counter(obs.MOptCmdsDropped).Add(int64(o.Report.CmdsDropped()))
		scope.Reg.Counter(obs.MOptBitsSaved).Add(int64(o.Report.BitsSaved()))
	}
	if res.Trace == nil {
		return nil
	}
	states, loopsTo, err := o.InflateStates(res.Trace.States, res.Trace.LoopsTo)
	if err != nil {
		return fmt.Errorf("core: inflating %s counterexample: %w", res.Property.Name, err)
	}
	res.Trace = &mc.Trace{States: states, LoopsTo: loopsTo}
	return nil
}

// ctlAtoms appends f's atom predicates in a fixed left-to-right order.
func ctlAtoms(f *mc.CTLFormula, out []gcl.Expr) []gcl.Expr {
	if f == nil {
		return out
	}
	if f.Op == mc.CTLAtomOp {
		return append(out, f.Pred)
	}
	out = ctlAtoms(f.L, out)
	return ctlAtoms(f.R, out)
}

// ctlRewrite rebuilds f with its atoms replaced in the same left-to-right
// order ctlAtoms produced them.
func ctlRewrite(f *mc.CTLFormula, preds []gcl.Expr, idx *int) *mc.CTLFormula {
	if f == nil {
		return nil
	}
	if f.Op == mc.CTLAtomOp {
		p := preds[*idx]
		*idx++
		return mc.CTLAtom(p)
	}
	g := *f
	g.L = ctlRewrite(f.L, preds, idx)
	g.R = ctlRewrite(f.R, preds, idx)
	return &g
}
