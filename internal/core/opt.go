package core

import (
	"context"
	"fmt"

	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/opt"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/obs"
)

// OptimizeProp runs the optimization pipeline for a single property over
// any finalized system and returns the handle plus the property rewritten
// onto the optimized system's variables. It is the opt step of the check
// pipeline.
func OptimizeProp(sys *gcl.System, prop mc.Property) (*opt.Optimized, mc.Property, error) {
	o, err := opt.Optimize(sys, opt.Options{Preds: []gcl.Expr{prop.Pred}})
	if err != nil {
		return nil, mc.Property{}, err
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

// OptReport returns the optimizer's reduction report for a lemma, running
// the pipeline if this suite has not optimized that lemma yet. It works
// whether or not Options.Opt is set, so callers can inspect reductions
// without routing checks through the optimized system.
func (s *Suite) OptReport(l Lemma) (opt.Report, error) {
	prop, err := s.Property(l)
	if err != nil {
		return opt.Report{}, err
	}
	t, err := s.source().optimize(prop)
	if err != nil {
		return opt.Report{}, err
	}
	return t.o.Report, nil
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

// recoveryName is the display name of the CTL stabilisation property.
const recoveryName = "recovery AG(AF all-active)"

// CheckRecovery verifies the CTL stabilisation property AG(AF all-active)
// with the symbolic or explicit engine (the two with CTL evaluators). With
// Options.Opt set, the formula's atoms are rewritten onto a system
// optimized for their union cone — sound for full CTL because the slice is
// a bisimulation quotient with respect to the atom predicates.
func (s *Suite) CheckRecovery(e Engine) (*mc.Result, error) {
	return s.CheckRecoveryCtx(context.Background(), e)
}

// CheckRecoveryCtx is CheckRecovery under a context: a deadline or
// cancellation propagates into the engine's fixpoints (or, explicit, its
// exploration) and surfaces as ctx.Err().
func (s *Suite) CheckRecoveryCtx(ctx context.Context, e Engine) (*mc.Result, error) {
	f := s.Model.Recovery()
	t := s.source()
	if s.opts.Opt {
		if s.recovery == nil {
			o, err := opt.Optimize(s.Model.Sys, opt.Options{Preds: ctlAtoms(f, nil)})
			if err != nil {
				return nil, err
			}
			s.recovery = &target{sys: o.Sys, o: o}
		}
		t = s.recovery
		idx := 0
		f = ctlRewrite(f, t.o.Preds, &idx)
	}

	var res *mc.Result
	var err error
	switch e {
	case EngineSymbolic:
		eng, serr := t.symbolic(s.opts.Symbolic)
		if serr != nil {
			return nil, serr
		}
		res, err = eng.CheckCTLCtx(ctx, recoveryName, f)
	case EngineExplicit:
		res, err = explicit.CheckCTLCtx(ctx, t.sys, recoveryName, f, s.opts.Explicit)
	default:
		return nil, fmt.Errorf("core: engine %v has no CTL evaluator", e)
	}
	if err != nil {
		return nil, err
	}
	if t.o != nil {
		if err := FinishOpt(res, t.o, s.opts.Obs); err != nil {
			return nil, err
		}
	}
	return res, nil
}
