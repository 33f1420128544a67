package bmc

import (
	"context"
	"fmt"

	"ttastartup/internal/circuit"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/obs"
	"ttastartup/internal/sat"
)

// InductionOptions tunes k-induction.
type InductionOptions struct {
	// MaxK bounds the induction depth (required, > 0).
	MaxK int
	// SimplePath adds pairwise frame-distinctness constraints to the
	// inductive step, making k-induction complete for finite systems (at
	// quadratic clause cost). Without it the prover may return
	// HoldsBounded even for true invariants.
	SimplePath bool
	// Obs receives per-depth frame spans, per-query SAT spans and counter
	// flushes, and the engine span. The zero value disables instrumentation.
	Obs obs.Scope
}

// CheckInvariantInductionCtx attempts an UNBOUNDED proof of G(pred) by
// temporal induction: for increasing k it checks the base case (no
// violation within k steps of an initial state) and the inductive step
// (no path of k+1 pred-states followed by a ¬pred-state). If the step is
// unsatisfiable the invariant holds for every depth — a SAT-based proof
// with no BDDs involved. Returns Holds (proved), Violated (base case
// failed, with trace), or HoldsBounded (MaxK exhausted; no verdict beyond
// the bound). Cancellation of ctx reaches the per-k loop and both SAT
// searches.
func CheckInvariantInductionCtx(ctx context.Context, comp *gcl.Compiled, prop mc.Property, opts InductionOptions) (*mc.Result, error) {
	if prop.Kind != mc.Invariant {
		return nil, fmt.Errorf("bmc: CheckInvariantInductionCtx on %v property", prop.Kind)
	}
	if opts.MaxK <= 0 {
		return nil, fmt.Errorf("bmc: MaxK must be positive")
	}
	run := mc.StartRun(opts.Obs, EngineName, prop.Name)

	// Base-case checker: standard BMC, initial states constrained.
	base := NewChecker(comp)
	base.attachObs(opts.Obs)
	baseInterrupted := base.bindCtx(ctx)
	// Step checker: no initial-state constraint — any run of the system.
	step := newCheckerNoInit(comp)
	step.attachObs(opts.Obs)
	stepInterrupted := step.bindCtx(ctx)

	predLit := comp.CompileExpr(prop.Pred)
	var curIDs []int
	if opts.SimplePath {
		for id, info := range comp.Bits {
			if info.Role == gcl.RoleCur {
				curIDs = append(curIDs, id)
			}
		}
	}

	res := &mc.Result{Property: prop, Verdict: mc.HoldsBounded}
	for k := 0; k <= opts.MaxK; k++ {
		if err := ctx.Err(); err != nil {
			run.Abort(err)
			return nil, err
		}
		sp := opts.Obs.Trace.Start(obs.CatFrame, fmt.Sprintf("k=%d", k))
		// Base: violation at exactly depth k?
		base.extendTo(k)
		if base.solve(base.encode(predLit.Not(), k)) {
			sp.Attr("phase", "base").End()
			states := make([]gcl.State, k+1)
			for t := 0; t <= k; t++ {
				states[t] = base.stateAt(t)
			}
			res.Verdict = mc.Violated
			res.Trace = mc.NewTrace(states)
			base.fillStats(&run.Stats, k)
			step.tap.FillStats(&run.Stats)
			res.Stats = run.Finish(res.Verdict)
			return res, nil
		}
		if err := baseInterrupted(); err != nil {
			sp.End()
			run.Abort(err)
			return nil, err
		}

		// Step: pred at frames 0..k (asserted incrementally), ¬pred at
		// frame k+1 (assumed). UNSAT proves the invariant outright — but an
		// interrupted search also returns false, so the cancellation probe
		// must be consulted before claiming a proof.
		step.extendTo(k + 1)
		step.assertLit(step.encode(predLit, k))
		if opts.SimplePath {
			step.assertDistinct(curIDs, k+1)
		}
		proved := !step.solve(step.encode(predLit.Not(), k+1))
		sp.End()
		if proved {
			if err := stepInterrupted(); err != nil {
				run.Abort(err)
				return nil, err
			}
			res.Verdict = mc.Holds
			step.fillStats(&run.Stats, k)
			base.tap.FillStats(&run.Stats)
			res.Stats = run.Finish(res.Verdict)
			return res, nil
		}
	}
	base.fillStats(&run.Stats, opts.MaxK)
	step.tap.FillStats(&run.Stats)
	res.Stats = run.Finish(res.Verdict)
	return res, nil
}

// newCheckerNoInit builds a checker whose frame 0 is unconstrained (used
// by the inductive step).
func newCheckerNoInit(comp *gcl.Compiled) *Checker {
	c := &Checker{
		comp:   comp,
		solver: sat.New(),
	}
	c.tap = mc.NewSATTap(obs.Scope{}, c.solver)
	c.frameVars = append(c.frameVars, c.newFrame())
	c.tseitinMemo = append(c.tseitinMemo, make(map[circuit.Lit]sat.Lit))
	return c
}

// assertDistinct adds simple-path constraints: frame `last` differs from
// every earlier frame in at least one current-state bit.
func (c *Checker) assertDistinct(curIDs []int, last int) {
	for l := range last {
		clause := make([]sat.Lit, 0, len(curIDs))
		for _, id := range curIDs {
			a := sat.Pos(c.varFor(id, l))
			b := sat.Pos(c.varFor(id, last))
			d := sat.Pos(c.solver.NewVar())
			// d -> (a XOR b)
			c.solver.AddClause(d.Not(), a, b)
			c.solver.AddClause(d.Not(), a.Not(), b.Not())
			clause = append(clause, d)
		}
		c.solver.AddClause(clause...)
	}
}
