package bmc

import (
	"context"
	"fmt"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/obs"
	"ttastartup/internal/sat"
)

// CheckEventuallyRefuteCtx searches for a counterexample to F(pred) on all
// paths: a lasso — a path x_0 … x_k with x_k equal to some earlier x_l —
// every state of which violates pred. Refutations come back as Violated
// with a lasso trace. The search is additionally complete at the
// recurrence diameter: a second, simple-path-constrained query asks per
// depth whether any loop-free ¬pred path of k+1 states leaves an initial
// state. When that query goes unsatisfiable, every infinite ¬pred path
// would have to revisit a state within the already-refuted lasso depths
// (the short-counterexample argument of Konnov et al., arXiv:1608.05327),
// so the eventuality is proved outright and the verdict is a definitive
// Holds. Only when MaxDepth is exhausted below the recurrence diameter
// does the method fall back to HoldsBounded. Cancellation of ctx reaches
// the per-depth loop and the SAT search.
func CheckEventuallyRefuteCtx(ctx context.Context, comp *gcl.Compiled, prop mc.Property, opts Options) (*mc.Result, error) {
	if prop.Kind != mc.Eventually {
		return nil, fmt.Errorf("bmc: CheckEventuallyRefuteCtx on %v property", prop.Kind)
	}
	if opts.MaxDepth <= 0 {
		return nil, fmt.Errorf("bmc: MaxDepth must be positive")
	}
	run := mc.StartRun(opts.Obs, EngineName, prop.Name)
	c := NewChecker(comp)
	c.attachObs(opts.Obs)
	interrupted := c.bindCtx(ctx)
	notP := comp.CompileExpr(prop.Pred).Not()

	// Current-state input ids, used for frame-equality clauses.
	var curIDs []int
	for id, info := range comp.Bits {
		if info.Role == gcl.RoleCur {
			curIDs = append(curIDs, id)
		}
	}

	// Recurrence-diameter checker: initial states at frame 0, ¬pred
	// asserted at every frame, all frames pairwise distinct. While it
	// stays satisfiable there are loop-free ¬pred paths longer than the
	// lasso search has covered; the first unsatisfiable depth proves the
	// eventuality (see the doc comment). It cannot share the lasso
	// checker's solver — loop closure requires frame equality, which the
	// permanent distinctness clauses forbid.
	diam := NewChecker(comp)
	diam.attachObs(opts.Obs)
	diamInterrupted := diam.bindCtx(ctx)
	diam.assertLit(diam.encode(notP, 0))

	res := &mc.Result{Property: prop, Verdict: mc.HoldsBounded}
	// avoid[t] asserts ¬pred at frame t; asserted permanently as we
	// deepen (monotone in k).
	c.assertLit(c.encode(notP, 0))

	for k := 1; k <= opts.MaxDepth; k++ {
		if err := ctx.Err(); err != nil {
			run.Abort(err)
			return nil, err
		}
		sp := opts.Obs.Trace.Start(obs.CatFrame, fmt.Sprintf("k=%d", k))
		c.extendTo(k)
		c.assertLit(c.encode(notP, k))

		// Loop selectors for this depth: sel_l -> (frame k == frame l),
		// plus an activation literal requiring some selector.
		sels := make([]sat.Lit, k)
		clause := make([]sat.Lit, 0, k+1)
		for l := range k {
			sel := sat.Pos(c.solver.NewVar())
			sels[l] = sel
			for _, id := range curIDs {
				a := sat.Pos(c.varFor(id, l))
				bLit := sat.Pos(c.varFor(id, k))
				c.solver.AddClause(sel.Not(), a.Not(), bLit)
				c.solver.AddClause(sel.Not(), a, bLit.Not())
			}
			clause = append(clause, sel)
		}
		act := sat.Pos(c.solver.NewVar())
		clause = append(clause, act.Not())
		c.solver.AddClause(clause...)

		found := c.solve(act)
		sp.End()
		if found {
			// Decode the lasso; find the loop target.
			states := make([]gcl.State, k)
			for t := range k {
				states[t] = c.stateAt(t)
			}
			loopTo := -1
			final := c.stateAt(k)
			vars := comp.Sys.StateVars()
			finalKey := gcl.Key(final, vars)
			for l := range k {
				if gcl.Key(states[l], vars) == finalKey {
					loopTo = l
					break
				}
			}
			res.Verdict = mc.Violated
			res.Trace = &mc.Trace{States: states, LoopsTo: loopTo}
			c.fillStats(&run.Stats, k)
			res.Stats = run.Finish(res.Verdict)
			return res, nil
		}
		if err := interrupted(); err != nil {
			run.Abort(err)
			return nil, err
		}
		// Deactivate this depth's loop requirement for the next rounds
		// (the disjunction is then satisfied by ¬act, leaving the
		// selectors free).
		c.solver.AddClause(act.Not())

		// No ¬pred lasso of unrolled length ≤ k. If additionally no
		// loop-free ¬pred path of k+1 states exists, any infinite ¬pred
		// path would revisit a state within depth k and form a lasso the
		// search above already excluded — the property holds outright.
		dsp := opts.Obs.Trace.Start(obs.CatFrame, fmt.Sprintf("diameter k=%d", k))
		diam.extendTo(k)
		diam.assertLit(diam.encode(notP, k))
		diam.assertDistinct(curIDs, k)
		longer := diam.solve()
		dsp.End()
		if err := diamInterrupted(); err != nil {
			run.Abort(err)
			return nil, err
		}
		if !longer {
			res.Verdict = mc.Holds
			c.fillStats(&run.Stats, k)
			diam.tap.FillStats(&run.Stats)
			res.Stats = run.Finish(res.Verdict)
			return res, nil
		}
	}
	c.fillStats(&run.Stats, opts.MaxDepth)
	diam.tap.FillStats(&run.Stats)
	res.Stats = run.Finish(res.Verdict)
	return res, nil
}
