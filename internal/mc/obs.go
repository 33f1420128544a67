package mc

import (
	"time"

	"ttastartup/internal/obs"
	"ttastartup/internal/sat"
)

// Run ties one engine check to the instrumentation scope: every engine
// starts a Run, fills Run.Stats as it goes, and returns Run.Finish(v),
// so Stats.Duration, the per-run registry metrics, and the top-level
// engine span are measured by exactly one code path.
type Run struct {
	Stats Stats

	scope obs.Scope
	span  *obs.Span
	start time.Time
	done  bool
}

// StartRun opens a run for one engine/property pair: it stamps
// Stats.Engine, starts the wall clock, and opens the engine-category
// span. The zero scope disables all publishing; the clock still runs.
func StartRun(scope obs.Scope, engine, property string) *Run {
	r := &Run{scope: scope, start: time.Now()}
	r.Stats.Engine = engine
	r.span = scope.Trace.Start(obs.CatEngine, engine+" "+property)
	r.span.Attr("property", property)
	return r
}

// Scope returns the run's instrumentation scope for engine-specific use.
func (r *Run) Scope() obs.Scope { return r.scope }

// Span returns the engine span so engines can open children under it.
func (r *Run) Span() *obs.Span { return r.span }

// Finish stamps Stats.Duration, publishes run-level metrics, ends the
// engine span with the verdict, and returns the completed Stats.
// Idempotent: only the first call measures.
func (r *Run) Finish(v Verdict) Stats {
	if !r.done {
		r.done = true
		r.Stats.Duration = time.Since(r.start)
		r.scope.Reg.Counter(obs.MRuns).Inc()
		r.scope.Reg.Histogram(obs.MRunMS).Observe(r.Stats.Duration.Milliseconds())
		r.scope.Reg.Gauge(obs.MRunIters).SetMax(int64(r.Stats.Iterations))
		r.span.Attr("verdict", v.String()).End()
	}
	return r.Stats
}

// Abort ends the run without a verdict (engine error or cancellation),
// closing the span so traces stay well formed. Idempotent, and a no-op
// after Finish.
func (r *Run) Abort(err error) {
	if r.done {
		return
	}
	r.done = true
	r.Stats.Duration = time.Since(r.start)
	if err != nil {
		r.span.Attr("error", err.Error())
	}
	r.span.End()
}

// SATTap routes every Solve call of one solver through a single
// accounting path: it counts queries, wraps each query in a sat-category
// span, and flushes the solver's plain-field counter deltas to the
// registry after each call — so registry totals stay live while the
// solver's innermost loops stay atomic-free. All SAT engines (BMC,
// k-induction, IC3) issue their queries through a tap.
type SATTap struct {
	scope   obs.Scope
	solver  *sat.Solver
	queries int

	qc, cc, pc, dc, rc, lc                            *obs.Counter
	lastConf, lastProp, lastDec, lastRest, lastLearnt int
}

// NewSATTap wraps solver with the given scope (zero scope = counting
// only, no publishing).
func NewSATTap(scope obs.Scope, solver *sat.Solver) *SATTap {
	return &SATTap{
		scope:  scope,
		solver: solver,
		qc:     scope.Reg.Counter(obs.MSATQueries),
		cc:     scope.Reg.Counter(obs.MSATConflicts),
		pc:     scope.Reg.Counter(obs.MSATPropagations),
		dc:     scope.Reg.Counter(obs.MSATDecisions),
		rc:     scope.Reg.Counter(obs.MSATRestarts),
		lc:     scope.Reg.Counter(obs.MSATLearnts),
	}
}

// Solver returns the wrapped solver (for model/core extraction).
func (t *SATTap) Solver() *sat.Solver { return t.solver }

// Solve issues one query through the tap.
func (t *SATTap) Solve(assumptions ...sat.Lit) bool {
	t.queries++
	t.qc.Inc()
	sp := t.scope.Trace.Start(obs.CatSAT, "solve")
	ok := t.solver.Solve(assumptions...)
	if sp != nil {
		res := "unsat"
		switch {
		case ok:
			res = "sat"
		case t.solver.Stopped():
			res = "interrupted"
		}
		sp.Attr("result", res).End()
	}
	t.Flush()
	return ok
}

// Flush publishes the solver counter deltas accumulated since the last
// flush. Called automatically by Solve; call it directly after solver
// work done outside Solve (e.g. Simplify).
func (t *SATTap) Flush() {
	conf := t.solver.Conflicts()
	prop := t.solver.Propagations()
	dec := t.solver.Decisions()
	rest := t.solver.Restarts()
	learnt := t.solver.LearntTotal()
	t.cc.Add(int64(conf - t.lastConf))
	t.pc.Add(int64(prop - t.lastProp))
	t.dc.Add(int64(dec - t.lastDec))
	t.rc.Add(int64(rest - t.lastRest))
	t.lc.Add(int64(learnt - t.lastLearnt))
	t.lastConf, t.lastProp, t.lastDec, t.lastRest, t.lastLearnt = conf, prop, dec, rest, learnt
}

// FillStats adds the tap's query count and the solver's cumulative
// search counters into st. Engines with several solvers (k-induction's
// base and step checkers) call it once per tap; the fields accumulate.
func (t *SATTap) FillStats(st *Stats) {
	st.SATQueries += t.queries
	st.Conflicts += t.solver.Conflicts()
	st.Decisions += t.solver.Decisions()
	st.Propagations += t.solver.Propagations()
	st.Restarts += t.solver.Restarts()
}
