package core

import (
	"context"
	"fmt"

	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/l2s"
	"ttastartup/internal/gcl/opt"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/mc/symbolic"
)

// target is one system the engines run on: a source model, its optimized
// form for one property, or an l2s product. The boolean compilation and
// the symbolic engine are built on first use, so explicit runs and l2s
// products never compile the system they start from, and every property
// checked on one target shares one symbolic engine and its reachable set.
type target struct {
	sys *gcl.System
	// o produced sys from the source model, and prop is the property
	// rewritten onto sys; both are unset on a source target.
	o    *opt.Optimized
	prop mc.Property

	comp *gcl.Compiled
	sym  *symbolic.Engine
	opt  map[string]*target // optimized targets, by property name
}

func (t *target) compiled() *gcl.Compiled {
	if t.comp == nil {
		t.comp = t.sys.Compile()
	}
	return t.comp
}

func (t *target) symbolic(opts symbolic.Options) (*symbolic.Engine, error) {
	if t.sym == nil {
		eng, err := symbolic.New(t.compiled(), opts)
		if err != nil {
			return nil, err
		}
		t.sym = eng
	}
	return t.sym, nil
}

// optimize returns (building and caching on first use) the target
// optimized for prop. The cone of influence is per-property, so nothing is
// shared between properties; in exchange each runs on the smallest sound
// model. The cache is keyed by name, which is unique among a suite's
// lemmas.
func (t *target) optimize(prop mc.Property) (*target, error) {
	if ot, ok := t.opt[prop.Name]; ok {
		return ot, nil
	}
	o, oprop, err := OptimizeProp(t.sys, prop)
	if err != nil {
		return nil, err
	}
	ot := &target{sys: o.Sys, o: o, prop: oprop}
	if t.opt == nil {
		t.opt = map[string]*target{}
	}
	t.opt[prop.Name] = ot
	return ot, nil
}

// Check verifies prop on sys with one engine. It is the one verification
// pipeline, which every front end runs:
//
//  1. opt (Options.Opt): slice and narrow sys to prop's cone (a CTL
//     formula's: the union cone of its atoms);
//  2. l2s (an eventuality on k-induction or IC3): reduce AF p to the
//     safety invariant of the liveness-to-safety product;
//  3. the engine;
//  4. project a product counterexample back to a lasso of the step-1
//     system;
//  5. FinishOpt: stamp the reductions and inflate the trace to
//     source-model states.
//
// Steps 1 and 2 run in this order only. The slice preserves AF p and its
// lassos on the variables p reads, so l2s on the sliced system is sound
// and its monitor shadows only the surviving variables; the monitor's
// state comparison reads every shadow, so slicing the product instead
// would keep everything (DESIGN.md, "Canonicity under COI slicing").
//
// The BMC and k-induction engines reject a zero Options.BMCDepth; a Suite
// fills it in with 2·w_sup.
func Check(ctx context.Context, sys *gcl.System, prop mc.Property, e Engine, opts Options) (*mc.Result, error) {
	return NewSource(sys).Check(ctx, prop, e, opts)
}

// Source is a source system held for repeated checks: its boolean
// compilation, symbolic engine (and so its reachable set) and per-property
// optimized systems are built on first use and shared by every Check on
// it. A Suite checks its lemmas on one Source. A Source is not safe for
// concurrent use.
type Source struct {
	t target
}

// NewSource wraps sys; nothing is compiled until a check needs it.
func NewSource(sys *gcl.System) *Source {
	return &Source{t: target{sys: sys}}
}

// Compiled returns the boolean compilation of the source system, building
// it on first use.
func (s *Source) Compiled() *gcl.Compiled {
	return s.t.compiled()
}

// Check runs Check's pipeline on the source system, reusing what earlier
// checks on s built. The symbolic engine keeps the options of the first
// check that built it.
func (s *Source) Check(ctx context.Context, prop mc.Property, e Engine, opts Options) (*mc.Result, error) {
	opts.normalize()
	t := &s.t
	if opts.Opt {
		var err error
		if t, err = s.t.optimize(prop); err != nil {
			return nil, err
		}
		prop = t.prop
	}

	run, query := t, prop
	var prod *l2s.Product
	if prop.Kind == mc.Eventually && (e == EngineInduction || e == EngineIC3) {
		var err error
		if prod, err = l2s.Transform(t.sys, prop.Pred); err != nil {
			return nil, err
		}
		run = &target{sys: prod.Sys}
		query = mc.Property{Name: prop.Name, Kind: mc.Invariant, Pred: prod.Safe}
	}

	// SimplePath makes k-induction complete on the finite product, so a
	// true eventuality proves outright instead of stalling at HoldsBounded.
	res, err := run.engine(ctx, query, e, opts, prod != nil)
	if err != nil {
		return nil, err
	}

	if prod != nil {
		res.Property = prop
		if res.Verdict == mc.Violated {
			states, loopsTo, err := prod.ProjectLasso(res.Trace.States)
			if err != nil {
				return nil, err
			}
			res.Trace = &mc.Trace{States: states, LoopsTo: loopsTo}
		}
	}
	if t.o != nil {
		if err := FinishOpt(res, t.o, opts.Obs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// engine is the one engine switch. An eventuality reaches it only on the
// symbolic, explicit and BMC engines; Source.Check has already reduced it
// to an invariant for the other two. A CTL formula runs only on the
// symbolic and explicit engines, the two with CTL evaluators.
func (t *target) engine(ctx context.Context, prop mc.Property, e Engine, opts Options, simplePath bool) (*mc.Result, error) {
	if prop.Kind == mc.CTL && e != EngineSymbolic && e != EngineExplicit {
		return nil, fmt.Errorf("core: engine %v has no CTL evaluator", e)
	}
	switch e {
	case EngineSymbolic:
		eng, err := t.symbolic(opts.Symbolic)
		if err != nil {
			return nil, err
		}
		switch prop.Kind {
		case mc.CTL:
			return eng.CheckCTLCtx(ctx, prop.Name, prop.CTL)
		case mc.Eventually:
			return eng.CheckEventuallyCtx(ctx, prop)
		}
		return eng.CheckInvariantCtx(ctx, prop)
	case EngineExplicit:
		switch prop.Kind {
		case mc.CTL:
			return explicit.CheckCTLCtx(ctx, t.sys, prop.Name, prop.CTL, opts.Explicit)
		case mc.Eventually:
			return explicit.CheckEventuallyCtx(ctx, t.sys, prop, opts.Explicit)
		}
		return explicit.CheckInvariantCtx(ctx, t.sys, prop, opts.Explicit)
	case EngineBMC:
		bo := bmc.Options{MaxDepth: opts.BMCDepth, Obs: opts.Obs}
		if prop.Kind == mc.Eventually {
			return bmc.CheckEventuallyRefuteCtx(ctx, t.compiled(), prop, bo)
		}
		return bmc.CheckInvariantCtx(ctx, t.compiled(), prop, bo)
	case EngineInduction:
		return bmc.CheckInvariantInductionCtx(ctx, t.compiled(), prop,
			bmc.InductionOptions{MaxK: opts.BMCDepth, SimplePath: simplePath, Obs: opts.Obs})
	case EngineIC3:
		return ic3.CheckInvariantCtx(ctx, t.compiled(), prop, opts.IC3)
	default:
		return nil, fmt.Errorf("core: unknown engine %v", e)
	}
}
