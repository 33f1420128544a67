// Package opt is a verified static-optimization pipeline for finalized gcl
// systems, run before any model-checking engine sees the model. Three
// property-preserving passes — constant propagation with dead-command
// elimination, per-property cone-of-influence slicing, and interval-based
// range narrowing — iterate to a fixpoint over an internal IR and then
// materialize a fresh, smaller finalized system together with the rewritten
// property predicates and an inflation map that lifts counterexample traces
// of the optimized system back to the source system.
package opt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ttastartup/internal/gcl"
)

// Options configures a pipeline run.
type Options struct {
	// Preds are the property predicates the optimized system must preserve
	// (every state predicate of the lemma or CTL formula under check). The
	// cone of influence is the union over all of them. An empty list means
	// no observation: slicing may then drop everything non-blocking, so
	// callers checking real properties must pass their predicates.
	Preds []gcl.Expr
	// NoConst, NoSlice, NoNarrow disable individual passes (ablation and
	// differential testing).
	NoConst, NoSlice, NoNarrow bool
}

// Report records what the pipeline did, in both aggregate and per-item
// form. All counts refer to state variables and commands.
type Report struct {
	VarsBefore int `json:"vars_before"`
	VarsAfter  int `json:"vars_after"`
	CmdsBefore int `json:"cmds_before"`
	CmdsAfter  int `json:"cmds_after"`
	BitsBefore int `json:"bits_before"`
	BitsAfter  int `json:"bits_after"`
	ModsBefore int `json:"mods_before"`
	ModsAfter  int `json:"mods_after"`
	Iterations int `json:"iterations"`

	ConstVars   []string `json:"const_vars,omitempty"`
	DeadCmds    []string `json:"dead_cmds,omitempty"`
	DroppedMods []string `json:"dropped_mods,omitempty"`
	Narrowed    []string `json:"narrowed,omitempty"`
}

// VarsDropped returns the number of eliminated state variables.
func (r Report) VarsDropped() int { return r.VarsBefore - r.VarsAfter }

// CmdsDropped returns the number of eliminated commands.
func (r Report) CmdsDropped() int { return r.CmdsBefore - r.CmdsAfter }

// BitsSaved returns the state-encoding bits removed (BDD variables per
// frame; CNF bits per unrolling frame).
func (r Report) BitsSaved() int { return r.BitsBefore - r.BitsAfter }

// Summary renders a one-line digest of the reductions.
func (r Report) Summary() string {
	return fmt.Sprintf("vars %d→%d cmds %d→%d bits %d→%d mods %d→%d",
		r.VarsBefore, r.VarsAfter, r.CmdsBefore, r.CmdsAfter,
		r.BitsBefore, r.BitsAfter, r.ModsBefore, r.ModsAfter)
}

// Optimized is the result of a pipeline run: the materialized system, the
// property predicates rewritten over its variables, the report, and the
// bookkeeping needed to inflate counterexample traces back to the source
// system.
type Optimized struct {
	Sys    *gcl.System
	Preds  []gcl.Expr
	Report Report

	src       *gcl.System
	newOf     map[*gcl.Var]*gcl.Var // source var → optimized var (kept only)
	keptState []*gcl.Var            // kept source state vars, declaration order
}

// Src returns the source system the pipeline ran on.
func (o *Optimized) Src() *gcl.System { return o.src }

// Optimize runs the pass pipeline on a finalized system. The source system
// is never mutated. Passes iterate — constant propagation can expose new
// slicing opportunities and vice versa — until a fixpoint (bounded by a
// small constant; each pass only ever shrinks the IR).
func Optimize(sys *gcl.System, opts Options) (*Optimized, error) {
	if !sys.Finalized() {
		return nil, fmt.Errorf("opt: system %s is not finalized", sys.Name)
	}
	w := newWork(sys, opts.Preds)

	var rep Report
	rep.VarsBefore = len(sys.StateVars())
	rep.ModsBefore = len(sys.Modules())
	for _, m := range sys.Modules() {
		rep.CmdsBefore += len(m.Commands())
	}
	rep.BitsBefore = stateBits(sys)

	for iter := 0; iter < 8; iter++ {
		changed := false
		if !opts.NoConst && w.constProp() {
			changed = true
		}
		if !opts.NoSlice && w.slice() {
			changed = true
		}
		rep.Iterations = iter + 1
		if !changed {
			break
		}
	}
	var newCard map[*gcl.Var]int
	if !opts.NoNarrow {
		_, newCard, rep.Narrowed = w.narrow()
	}

	o, err := materialize(w, newCard)
	if err != nil {
		return nil, err
	}

	rep.ConstVars = w.constVars
	sort.Strings(w.deadCmds)
	rep.DeadCmds = w.deadCmds
	for _, wm := range w.mods {
		if !wm.kept {
			rep.DroppedMods = append(rep.DroppedMods, wm.src.Name)
		}
	}
	sort.Strings(rep.DroppedMods)
	rep.VarsAfter = len(o.Sys.StateVars())
	rep.ModsAfter = len(o.Sys.Modules())
	for _, m := range o.Sys.Modules() {
		rep.CmdsAfter += len(m.Commands())
	}
	rep.BitsAfter = stateBits(o.Sys)
	o.Report = rep
	return o, nil
}

// stateBits sums the encoding widths of the system's state variables —
// the per-frame BDD variable count and per-frame CNF bit count.
func stateBits(sys *gcl.System) int {
	n := 0
	for _, v := range sys.StateVars() {
		n += v.Type.Bits()
	}
	return n
}

// materialize builds a fresh finalized gcl.System from the work IR,
// transplanting expressions onto the new variables and applying the
// narrowed types.
func materialize(w *work, newCard map[*gcl.Var]int) (*Optimized, error) {
	o := &Optimized{src: w.src, newOf: map[*gcl.Var]*gcl.Var{}}
	ns := gcl.NewSystem(w.src.Name + "+opt")

	// Choice variables are kept iff some surviving command of their module
	// still reads them.
	usedChoice := map[*gcl.Var]bool{}
	markChoice := func(e gcl.Expr) {
		gcl.VisitVars(e, func(v *gcl.Var, _ bool) {
			if v.Kind == gcl.KindChoice {
				usedChoice[v] = true
			}
		})
	}
	for _, wm := range w.mods {
		if !wm.kept {
			continue
		}
		for _, c := range wm.cmds {
			markChoice(c.guard)
			for _, u := range c.updates {
				markChoice(u.Expr)
			}
		}
	}

	var newMods []*gcl.Module
	var keptWork []*workMod
	for _, wm := range w.mods {
		if !wm.kept {
			continue
		}
		nm := ns.Module(wm.src.Name)
		newMods = append(newMods, nm)
		keptWork = append(keptWork, wm)
		for _, v := range wm.src.Vars() {
			switch {
			case v.Kind == gcl.KindChoice:
				if usedChoice[v] {
					o.newOf[v] = nm.Choice(v.Name, v.Type)
				}
			case w.keptStateVar(v):
				t := v.Type
				if c, ok := newCard[v]; ok {
					t = narrowedType(t, c)
				}
				o.newOf[v] = nm.Var(v.Name, t, initOf(v))
				o.keptState = append(o.keptState, v)
			}
		}
	}

	transplant := func(e gcl.Expr) gcl.Expr {
		return rewrite(e, func(v *gcl.Var, primed bool) gcl.Expr {
			nv := o.newOf[v]
			if nv == nil {
				panic(fmt.Sprintf("opt: transplant reads dropped variable %s", v.Name))
			}
			if primed {
				return gcl.XN(nv)
			}
			return gcl.X(nv)
		})
	}

	for i, wm := range keptWork {
		nm := newMods[i]
		for _, c := range wm.cmds {
			ups := make([]gcl.Update, 0, len(c.updates))
			for _, u := range c.updates {
				ups = append(ups, gcl.Set(o.newOf[u.Var], transplant(u.Expr)))
			}
			if c.fallback {
				nm.Fallback(c.src.Name, ups...)
			} else {
				nm.Cmd(c.src.Name, transplant(c.guard), ups...)
			}
		}
	}

	if err := ns.Finalize(); err != nil {
		return nil, fmt.Errorf("opt: materialized system rejected: %w", err)
	}
	o.Sys = ns
	o.Preds = make([]gcl.Expr, len(w.preds))
	for i, p := range w.preds {
		o.Preds[i] = transplant(p)
	}
	return o, nil
}

// initOf rebuilds a variable's init declaration. Narrowing keeps every
// init value (the interval fixpoint starts from the init hull), so the
// values always fit the narrowed type.
func initOf(v *gcl.Var) gcl.Init {
	vals := v.InitValues()
	if vals == nil {
		return gcl.InitAny()
	}
	return gcl.InitSet(vals...)
}

// narrowedType rebuilds a type at a smaller cardinality, preserving value
// names so traces and witnesses of the optimized system render like the
// source system's.
func narrowedType(t *gcl.Type, card int) *gcl.Type {
	names := make([]string, card)
	enum := false
	for i := range card {
		names[i] = t.ValueName(i)
		if names[i] != strconv.Itoa(i) {
			enum = true
		}
	}
	name := fmt.Sprintf("%s[<%d]", t.Name, card)
	if enum {
		return gcl.EnumType(name, names...)
	}
	return gcl.IntType(name, card)
}

// KeptVars returns "module.variable" for every source state variable that
// survived the pipeline, sorted. Used by golden slice tests and the GCL011
// check.
func (o *Optimized) KeptVars() []string {
	out := make([]string, 0, len(o.keptState))
	for _, v := range o.keptState {
		out = append(out, v.Module.Name+"."+v.Name)
	}
	sort.Strings(out)
	return out
}

// KeptCommands returns "module.command" for every surviving command,
// sorted. Used by golden slice tests.
func (o *Optimized) KeptCommands() []string {
	var out []string
	for _, m := range o.Sys.Modules() {
		for _, c := range m.Commands() {
			out = append(out, m.Name+"."+c.Name)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the report digest.
func (o *Optimized) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", o.Sys.Name, o.Report.Summary())
	return b.String()
}
