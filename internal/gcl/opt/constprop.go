package opt

import (
	"fmt"
	"sort"

	"ttastartup/internal/gcl"
)

// work is the mutable pass IR: the source system's modules and commands
// with rewritable guards and update lists, still expressed over the
// source system's variables. Passes edit the IR; materialize (opt.go)
// turns the final IR into a fresh finalized gcl.System.
type work struct {
	src   *gcl.System
	preds []gcl.Expr

	mods []*workMod

	// pinned maps state variables proven constant to their value.
	pinned map[*gcl.Var]int
	// cone holds the kept state variables after slicing (nil: no slicing
	// ran yet; every non-pinned state variable is implicitly kept).
	cone map[*gcl.Var]bool

	constVars []string
	deadCmds  []string
}

type workMod struct {
	src  *gcl.Module
	cmds []*workCmd
	// kept is cleared by slicing for modules outside every cone whose
	// removal provably cannot block (see nonBlocking).
	kept bool
	// nonBlocking records that the module always has an enabled command
	// (a fallback, or normal guards whose disjunction folds to true), so
	// dropping it cannot introduce or remove deadlocks.
	nonBlocking bool
}

type workCmd struct {
	src      *gcl.Command
	guard    gcl.Expr
	updates  []gcl.Update
	fallback bool
}

func newWork(sys *gcl.System, preds []gcl.Expr) *work {
	w := &work{src: sys, preds: append([]gcl.Expr(nil), preds...), pinned: map[*gcl.Var]int{}}
	for _, m := range sys.Modules() {
		wm := &workMod{src: m, kept: true}
		var guards []gcl.Expr
		for _, c := range m.Commands() {
			wm.cmds = append(wm.cmds, &workCmd{
				src:      c,
				guard:    c.Guard,
				updates:  append([]gcl.Update(nil), c.Updates...),
				fallback: c.Fallback,
			})
			if c.Fallback {
				wm.nonBlocking = true
			} else {
				guards = append(guards, c.Guard)
			}
		}
		if !wm.nonBlocking && isTrue(fold(gcl.Or(guards...))) {
			wm.nonBlocking = true
		}
		w.mods = append(w.mods, wm)
	}
	return w
}

// substPinned replaces every read (current or primed) of a pinned state
// variable by its constant value, then constant-folds.
func (w *work) substPinned(e gcl.Expr) gcl.Expr {
	if len(w.pinned) == 0 {
		return fold(e)
	}
	return fold(gcl.Rewrite(e, func(v *gcl.Var, _ bool) gcl.Expr {
		if val, ok := w.pinned[v]; ok {
			return gcl.C(v.Type, val)
		}
		return nil
	}))
}

// constProp pins state variables that provably hold a single value in
// every reachable state, substitutes them away, and deletes commands whose
// guards become constant false. Reports whether the IR changed.
//
// The fixpoint is optimistic: every variable with a singleton init set
// starts pinned; a variable is unpinned as soon as some command that is
// not provably disabled under the current pins can assign it a value other
// than its pin. Fallback commands fire exactly when no normal command of
// their module is enabled, which the analysis cannot rule out from the
// fallback alone, so their updates are treated like any other — unless
// the disjunction of the module's normal guards folds to true under the
// pins, in which case the fallback is dead.
func (w *work) constProp() bool {
	for _, v := range w.src.StateVars() {
		if init := v.InitValues(); len(init) == 1 {
			if _, already := w.pinned[v]; !already {
				w.pinned[v] = init[0]
			}
		}
	}
	for {
		changed := false
		for _, wm := range w.mods {
			if !wm.kept {
				continue
			}
			for _, c := range wm.cmds {
				if c.fallback {
					if wm.fallbackDead(w) {
						continue
					}
				} else if isFalse(w.substPinned(c.guard)) {
					continue
				}
				for _, u := range c.updates {
					want, ok := w.pinned[u.Var]
					if !ok {
						continue
					}
					rhs := w.substPinned(u.Expr)
					if v, isConst := constOf(rhs); !isConst || v != want {
						delete(w.pinned, u.Var)
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	if len(w.pinned) == 0 {
		return false
	}

	// Apply: substitute pins everywhere, drop updates to pinned variables
	// (the fixpoint guarantees surviving commands re-assign the pin, and
	// the frame semantics preserve it once the update is gone), and delete
	// commands whose guards folded to false. Deleting a normal command is
	// sound with or without a fallback: a false guard contributes nothing
	// to the fallback's ¬(∨ guards) firing condition.
	mutated := false
	for _, wm := range w.mods {
		if !wm.kept {
			continue
		}
		kept := wm.cmds[:0]
		for _, c := range wm.cmds {
			if !c.fallback {
				g := w.substPinned(c.guard)
				if !exprEqual(g, c.guard) {
					c.guard = g
					mutated = true
				}
				if isFalse(g) {
					w.deadCmds = append(w.deadCmds, wm.src.Name+"."+c.src.Name)
					mutated = true
					continue
				}
			}
			ups := c.updates[:0]
			for _, u := range c.updates {
				if _, pin := w.pinned[u.Var]; pin {
					mutated = true
					continue
				}
				rhs := w.substPinned(u.Expr)
				if !exprEqual(rhs, u.Expr) {
					mutated = true
				}
				ups = append(ups, gcl.Set(u.Var, rhs))
			}
			c.updates = ups
			kept = append(kept, c)
		}
		wm.cmds = kept
		// A module stripped of commands can no longer block or act; its
		// pinned variables live on as constants in the substituted
		// expressions. Recompute nonBlocking for slicing.
		wm.recomputeNonBlocking()
	}
	for i, p := range w.preds {
		np := w.substPinned(p)
		if !exprEqual(np, p) {
			w.preds[i] = np
			mutated = true
		}
	}

	names := make([]string, 0, len(w.pinned))
	for v, val := range w.pinned {
		names = append(names, fmt.Sprintf("%s=%s", v.Name, v.Type.ValueName(val)))
	}
	sort.Strings(names)
	w.constVars = names
	return mutated
}

// fallbackDead reports whether the module's fallback can never fire under
// the current pins: some normal guard is always true.
func (wm *workMod) fallbackDead(w *work) bool {
	var guards []gcl.Expr
	for _, c := range wm.cmds {
		if !c.fallback {
			guards = append(guards, c.guard)
		}
	}
	return isTrue(w.substPinned(gcl.Or(guards...)))
}

func (wm *workMod) recomputeNonBlocking() {
	wm.nonBlocking = false
	var guards []gcl.Expr
	for _, c := range wm.cmds {
		if c.fallback {
			wm.nonBlocking = true
			return
		}
		guards = append(guards, c.guard)
	}
	if isTrue(fold(gcl.Or(guards...))) {
		wm.nonBlocking = true
	}
}

// exprEqual is a cheap structural equality used only to detect whether a
// rewrite changed anything (for fixpoint bookkeeping); false negatives
// merely cost an extra pipeline iteration.
func exprEqual(a, b gcl.Expr) bool {
	if gcl.Op(a) != gcl.Op(b) {
		return false
	}
	switch gcl.Op(a) {
	case gcl.OpConst:
		av, _ := constOf(a)
		bv, _ := constOf(b)
		return av == bv && a.Type().Card == b.Type().Card
	case gcl.OpVar:
		va, pa, _ := gcl.VarRef(a)
		vb, pb, _ := gcl.VarRef(b)
		return va == vb && pa == pb
	case gcl.OpCmp:
		ka, _ := gcl.CmpOf(a)
		kb, _ := gcl.CmpOf(b)
		if ka != kb {
			return false
		}
	case gcl.OpAdd:
		ka, ma, _ := gcl.AddOf(a)
		kb, mb, _ := gcl.AddOf(b)
		if ka != kb || ma != mb {
			return false
		}
	}
	oa, ob := gcl.Operands(a), gcl.Operands(b)
	if len(oa) != len(ob) {
		return false
	}
	for i := range oa {
		if !exprEqual(oa[i], ob[i]) {
			return false
		}
	}
	return true
}
