package gcl

import (
	"errors"
	"fmt"
	"strings"
)

// System is a synchronous composition of modules. Build a system with
// NewSystem, declare modules, variables, and commands, then call Finalize
// before handing it to an analysis engine.
type System struct {
	Name string

	modules   []*Module
	vars      []*Var // global declaration order; IDs assigned at Finalize
	stateVars []*Var
	finalized bool
	order     []*Module // module evaluation order (topological)
}

// NewSystem returns an empty system.
func NewSystem(name string) *System {
	return &System{Name: name}
}

// Module declares a new module.
func (s *System) Module(name string) *Module {
	if s.finalized {
		panic("gcl: cannot add modules after Finalize")
	}
	m := &Module{Name: name, sys: s}
	s.modules = append(s.modules, m)
	return m
}

func (s *System) addVar(m *Module, name string, t *Type, k Kind, init Init) *Var {
	if s.finalized {
		panic("gcl: cannot add variables after Finalize")
	}
	for _, v := range init.values {
		if v < 0 || v >= t.Card {
			panic(fmt.Sprintf("gcl: initial value %d out of range for %s.%s", v, m.Name, name))
		}
	}
	v := &Var{Name: name, Type: t, Kind: k, Module: m, init: init.values, id: -1}
	m.vars = append(m.vars, v)
	s.vars = append(s.vars, v)
	return v
}

// Vars returns all variables in declaration order. Only valid after
// Finalize for ID purposes.
func (s *System) Vars() []*Var {
	out := make([]*Var, len(s.vars))
	copy(out, s.vars)
	return out
}

// StateVars returns the state variables in declaration order.
func (s *System) StateVars() []*Var {
	out := make([]*Var, len(s.stateVars))
	copy(out, s.stateVars)
	return out
}

// Modules returns the modules in declaration order.
func (s *System) Modules() []*Module {
	out := make([]*Module, len(s.modules))
	copy(out, s.modules)
	return out
}

// Finalize validates the system, assigns variable IDs, and computes the
// module evaluation order. It must be called exactly once, before analysis.
func (s *System) Finalize() error {
	if s.finalized {
		return errors.New("gcl: system already finalized")
	}
	// Assign IDs in declaration order.
	for i, v := range s.vars {
		v.id = i
		if v.Kind == KindState {
			s.stateVars = append(s.stateVars, v)
		}
	}

	for _, m := range s.modules {
		m.deps = make(map[*Module]bool)
		fallbacks := 0
		for _, c := range m.cmds {
			if c.Fallback {
				fallbacks++
			}
			if err := s.checkCommand(m, c); err != nil {
				return err
			}
		}
		if fallbacks > 1 {
			return fmt.Errorf("gcl: module %s has %d fallback commands (max 1)", m.Name, fallbacks)
		}
		if fallbacks == 1 {
			// Fallback enabledness must be decidable without choice values.
			for _, c := range m.cmds {
				if c.Fallback {
					continue
				}
				choiceInGuard := false
				c.Guard.vars(func(v *Var, _ bool) {
					if v.Kind == KindChoice {
						choiceInGuard = true
					}
				})
				if choiceInGuard {
					return fmt.Errorf("gcl: module %s has a fallback but command %s reads a choice variable in its guard", m.Name, c.Name)
				}
			}
		}
	}

	order, err := s.topoOrder()
	if err != nil {
		return err
	}
	s.order = order
	s.finalized = true
	return nil
}

// MustFinalize is Finalize that panics on error, for model constructors
// whose validity is established by tests.
func (s *System) MustFinalize() {
	if err := s.Finalize(); err != nil {
		panic(err)
	}
}

// Finalized reports whether Finalize has completed.
func (s *System) Finalized() bool { return s.finalized }

func (s *System) checkCommand(m *Module, c *Command) error {
	seen := make(map[*Var]bool, len(c.Updates))
	for _, u := range c.Updates {
		switch {
		case u.Var.Module != m:
			return fmt.Errorf("gcl: command %s.%s assigns foreign variable %s", m.Name, c.Name, u.Var)
		case u.Var.Kind != KindState:
			return fmt.Errorf("gcl: command %s.%s assigns non-state variable %s", m.Name, c.Name, u.Var)
		case seen[u.Var]:
			return fmt.Errorf("gcl: command %s.%s assigns %s twice", m.Name, c.Name, u.Var)
		}
		seen[u.Var] = true
	}

	var err error
	choiceSet := make(map[*Var]bool)
	inspect := func(v *Var, primed bool) {
		if v.Module == nil || v.Module.sys != s {
			err = fmt.Errorf("gcl: command %s.%s references variable %s from another system", m.Name, c.Name, v)
			return
		}
		if v.Kind == KindChoice {
			if v.Module != m {
				err = fmt.Errorf("gcl: command %s.%s reads choice variable %s of another module", m.Name, c.Name, v)
				return
			}
			if !choiceSet[v] {
				choiceSet[v] = true
				c.choiceVars = append(c.choiceVars, v)
			}
		}
		if primed {
			if v.Module == m {
				err = fmt.Errorf("gcl: command %s.%s reads own primed variable %s", m.Name, c.Name, v)
				return
			}
			m.deps[v.Module] = true
		}
	}
	c.Guard.vars(inspect)
	for _, u := range c.Updates {
		u.Expr.vars(inspect)
	}
	return err
}

func (s *System) topoOrder() ([]*Module, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	mark := make(map[*Module]int, len(s.modules))
	order := make([]*Module, 0, len(s.modules))
	var visit func(m *Module) error
	visit = func(m *Module) error {
		switch mark[m] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("gcl: cyclic primed-read dependency through module %s", m.Name)
		}
		mark[m] = visiting
		for _, d := range s.modules { // deterministic order
			if m.deps[d] {
				if err := visit(d); err != nil {
					return fmt.Errorf("%w (read by %s)", err, m.Name)
				}
			}
		}
		mark[m] = done
		order = append(order, m)
		return nil
	}
	for _, m := range s.modules {
		if err := visit(m); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// FormatState renders a concrete state for traces and diagnostics.
func (s *System) FormatState(st State) string {
	var b strings.Builder
	for _, v := range s.stateVars {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", v, v.Type.ValueName(int(st[v.id])))
	}
	return b.String()
}

// FormatDelta renders only the variables that differ between two states.
func (s *System) FormatDelta(prev, cur State) string {
	var b strings.Builder
	for _, v := range s.stateVars {
		if prev[v.id] == cur[v.id] {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", v, v.Type.ValueName(int(cur[v.id])))
	}
	if b.Len() == 0 {
		return "(stutter)"
	}
	return b.String()
}
