// Package gcl implements a small guarded-command modelling language — a
// "mini-SAL" — embedded in Go. Models are built from modules that own
// finite-domain state variables and step synchronously via guarded commands.
// A finished system can be analysed by three backends: concrete successor
// enumeration (package mc/explicit), a BDD-based symbolic engine
// (package mc/symbolic), and SAT-based bounded model checking
// (package mc/bmc). The latter two consume the boolean compilation produced
// by (*System).Compile.
package gcl

import (
	"fmt"
	"math/bits"
)

// Type is a finite domain of values 0..Card-1. Enumerated types carry value
// names for trace rendering.
type Type struct {
	Name  string
	Card  int
	names []string // optional; len == Card when present
}

// IntType returns a numeric domain 0..card-1.
func IntType(name string, card int) *Type {
	if card < 1 {
		panic("gcl: type cardinality must be >= 1")
	}
	return &Type{Name: name, Card: card}
}

// EnumType returns an enumerated domain whose values are the given names.
func EnumType(name string, values ...string) *Type {
	if len(values) == 0 {
		panic("gcl: enum needs at least one value")
	}
	return &Type{Name: name, Card: len(values), names: values}
}

// Bool is the boolean domain shared by all systems (0 = false, 1 = true).
var boolType = &Type{Name: "bool", Card: 2, names: []string{"false", "true"}}

// BoolType returns the shared boolean type.
func BoolType() *Type { return boolType }

// Bits returns the number of bits needed to encode the domain.
func (t *Type) Bits() int {
	if t.Card <= 1 {
		return 1
	}
	return bits.Len(uint(t.Card - 1))
}

// ValueName renders domain value v (the enum name when available).
func (t *Type) ValueName(v int) string {
	if v >= 0 && v < len(t.names) {
		return t.names[v]
	}
	return fmt.Sprintf("%d", v)
}

// ValueOf returns the domain value with the given enum name.
func (t *Type) ValueOf(name string) (int, bool) {
	for i, n := range t.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Kind distinguishes latched state variables from per-step nondeterministic
// choice inputs.
type Kind int

// Variable kinds.
const (
	KindState Kind = iota + 1
	KindChoice
)

// Var is a variable owned by a module. State variables persist between
// steps (with an implicit frame condition when a firing command does not
// assign them); choice variables take a fresh, unconstrained value from
// their domain on every step.
type Var struct {
	Name   string
	Type   *Type
	Kind   Kind
	Module *Module

	id   int // index into State vectors; assigned at Finalize
	init []int
}

// ID returns the variable's index in concrete state vectors. Only valid
// after the owning system has been finalized.
func (v *Var) ID() int { return v.id }

// InitValues returns the set of permitted initial values (nil means the
// full domain). Only meaningful for state variables.
func (v *Var) InitValues() []int {
	if v.init == nil {
		return nil
	}
	out := make([]int, len(v.init))
	copy(out, v.init)
	return out
}

// Init returns the variable's initial-value constraint, for declaring a
// copy of v in another system (the optimizer's and the l2s product's).
func (v *Var) Init() Init { return Init{values: v.InitValues()} }

func (v *Var) String() string {
	if v.Module != nil {
		return v.Module.Name + "." + v.Name
	}
	return v.Name
}

// Init describes the initial-value constraint of a state variable.
type Init struct {
	values []int // nil = full domain
}

// InitConst constrains a variable to start at exactly v.
func InitConst(v int) Init { return Init{values: []int{v}} }

// InitSet constrains a variable to start at one of the given values.
func InitSet(vs ...int) Init {
	out := make([]int, len(vs))
	copy(out, vs)
	return Init{values: out}
}

// InitAny lets a variable start anywhere in its domain.
func InitAny() Init { return Init{} }
