// Package mc defines engine-independent model-checking vocabulary shared by
// the explicit-state, symbolic (BDD), and bounded (SAT) engines: properties,
// verdicts, counterexample traces, and run statistics.
package mc

import (
	"fmt"
	"math/big"
	"strings"
	"time"

	"ttastartup/internal/gcl"
)

// PropertyKind distinguishes the property shapes the engines support: the
// two LTL shapes the paper's lemmas use, invariants G(p) and inevitability
// F(p) (on all paths, i.e. CTL AF p), and a general CTL formula.
type PropertyKind int

// Property kinds.
const (
	// Invariant is G(p): p holds in every reachable state.
	Invariant PropertyKind = iota + 1
	// Eventually is F(p) over all paths (AF p): every execution reaches p.
	Eventually
	// CTL is the formula Property.CTL, required of every initial state.
	// Only the symbolic and explicit engines evaluate it.
	CTL
)

func (k PropertyKind) String() string {
	switch k {
	case Invariant:
		return "G"
	case Eventually:
		return "F"
	case CTL:
		return "CTL"
	default:
		return fmt.Sprintf("PropertyKind(%d)", int(k))
	}
}

// Property is a named temporal property over a system's state variables:
// Pred for the G and F kinds, CTL for the CTL kind.
type Property struct {
	Name string
	Kind PropertyKind
	Pred gcl.Expr
	CTL  *CTLFormula
}

// String renders the property in LTL-ish notation.
func (p Property) String() string {
	if p.Kind == CTL {
		return fmt.Sprintf("%s: %s", p.Name, p.CTL)
	}
	return fmt.Sprintf("%s: %s(%s)", p.Name, p.Kind, p.Pred)
}

// Verdict is the outcome of a model-checking run.
type Verdict int

// Verdicts.
const (
	// Holds means the property was proved for the whole state space
	// explored by the engine (exhaustively for explicit/symbolic engines;
	// up to the depth bound for BMC, which reports HoldsBounded instead).
	Holds Verdict = iota + 1
	// Violated means a counterexample was found.
	Violated
	// HoldsBounded means no counterexample exists within the engine's
	// depth bound; the unbounded property remains open.
	HoldsBounded
)

func (v Verdict) String() string {
	switch v {
	case Holds:
		return "holds"
	case Violated:
		return "VIOLATED"
	case HoldsBounded:
		return "holds (bounded)"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Trace is a counterexample: a finite path from an initial state. For
// liveness violations, LoopsTo >= 0 gives the index the final state loops
// back to (a lasso); otherwise LoopsTo is -1.
type Trace struct {
	States  []gcl.State
	LoopsTo int
}

// NewTrace builds a finite (non-lasso) trace.
func NewTrace(states []gcl.State) *Trace {
	return &Trace{States: states, LoopsTo: -1}
}

// Len returns the number of states in the trace.
func (t *Trace) Len() int { return len(t.States) }

// Format renders the trace step by step, showing only changed variables
// after the first state.
func (t *Trace) Format(sys *gcl.System) string {
	var b strings.Builder
	for i, st := range t.States {
		if i == 0 {
			fmt.Fprintf(&b, "step %2d: %s\n", i, sys.FormatState(st))
			continue
		}
		fmt.Fprintf(&b, "step %2d: %s\n", i, sys.FormatDelta(t.States[i-1], st))
	}
	if t.LoopsTo >= 0 {
		fmt.Fprintf(&b, "  (loops back to step %d)\n", t.LoopsTo)
	}
	return b.String()
}

// Stats records measurements of a model-checking run, mirroring the columns
// the paper reports (cpu time, BDD variables) plus engine-specific counts.
type Stats struct {
	Engine     string
	Duration   time.Duration
	StateBits  int      // number of boolean state bits (the paper's "BDD" column counts cur+next)
	BDDVars    int      // total BDD variables (cur+next+choice), 0 for non-symbolic engines
	Reachable  *big.Int // reachable-state count when computed
	Visited    int      // explicit engine: states visited
	Iterations int      // symbolic engine: fixpoint iterations; BMC: depth reached; IC3: frames
	PeakNodes  int      // symbolic engine: peak live BDD nodes
	Reorders   int      // symbolic engine: BDD sifting passes run
	Conflicts  int      // SAT engines: CDCL conflicts

	// SAT-engine query accounting (BMC, k-induction, IC3), filled by
	// SATTap.FillStats so every engine reports through one code path.
	SATQueries   int     // incremental Solve calls issued
	Decisions    int     // CDCL decision levels opened
	Propagations int     // CDCL unit-propagation dequeues
	Restarts     int     // CDCL Luby restarts
	Obligations  int     // IC3: proof obligations discharged
	CoreShrink   float64 // IC3: mean fraction of cube literals kept by assumption cores

	// Static-optimizer accounting (internal/gcl/opt), filled by core.Suite
	// when the run checked an optimized system instead of the source model.
	OptVarsDropped int // state variables eliminated by the pipeline
	OptCmdsDropped int // commands eliminated by the pipeline
	OptBitsSaved   int // state-encoding bits removed per frame
}

// Result is the outcome of checking one property with one engine.
type Result struct {
	Property Property
	Verdict  Verdict
	Trace    *Trace // nil when the property holds
	Stats    Stats
}

// Holds reports whether the verdict is Holds or HoldsBounded.
func (r *Result) Holds() bool { return r.Verdict == Holds || r.Verdict == HoldsBounded }

// String renders a one-line summary.
func (r *Result) String() string {
	extra := ""
	if r.Trace != nil {
		extra = fmt.Sprintf(" (counterexample length %d)", r.Trace.Len())
	}
	return fmt.Sprintf("%s [%s] %s in %v%s",
		r.Property.Name, r.Stats.Engine, r.Verdict, r.Stats.Duration.Round(time.Millisecond), extra)
}
