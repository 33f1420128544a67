// Package lint is a semantic static analyzer for finalized gcl systems. It
// goes beyond Finalize's shallow shape checks with two families of analyses:
//
//   - BDD-exact checks, which compile guards and update expressions through
//     the system's boolean compilation and decide satisfiability precisely
//     over the in-domain valuations of state, primed, and choice variables:
//     unreachable commands (GCL001), stuck modules (GCL002), conflicting
//     nondeterministic writes (GCL003), out-of-range updates (GCL008), and
//     dead fallbacks (GCL010).
//
//   - Cheap structural analyses: dead-variable classification by a
//     support-set walk over every guard and update (GCL004-GCL007), and
//     the optimizer's interval abstract interpretation (opt.Bounds), which
//     folds comparisons whose operand ranges cannot overlap (GCL009) and
//     pre-filters the out-of-range check.
//
// Diagnostics carry stable codes, a severity, their model location, and —
// for the BDD-backed checks — a concrete witness valuation, and are emitted
// in deterministic order.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ttastartup/internal/bdd"
	"ttastartup/internal/gcl"
	"ttastartup/internal/gcl/opt"
)

// Severity ranks a diagnostic.
type Severity int

// Severities, in increasing order.
const (
	Info Severity = iota + 1
	Warning
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Code identifies a diagnostic kind. Codes are stable across releases.
type Code string

// Diagnostic codes.
const (
	// CodeUnreachableCommand: a command's guard is unsatisfiable over the
	// variable domains, so the command can never fire. BDD-exact.
	CodeUnreachableCommand Code = "GCL001"
	// CodeStuckModule: a module without a fallback has an in-domain state
	// valuation under which no command is enabled for any choice value, so
	// the whole synchronous system deadlocks there if that valuation is
	// reachable. BDD-exact, with witness.
	CodeStuckModule Code = "GCL002"
	// CodeConflictingWrites: two commands of one module can be enabled
	// simultaneously while assigning different values to the same variable
	// (the synchronous-composition analogue of a write-write race).
	// BDD-exact, with witness.
	CodeConflictingWrites Code = "GCL003"
	// CodeWriteOnlyVar: a state variable is written but never read by any
	// model expression. (Properties may still read it.)
	CodeWriteOnlyVar Code = "GCL004"
	// CodeNeverWrittenVar: a state variable is read but never assigned, so
	// it keeps its initial value forever.
	CodeNeverWrittenVar Code = "GCL005"
	// CodeUnusedVar: a state variable is neither read nor written.
	CodeUnusedVar Code = "GCL006"
	// CodeUnreadChoice: a choice variable is never read by its module.
	CodeUnreadChoice Code = "GCL007"
	// CodeRangeOverflow: an update can assign a value outside the target
	// variable's domain (a runtime panic in the explicit engine, a silently
	// unfirable transition in the symbolic one). Interval-filtered, then
	// BDD-confirmed.
	CodeRangeOverflow Code = "GCL008"
	// CodeConstantComparison: a comparison folds to a constant because its
	// operand intervals cannot overlap (or always coincide).
	CodeConstantComparison Code = "GCL009"
	// CodeDeadFallback: a module's normal guards form a tautology, so its
	// fallback can never fire.
	CodeDeadFallback Code = "GCL010"
	// CodeOutsideCones: a state variable lies outside the cone of influence
	// of every supplied property predicate, so no checked lemma can ever
	// observe it (the optimizer's slicing pass would drop it).
	CodeOutsideCones Code = "GCL011"
	// CodeDeadAfterConstProp: a command's guard folds to false once
	// constant propagation pins the variables that are provably frozen at
	// their initial values — unreachable for a reason GCL001's per-state
	// check cannot see.
	CodeDeadAfterConstProp Code = "GCL012"
)

// Diag is one diagnostic.
type Diag struct {
	Code     Code     `json:"code"`
	Severity Severity `json:"severity"`
	Module   string   `json:"module"`
	Command  string   `json:"command,omitempty"`
	Var      string   `json:"var,omitempty"`
	Message  string   `json:"message"`
	// Witness is a satisfying valuation (restricted to the relevant
	// variables; primed reads carry a ' suffix) for BDD-backed findings.
	Witness string `json:"witness,omitempty"`

	mod, cmd, vr int // deterministic ordering keys
}

// String renders the diagnostic on one line (without the witness).
func (d Diag) String() string {
	loc := d.Module
	if d.Command != "" {
		loc += "." + d.Command
	}
	if d.Var != "" {
		loc += " [" + d.Var + "]"
	}
	return fmt.Sprintf("%s %s %s: %s", d.Code, d.Severity, loc, d.Message)
}

// Report is the outcome of linting one system.
type Report struct {
	System      string `json:"system"`
	Diagnostics []Diag `json:"diagnostics"`
}

// Count returns the number of diagnostics at exactly the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// Errors returns the error-level diagnostics.
func (r *Report) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// Max returns the highest severity present, or 0 when the report is clean.
func (r *Report) Max() Severity {
	var max Severity
	for _, d := range r.Diagnostics {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}

// Summary renders a one-line count, e.g. "2 errors, 1 warning".
func (r *Report) Summary() string {
	if len(r.Diagnostics) == 0 {
		return "clean"
	}
	var parts []string
	add := func(n int, name string) {
		if n == 0 {
			return
		}
		if n > 1 {
			name += "s"
		}
		parts = append(parts, fmt.Sprintf("%d %s", n, name))
	}
	add(r.Count(Error), "error")
	add(r.Count(Warning), "warning")
	add(r.Count(Info), "info")
	return strings.Join(parts, ", ")
}

// Format writes the human-readable report.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", r.System, r.Summary())
	for _, d := range r.Diagnostics {
		fmt.Fprintf(w, "  %s\n", d)
		if d.Witness != "" {
			fmt.Fprintf(w, "      witness: %s\n", d.Witness)
		}
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Options tunes a lint run.
type Options struct {
	// BDD configures the node manager used by the exact checks.
	BDD bdd.Config
	// Disable suppresses the listed diagnostic codes.
	Disable []Code
	// Preds are the property predicates of the lemmas the caller intends
	// to check; GCL011 reports state variables outside the union of their
	// cones of influence. Empty disables that check (without predicates
	// every variable would be "outside").
	Preds []gcl.Expr
	// Compiled, when non-nil, is a pre-built boolean compilation of the
	// system to share with the BDD-backed checks (callers like ttamc have
	// already compiled the model for their engines). Nil: compile here.
	Compiled *gcl.Compiled
}

// Run lints a finalized system. The only error conditions are an
// unfinalized system and exhaustion of the BDD node limit; diagnostics about
// the model itself are reported, not returned as errors.
func Run(sys *gcl.System, opts Options) (*Report, error) {
	if !sys.Finalized() {
		return nil, fmt.Errorf("lint: system %q is not finalized", sys.Name)
	}
	c, err := newChecker(sys, opts.Compiled, opts.BDD)
	if err != nil {
		return nil, err
	}
	var diags []Diag
	collect := func(ds []Diag, err error) error {
		diags = append(diags, ds...)
		return err
	}
	if err := collect(c.checkCommands()); err != nil {
		return nil, err
	}
	if err := collect(c.checkModules()); err != nil {
		return nil, err
	}
	diags = append(diags, deadVarDiags(sys)...)
	diags = append(diags, constCmpDiags(sys)...)
	if len(opts.Preds) > 0 {
		diags = append(diags, coneDiags(sys, opts.Preds)...)
	}
	diags = append(diags, deadConstDiags(sys)...)

	disabled := make(map[Code]bool, len(opts.Disable))
	for _, code := range opts.Disable {
		disabled[code] = true
	}
	kept := diags[:0]
	for _, d := range diags {
		if !disabled[d.Code] {
			kept = append(kept, d)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.mod != b.mod {
			return a.mod < b.mod
		}
		if a.cmd != b.cmd {
			return a.cmd < b.cmd
		}
		if a.vr != b.vr {
			return a.vr < b.vr
		}
		return a.Code < b.Code
	})
	return &Report{System: sys.Name, Diagnostics: kept}, nil
}

// cmdNone orders variable-level diagnostics after all command-level ones.
const cmdNone = 1 << 30

// deadVarDiags classifies every variable by a support-set walk over all
// guards and updates: GCL004 write-only, GCL005 never-written, GCL006
// unused, GCL007 unread choice.
func deadVarDiags(sys *gcl.System) []Diag {
	read := make(map[*gcl.Var]bool)
	written := make(map[*gcl.Var]bool)
	note := func(e gcl.Expr) {
		gcl.VisitVars(e, func(v *gcl.Var, primed bool) { read[v] = true })
	}
	for _, m := range sys.Modules() {
		for _, cmd := range m.Commands() {
			note(cmd.Guard)
			for _, u := range cmd.Updates {
				written[u.Var] = true
				note(u.Expr)
			}
		}
	}

	var diags []Diag
	for mi, m := range sys.Modules() {
		for _, v := range m.Vars() {
			d := Diag{Module: m.Name, Var: v.Name, mod: mi, cmd: cmdNone, vr: v.ID()}
			switch {
			case v.Kind == gcl.KindChoice:
				if !read[v] {
					d.Code, d.Severity = CodeUnreadChoice, Warning
					d.Message = fmt.Sprintf("choice variable %s is never read", v)
					diags = append(diags, d)
				}
			case !read[v] && !written[v]:
				d.Code, d.Severity = CodeUnusedVar, Warning
				d.Message = fmt.Sprintf("state variable %s is neither read nor written", v)
				diags = append(diags, d)
			case !read[v]:
				d.Code, d.Severity = CodeWriteOnlyVar, Info
				d.Message = fmt.Sprintf("state variable %s is written but never read by the model (properties may still read it)", v)
				diags = append(diags, d)
			case !written[v]:
				d.Code, d.Severity = CodeNeverWrittenVar, Info
				if init := v.InitValues(); len(init) != 1 {
					// Frozen at a nondeterministic initial value: legal as a
					// symbolic parameter, but worth flagging louder.
					d.Severity = Warning
					d.Message = fmt.Sprintf("state variable %s is never assigned and stays frozen at its nondeterministic initial value", v)
				} else {
					d.Message = fmt.Sprintf("state variable %s is never assigned; it is the constant %s", v, v.Type.ValueName(v.InitValues()[0]))
				}
				diags = append(diags, d)
			}
		}
	}
	return diags
}

// constCmpDiags walks every guard and update expression and reports
// comparisons whose operand intervals force a constant outcome (GCL009).
func constCmpDiags(sys *gcl.System) []Diag {
	var diags []Diag
	for mi, m := range sys.Modules() {
		for ci, cmd := range m.Commands() {
			seen := make(map[string]bool)
			report := func(e gcl.Expr, val bool) {
				key := e.String()
				if seen[key] {
					return
				}
				seen[key] = true
				diags = append(diags, Diag{
					Code:     CodeConstantComparison,
					Severity: Info,
					Module:   m.Name,
					Command:  cmd.Name,
					Message:  fmt.Sprintf("comparison %s is always %v (operand ranges cannot yield the other outcome)", key, val),
					mod:      mi, cmd: ci, vr: -1,
				})
			}
			visitConstCmps(cmd.Guard, report)
			for _, u := range cmd.Updates {
				visitConstCmps(u.Expr, report)
			}
		}
	}
	return diags
}

func visitConstCmps(e gcl.Expr, report func(gcl.Expr, bool)) {
	if gcl.Op(e) == gcl.OpCmp {
		if lo, hi := opt.Bounds(e); lo == hi {
			report(e, lo != 0)
			return // operands of a folded comparison are not worth repeating
		}
	}
	for _, sub := range gcl.Operands(e) {
		visitConstCmps(sub, report)
	}
}
