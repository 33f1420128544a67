// Package core is the top-level verification API of the reproduction: it
// binds the TTA startup model to the model-checking engines through one
// pipeline (Check) and exposes the paper's experiments — checking the
// four lemmas (Section 4), and with them every lemma of a configuration
// at a chosen fault degree, the exhaustive fault simulation of Section
// 5.4; and worst-case-startup-time exploration (Section 5.3).
package core

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/bmc"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/ic3"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/obs"
	"ttastartup/internal/tta/startup"
)

// Lemma identifies one of the paper's correctness properties.
type Lemma int

// The paper's lemmas plus the model-sanity properties used "to gain
// confidence in the model".
const (
	// LemmaSafety is Lemma 1: active correct nodes agree on the slot time.
	LemmaSafety Lemma = iota + 1
	// LemmaLiveness is Lemma 2: all correct nodes eventually reach ACTIVE.
	LemmaLiveness
	// LemmaTimeliness is Lemma 3: ACTIVE is reached within a bounded time.
	LemmaTimeliness
	// LemmaSafety2 is Lemma 4: agreement plus timely synchronisation of
	// the correct guardian, checked against a faulty hub.
	LemmaSafety2
	// LemmaNoError: the diagnostic fallback commands never fire.
	LemmaNoError
	// LemmaLocksOnlyFaulty: correct guardians never lock correct nodes.
	LemmaLocksOnlyFaulty
	// LemmaHubsAgree: two active correct guardians agree on the schedule.
	LemmaHubsAgree
	// LemmaNodeHubAgree: active nodes and guardians agree on the schedule.
	LemmaNodeHubAgree
	// LemmaRecovery is the CTL stabilisation property AG(AF all-active) of
	// the Section 2.1 restart problem, evaluated by the symbolic and
	// explicit engines only.
	LemmaRecovery
)

func (l Lemma) String() string {
	switch l {
	case LemmaSafety:
		return "safety"
	case LemmaLiveness:
		return "liveness"
	case LemmaTimeliness:
		return "timeliness"
	case LemmaSafety2:
		return "safety_2"
	case LemmaNoError:
		return "no-error"
	case LemmaLocksOnlyFaulty:
		return "locks-only-faulty"
	case LemmaHubsAgree:
		return "hubs-agree"
	case LemmaNodeHubAgree:
		return "node-hub-agree"
	case LemmaRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("Lemma(%d)", int(l))
	}
}

// AllLemmas lists the four paper lemmas in order.
func AllLemmas() []Lemma {
	return []Lemma{LemmaSafety, LemmaLiveness, LemmaTimeliness, LemmaSafety2}
}

// ParseLemmas resolves a comma-separated lemma list ("safety,liveness",
// "sanity" expands to the model-confidence set, "all" to the four paper
// lemmas).
func ParseLemmas(spec string) ([]Lemma, error) {
	var out []Lemma
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "safety":
			out = append(out, LemmaSafety)
		case "liveness":
			out = append(out, LemmaLiveness)
		case "timeliness":
			out = append(out, LemmaTimeliness)
		case "safety_2", "safety2":
			out = append(out, LemmaSafety2)
		case "no-error":
			out = append(out, LemmaNoError)
		case "locks-only-faulty":
			out = append(out, LemmaLocksOnlyFaulty)
		case "hubs-agree":
			out = append(out, LemmaHubsAgree)
		case "node-hub-agree":
			out = append(out, LemmaNodeHubAgree)
		case "recovery":
			out = append(out, LemmaRecovery)
		case "all":
			out = append(out, AllLemmas()...)
		case "sanity":
			out = append(out, SanityLemmas()...)
		case "":
		default:
			return nil, fmt.Errorf("core: unknown lemma %q", name)
		}
	}
	return out, nil
}

// SanityLemmas lists the additional model-confidence lemmas.
func SanityLemmas() []Lemma {
	return []Lemma{LemmaNoError, LemmaLocksOnlyFaulty, LemmaHubsAgree, LemmaNodeHubAgree}
}

// Engine selects a model-checking backend.
type Engine int

// Engines.
const (
	// EngineSymbolic is the BDD-based engine (the paper's workhorse).
	EngineSymbolic Engine = iota + 1
	// EngineExplicit is the explicit-state engine (Section 3's baseline).
	EngineExplicit
	// EngineBMC is SAT-based bounded model checking: bug hunting for
	// invariants, lasso refutation for liveness — now with a
	// recurrence-diameter fallback that upgrades liveness verdicts to a
	// definitive Holds when the simple-path query closes.
	EngineBMC
	// EngineInduction is SAT-based k-induction: unbounded invariant
	// proofs without BDDs (an extension beyond the paper's SAL 2.0).
	// Liveness lemmas run as simple-path induction on the
	// liveness-to-safety product (internal/gcl/l2s).
	EngineInduction
	// EngineIC3 is IC3/PDR: unbounded invariant proofs by incremental
	// induction with many small SAT queries and no unrolling. Liveness
	// lemmas run as invariant proofs on the liveness-to-safety product.
	EngineIC3
)

func (e Engine) String() string {
	switch e {
	case EngineSymbolic:
		return symbolic.EngineName
	case EngineExplicit:
		return explicit.EngineName
	case EngineBMC:
		return bmc.EngineName
	case EngineInduction:
		return "k-induction"
	case EngineIC3:
		return ic3.EngineName
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// AllEngines lists every engine, in the order of the Engine constants.
func AllEngines() []Engine {
	return []Engine{EngineSymbolic, EngineExplicit, EngineBMC, EngineInduction, EngineIC3}
}

// ParseEngine resolves an engine name ("symbolic", "explicit", "bmc",
// "induction"/"k-induction", or "ic3"/"pdr").
func ParseEngine(name string) (Engine, error) {
	switch strings.TrimSpace(name) {
	case "symbolic":
		return EngineSymbolic, nil
	case "explicit":
		return EngineExplicit, nil
	case "bmc":
		return EngineBMC, nil
	case "induction", "k-induction":
		return EngineInduction, nil
	case "ic3", "pdr":
		return EngineIC3, nil
	default:
		return 0, fmt.Errorf("core: unknown engine %q", name)
	}
}

// Options tunes a verification suite.
type Options struct {
	// Symbolic configures the BDD engine.
	Symbolic symbolic.Options
	// Explicit configures the explicit-state engine.
	Explicit explicit.Options
	// BMCDepth bounds the BMC unrolling and the k-induction depth. A
	// Suite defaults it to 2·w_sup; Check needs it set for those engines.
	BMCDepth int
	// TimelinessBound overrides the bound used for Lemma 3 and Lemma 4
	// (default: the paper's w_sup formula plus the discretisation margin).
	TimelinessBound int
	// IC3 configures the IC3/PDR engine.
	IC3 ic3.Options
	// Opt routes every check through the static model-optimization pipeline
	// (internal/gcl/opt): the lemma is verified against its per-property
	// optimized system and counterexample traces are inflated back to the
	// source model before they are returned.
	Opt bool
	// Obs is inherited by every engine whose own Obs is unset, so one scope
	// instruments the whole suite. The zero value disables instrumentation.
	Obs obs.Scope
}

// normalize propagates the suite-level scope into each engine's options
// unless that engine already has its own.
func (o *Options) normalize() {
	if !o.Symbolic.Obs.Enabled() {
		o.Symbolic.Obs = o.Obs
	}
	if !o.Explicit.Obs.Enabled() {
		o.Explicit.Obs = o.Obs
	}
	if !o.IC3.Obs.Enabled() {
		o.IC3.Obs = o.Obs
	}
}

// Suite verifies the startup model of one configuration. Engines and the
// compiled form are constructed lazily and cached; in particular the
// symbolic engine's reachable set is shared by all checks of the source
// model, and with Options.Opt each lemma keeps its own optimized system and
// engine.
type Suite struct {
	Cfg   startup.Config
	Model *startup.Model
	opts  Options

	src *Source // the source model and its per-lemma optimized targets
}

// NewSuite builds the model for cfg and prepares a verification suite.
func NewSuite(cfg startup.Config, opts Options) (*Suite, error) {
	model, err := startup.Build(cfg)
	if err != nil {
		return nil, err
	}
	opts.normalize()
	return &Suite{Cfg: cfg, Model: model, opts: opts}, nil
}

// Source returns the source model's check handle, which every check of
// the suite runs on.
func (s *Suite) Source() *Source {
	if s.src == nil {
		s.src = NewSource(s.Model.Sys)
	}
	return s.src
}

// TimelinessBound returns the bound used for the timeliness lemmas: the
// configured override, or the paper's w_sup plus a fixed margin of one
// round that absorbs the ±constant differences of our discretisation
// conventions (EXPERIMENTS.md discusses the calibration).
func (s *Suite) TimelinessBound() int {
	if s.opts.TimelinessBound > 0 {
		return s.opts.TimelinessBound
	}
	return s.Model.P.WorstCaseStartup() + s.Model.P.Round()
}

// Property returns the mc.Property for a lemma.
func (s *Suite) Property(l Lemma) (mc.Property, error) {
	m := s.Model
	switch l {
	case LemmaSafety:
		return m.Safety(), nil
	case LemmaLiveness:
		return m.Liveness(), nil
	case LemmaTimeliness:
		return m.Timeliness(s.TimelinessBound()), nil
	case LemmaSafety2:
		return m.Safety2(s.TimelinessBound()), nil
	case LemmaNoError:
		return m.NoError(), nil
	case LemmaLocksOnlyFaulty:
		return m.LocksOnlyFaulty(), nil
	case LemmaHubsAgree:
		return m.HubsAgree(), nil
	case LemmaNodeHubAgree:
		return m.NodeHubAgree(), nil
	case LemmaRecovery:
		return mc.Property{Name: "recovery AG(AF all-active)", Kind: mc.CTL, CTL: m.Recovery()}, nil
	default:
		return mc.Property{}, fmt.Errorf("core: unknown lemma %v", l)
	}
}

// CheckCtx verifies one lemma with one engine under a context: a deadline
// or cancellation propagates into the engine's hot loop (BFS frontier,
// symbolic fixpoint, or SAT search) and surfaces as ctx.Err().
func (s *Suite) CheckCtx(ctx context.Context, l Lemma, e Engine) (*mc.Result, error) {
	prop, err := s.Property(l)
	if err != nil {
		return nil, err
	}
	opts := s.opts
	if opts.BMCDepth == 0 {
		opts.BMCDepth = 2 * s.Model.P.WorstCaseStartup()
	}
	return s.Source().Check(ctx, prop, e, opts)
}

// checkSource checks prop on the symbolic engine of the source model,
// whatever Options.Opt says: every such check shares that engine's
// reachable set, while an optimized model would be sliced anew for each
// property.
func (s *Suite) checkSource(ctx context.Context, prop mc.Property) (*mc.Result, error) {
	opts := s.opts
	opts.Opt = false
	return s.Source().Check(ctx, prop, EngineSymbolic, opts)
}

// CountStates returns the exact reachable-state count of the source
// model, as the symbolic engine reports it for the trivial invariant.
func (s *Suite) CountStates(ctx context.Context) (*big.Int, error) {
	res, err := s.checkSource(ctx, mc.Property{Name: "reachable", Kind: mc.Invariant, Pred: gcl.True()})
	if err != nil {
		return nil, err
	}
	return res.Stats.Reachable, nil
}
