// Package mcfi runs Monte-Carlo fault-injection campaigns over the TTA
// startup simulator (internal/tta/sim) at the million-sample scale the
// paper's "exhaustive fault simulation" title promises for small scopes —
// the randomized large-scope complement to the model checkers.
//
// A campaign is pure data: a Spec (cluster size, sample count, seed,
// scenario mix). Scenario k expands deterministically from
// sim.DeriveSeed(Spec.Seed, k) alone, so results are byte-reproducible
// regardless of how the worker pool schedules batches, and any single run
// can be regenerated from its index. The runner executes fixed-size batches
// on a share-nothing pool, reduces batch results strictly in batch order,
// checkpoints each reduced batch as one fsynced JSONL line, and resumes
// after a crash by replaying the intact checkpoint prefix — the final
// report is byte-identical to an uninterrupted run.
//
// Three artifacts come out of a campaign beyond the aggregate statistics:
// a deduplicated corpus of interesting runs (new per-component
// state-machine coverage, near-violations, violations) persisted as
// replayable scenario indices; an abstract-state coverage account that
// small-scope runs compare against the explicit-state checker's reachable
// set; and differential replay, which drives every violating or
// near-violating in-hypothesis trace through the verified gcl model with
// the checkers' lemma predicates evaluated on the mapped states.
package mcfi

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ttastartup/internal/tta"
	"ttastartup/internal/tta/sim"
)

// Spec is a campaign specification. The zero values of the optional fields
// normalize to documented defaults; Digest covers the normalized form.
type Spec struct {
	// N is the cluster size.
	N int `json:"n"`
	// Samples is the number of scenarios to run.
	Samples int `json:"samples"`
	// Seed seeds the whole campaign (0 picks 1); scenario k derives its
	// private seed as sim.DeriveSeed(Seed, k).
	Seed int64 `json:"seed"`
	// Batch is the number of scenarios per checkpointed batch (0: 1000).
	Batch int `json:"batch,omitempty"`
	// DeltaInit is the power-on window (0: the paper's 8·round).
	DeltaInit int `json:"delta_init,omitempty"`
	// MaxSlots bounds each run (0: 20·round).
	MaxSlots int `json:"max_slots,omitempty"`
	// Mix maps scenario-kind names to weights (empty: sim.DefaultMix).
	Mix map[string]int `json:"mix,omitempty"`
	// Degree pins every faulty node's fault degree (0: a fresh uniform
	// draw from 1..6 per faulty node). Small-scope coverage studies pin a
	// low degree to keep the reference model's havoc enumeration cheap.
	Degree int `json:"degree,omitempty"`
	// NearMargin widens the near-violation band: a synced run with
	// startup in (bound-NearMargin, bound] is "near" (0: 2).
	NearMargin int `json:"near_margin,omitempty"`
	// CorpusPerBucket caps corpus entries per (kind, reason) bucket so a
	// high-rate finding class cannot flood the corpus (0: 32).
	CorpusPerBucket int `json:"corpus_per_bucket,omitempty"`
	// DisableBigBang applies the Section 5.2 design variant to every run.
	DisableBigBang bool `json:"disable_big_bang,omitempty"`
}

// Normalize fills defaults, returning the canonical spec that Digest and
// the checkpoint header cover.
func (sp Spec) Normalize() Spec {
	p := tta.Params{N: sp.N}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Batch <= 0 {
		sp.Batch = 1000
	}
	if sp.Samples > 0 && sp.Batch > sp.Samples {
		sp.Batch = sp.Samples
	}
	if sp.DeltaInit == 0 {
		sp.DeltaInit = p.DefaultDeltaInit()
	}
	if sp.MaxSlots == 0 {
		sp.MaxSlots = 20 * p.Round()
	}
	if sp.NearMargin == 0 {
		sp.NearMargin = 2
	}
	if sp.CorpusPerBucket == 0 {
		sp.CorpusPerBucket = 32
	}
	if len(sp.Mix) == 0 {
		sp.Mix = make(map[string]int)
		m := sim.DefaultMix()
		for k, w := range m.Weights {
			sp.Mix[sim.ScenarioKind(k).String()] = w
		}
	}
	return sp
}

// GenParams maps the (normalized) spec onto the scenario generator.
func (sp Spec) GenParams() (sim.GenParams, error) {
	g := sim.GenParams{
		N:              sp.N,
		DeltaInit:      sp.DeltaInit,
		MaxSlots:       sp.MaxSlots,
		FixedDegree:    sp.Degree,
		DisableBigBang: sp.DisableBigBang,
	}
	for name, w := range sp.Mix {
		k, err := sim.ParseScenarioKind(name)
		if err != nil {
			return g, err
		}
		g.Mix.Weights[k] = w
	}
	g = g.Normalize()
	return g, nil
}

// Scenario normalizes the spec and expands its scenario k — the run a
// campaign over sp executes at index k, and the run `ttasim -index k`
// reproduces with a trace.
func (sp Spec) Scenario(k uint64) (*sim.Scenario, error) {
	sp = sp.Normalize()
	g, err := sp.GenParams()
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return sim.GenScenario(g, sp.Seed, k), nil
}

// ParseMix parses a scenario mix written as kind:weight,... (the -mix flag
// of ttasimfuzz and ttasim) into Spec.Mix form. Kind names are checked
// when the spec is validated.
func ParseMix(s string) (map[string]int, error) {
	mix := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, weight, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("want kind:weight, got %q", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(weight))
		if err != nil {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		mix[strings.TrimSpace(kind)] = w
	}
	if len(mix) == 0 {
		return nil, errors.New("empty mix")
	}
	return mix, nil
}

// Validate checks the spec (after normalization).
func (sp Spec) Validate() error {
	sp = sp.Normalize()
	if sp.Samples < 1 {
		return fmt.Errorf("mcfi: samples %d must be >= 1", sp.Samples)
	}
	g, err := sp.GenParams()
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return err
	}
	if sp.NearMargin < 0 {
		return fmt.Errorf("mcfi: near margin %d must be >= 0", sp.NearMargin)
	}
	if sp.CorpusPerBucket < 1 {
		return fmt.Errorf("mcfi: corpus per-bucket cap %d must be >= 1", sp.CorpusPerBucket)
	}
	return nil
}

// Digest returns a stable 16-hex-char fingerprint of the normalized spec —
// the checkpoint header carries it so a resume against a different spec is
// rejected instead of silently merged.
func (sp Spec) Digest() string {
	b, err := json.Marshal(sp.Normalize())
	if err != nil {
		panic(err) // Spec has no unmarshalable fields
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Bound returns the startup-time bound runs are classified against: the
// paper's worst-case startup w_sup = 7n-5.
func (sp Spec) Bound() int { return tta.Params{N: sp.N}.WorstCaseStartup() }

// Batches returns the number of batches the (normalized) spec expands to.
func (sp Spec) Batches() int {
	sp = sp.Normalize()
	return (sp.Samples + sp.Batch - 1) / sp.Batch
}

// Violation classification.
//
// The verified lemmas calibrate what counts as a hard violation versus an
// expected-but-interesting exceedance:
//
//   - Agreement (Lemma 1) is proven for every in-hypothesis configuration,
//     so any disagreement in a fault-free, faulty-node, faulty-hub, or
//     restart run is a violation.
//   - Timeliness (Lemma 3) bounds startup by w_sup for fault-free and
//     faulty-node runs; exceeding it there — or not synchronising at all —
//     is a violation.
//   - A faulty hub may legitimately stall startup (the paper's Lemma 4
//     bounds the correct hub, not the cluster), and a mid-startup restart
//     invalidates the w_sup derivation, so unsynced/over-bound runs of
//     those kinds are exceedances: corpus-worthy findings, not failures.
//   - Beyond-hypothesis kinds (two-nodes, node-and-hub) have no verified
//     lemma at all; everything they produce is exceedance-class
//     exploration data.
//
// Reason strings double as corpus bucket names.
const (
	ReasonDisagreement = "disagreement"
	ReasonUnsynced     = "unsynced"
	ReasonTimeliness   = "timeliness"
	ReasonNear         = "near"
	ReasonCoverage     = "coverage"
)

// strictKind reports whether unsynced/over-bound outcomes of the kind
// contradict a verified lemma.
func strictKind(k sim.ScenarioKind) bool {
	return k == sim.ScenFaultFree || k == sim.ScenFaultyNode
}

// classify maps one outcome to its violation/exceedance/near reasons.
func classify(sp Spec, s *sim.Scenario, out sim.Outcome) (violations, exceeds []string, near bool) {
	disagree := !out.Agreement
	late := out.Synced && out.Startup > sp.Bound()
	if disagree {
		if s.InHypothesis() {
			violations = append(violations, ReasonDisagreement)
		} else {
			exceeds = append(exceeds, ReasonDisagreement)
		}
	}
	if !out.Synced {
		if strictKind(s.Kind) {
			violations = append(violations, ReasonUnsynced)
		} else {
			exceeds = append(exceeds, ReasonUnsynced)
		}
	}
	if late {
		if strictKind(s.Kind) {
			violations = append(violations, ReasonTimeliness)
		} else {
			exceeds = append(exceeds, ReasonTimeliness)
		}
	}
	near = out.Synced && out.Startup <= sp.Bound() && out.Startup > sp.Bound()-sp.NearMargin
	return violations, exceeds, near
}

// KindStats aggregates outcomes per scenario kind.
type KindStats struct {
	Runs          int   `json:"runs"`
	Synced        int   `json:"synced"`
	Unsynced      int   `json:"unsynced"`
	Disagreements int   `json:"disagreements"`
	OverBound     int   `json:"over_bound"`
	Near          int   `json:"near"`
	WorstStartup  int   `json:"worst_startup"`
	TotalStartup  int64 `json:"total_startup"`
	TotalSlots    int64 `json:"total_slots"`
}

func (k *KindStats) add(o *KindStats) {
	k.Runs += o.Runs
	k.Synced += o.Synced
	k.Unsynced += o.Unsynced
	k.Disagreements += o.Disagreements
	k.OverBound += o.OverBound
	k.Near += o.Near
	k.WorstStartup = max(k.WorstStartup, o.WorstStartup)
	k.TotalStartup += o.TotalStartup
	k.TotalSlots += o.TotalSlots
}

// CorpusEntry is one retained interesting run, persisted as a replayable
// seed: the scenario index regenerates the exact run under the campaign's
// spec.
type CorpusEntry struct {
	// Index regenerates the scenario via Spec.Scenario(Index).
	Index uint64 `json:"index"`
	// Seed is the derived per-scenario seed (redundant with Index, kept
	// for standalone reproduction).
	Seed int64 `json:"seed"`
	// Kind is the scenario kind name.
	Kind string `json:"kind"`
	// Reasons lists why the run was retained (violation/exceedance
	// reasons, "near", "coverage").
	Reasons []string `json:"reasons"`
	// Violation marks entries whose reasons contradict a verified lemma.
	Violation bool `json:"violation,omitempty"`
	// Startup and Slots echo the outcome for the report.
	Startup int `json:"startup"`
	Slots   int `json:"slots"`
	// NewEdges counts the component transitions this entry covered first.
	NewEdges int `json:"new_edges,omitempty"`
	// Desc is the human-readable scenario summary.
	Desc string `json:"desc"`
}

// HasReason reports whether reason is among the entry's Reasons.
func (e CorpusEntry) HasReason(reason string) bool {
	return slices.Contains(e.Reasons, reason)
}

// Report is a campaign's deterministic result. It carries no wall-clock
// data: an interrupted-and-resumed campaign renders byte-identically to an
// uninterrupted one (timings go to the obs registry and BENCH_sim.json
// instead).
type Report struct {
	Spec      Spec                  `json:"spec"`
	Digest    string                `json:"digest"`
	Samples   int                   `json:"samples"`
	Batches   int                   `json:"batches"`
	Completed bool                  `json:"completed"`
	Bound     int                   `json:"bound"`
	Kinds     map[string]*KindStats `json:"kinds"`

	// Violations counts runs contradicting a verified lemma; Exceedances
	// counts expected-but-interesting anomalies (see the classification
	// comment); Near counts runs just under the timeliness bound.
	Violations  int `json:"violations"`
	Exceedances int `json:"exceedances"`
	Near        int `json:"near"`

	// Coverage accounting over the abstract (NodeState, HubState) space.
	CoverStates int `json:"cover_states"` // distinct abstract cluster states
	CoverEdges  int `json:"cover_edges"`  // distinct per-component transitions
	EdgeSpace   int `json:"edge_space"`   // upper bound of the transition alphabet

	Corpus []CorpusEntry `json:"corpus"`

	// Visited is the reduced abstract-state set behind CoverStates,
	// resumed checkpoint records included. It is not serialized.
	Visited map[uint64]struct{} `json:"-"`
}

// TotalRuns sums runs across kinds.
func (r *Report) TotalRuns() int {
	total := 0
	for _, ks := range r.Kinds {
		total += ks.Runs
	}
	return total
}

// WriteJSON renders the report as indented JSON. Maps marshal with sorted
// keys and every slice is populated in reduction order, so equal campaigns
// produce byte-equal files.
func (r *Report) WriteJSON(w interface{ Write([]byte) (int, error) }) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders the human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	state := "completed"
	if !r.Completed {
		state = "partial"
	}
	fmt.Fprintf(&b, "mcfi campaign %s (%s): n=%d samples=%d/%d batches=%d seed=%d\n",
		r.Digest, state, r.Spec.N, r.Samples, r.Spec.Samples, r.Batches, r.Spec.Seed)
	fmt.Fprintf(&b, "violations=%d exceedances=%d near=%d (bound w_sup=%d, margin %d)\n",
		r.Violations, r.Exceedances, r.Near, r.Bound, r.Spec.NearMargin)
	fmt.Fprintf(&b, "coverage: %d abstract states, %d/%d component transitions\n",
		r.CoverStates, r.CoverEdges, r.EdgeSpace)
	fmt.Fprintf(&b, "corpus: %d entries\n", len(r.Corpus))

	kinds := make([]string, 0, len(r.Kinds))
	for k := range r.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(&b, "%-14s %9s %9s %9s %9s %6s %6s %6s %9s\n",
		"kind", "runs", "synced", "unsynced", "disagree", "over", "near", "worst", "mean")
	for _, k := range kinds {
		ks := r.Kinds[k]
		mean := 0.0
		if ks.Synced > 0 {
			mean = float64(ks.TotalStartup) / float64(ks.Synced)
		}
		fmt.Fprintf(&b, "%-14s %9d %9d %9d %9d %6d %6d %6d %9.2f\n",
			k, ks.Runs, ks.Synced, ks.Unsynced, ks.Disagreements, ks.OverBound, ks.Near, ks.WorstStartup, mean)
	}
	return b.String()
}
