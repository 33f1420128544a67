// Package campaign is a verification-campaign orchestrator: it turns a
// declarative sweep specification (cluster sizes, topologies, big-bang
// on/off, fault degrees, lemmas, engines) into a deterministic job list and
// executes it on a bounded pool of worker goroutines, each owning its own
// suite (BDD manager, SAT solver) so jobs share nothing. Campaigns support
// per-job deadlines with graceful cancellation via context.Context, a
// crash-safe JSONL result store that lets an interrupted campaign resume
// without re-running finished jobs, live progress reporting with text and
// JSON sinks, and a retry-with-bounded-engine fallback for jobs that
// exceed their deadline. It is the machinery behind cmd/ttacampaign and
// the parallel paths of cmd/ttabench and examples/quickstart.
//
// The paper's exhaustive fault simulation is exactly such a sweep: one
// model-checking job per (configuration, lemma) pair, all independent —
// the orchestration, not any single check, dominates a campaign's wall
// time once workers saturate the hardware.
package campaign

import (
	"fmt"
	"strings"
	"time"
)

// Topologies.
const (
	// TopologyHub is the paper's main model: a star of nodes around two
	// central guardians (internal/tta/startup).
	TopologyHub = "hub"
	// TopologyBus is the Section 3 baseline: the original broadcast-bus
	// startup algorithm (internal/tta/original).
	TopologyBus = "bus"
)

// Job is one verification task: check one lemma of one model configuration
// with one engine. Jobs are value types with a canonical identity (ID) so
// a restarted campaign recognises already-recorded work.
type Job struct {
	Topology   string `json:"topology"`
	N          int    `json:"n"`
	BigBang    bool   `json:"big_bang"`             // hub topology only
	FaultyNode int    `json:"faulty_node"`          // -1: none
	FaultyHub  int    `json:"faulty_hub"`           // -1: none (hub topology only)
	Degree     int    `json:"degree"`               // fault degree; 0 when no faulty node
	DeltaInit  int    `json:"delta_init,omitempty"` // power-on window (0: model default)
	Lemma      string `json:"lemma"`
	Engine     string `json:"engine"`

	// Design switches of the hub topology (startup.Config), each off by
	// default and left out of the JSON and the ID when off, so jobs that
	// do not set them keep their identity.
	NoFeedback   bool `json:"no_feedback,omitempty"`
	NoCSPriority bool `json:"no_cs_priority,omitempty"`
	NoCSWindow   bool `json:"no_cs_window,omitempty"`
	NoInterlinks bool `json:"no_interlinks,omitempty"`
	NoWatchdog   bool `json:"no_watchdog,omitempty"`
	Restartable  bool `json:"restartable,omitempty"` // one transient reset per correct node
}

// ID returns the job's canonical identity, a stable human-readable string
// used as the primary key of the result store.
func (j Job) ID() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/n=%d", j.Topology, j.N)
	if j.Topology == TopologyHub {
		if j.BigBang {
			b.WriteString("/bb=on")
		} else {
			b.WriteString("/bb=off")
		}
	}
	switch {
	case j.FaultyNode >= 0:
		fmt.Fprintf(&b, "/fnode=%d/deg=%d", j.FaultyNode, j.Degree)
	case j.FaultyHub >= 0:
		fmt.Fprintf(&b, "/fhub=%d", j.FaultyHub)
	default:
		b.WriteString("/fault-free")
	}
	if j.DeltaInit > 0 {
		fmt.Fprintf(&b, "/di=%d", j.DeltaInit)
	}
	for _, sw := range j.Switches() {
		b.WriteString("/" + sw)
	}
	fmt.Fprintf(&b, "/%s/%s", j.Lemma, j.Engine)
	return b.String()
}

// Switches names the design switches the job sets, in ID order:
// no-feedback, no-cs-priority, no-cs-window, no-interlinks, no-watchdog,
// restartable.
func (j Job) Switches() []string {
	var on []string
	for _, sw := range []struct {
		set  bool
		name string
	}{
		{j.NoFeedback, "no-feedback"}, {j.NoCSPriority, "no-cs-priority"}, {j.NoCSWindow, "no-cs-window"},
		{j.NoInterlinks, "no-interlinks"}, {j.NoWatchdog, "no-watchdog"}, {j.Restartable, "restartable"},
	} {
		if sw.set {
			on = append(on, sw.name)
		}
	}
	return on
}

// Spec declares a campaign as a cross product of configuration dimensions.
// Zero-valued fields take the defaults documented per field; Jobs expands
// the spec into a deterministic, duplicate-free job list.
type Spec struct {
	// Ns lists the cluster sizes (default: 3).
	Ns []int `json:"ns,omitempty"`
	// Topologies lists the model families to sweep (default: hub).
	Topologies []string `json:"topologies,omitempty"`
	// BigBang lists the hub-topology big-bang variants (default: on only).
	// The bus topology has no big-bang mechanism and ignores this axis.
	BigBang []bool `json:"big_bang,omitempty"`
	// Degrees lists the fault degrees for faulty-node jobs (default 1..6;
	// the bus topology's fault model stops at degree 3 and higher degrees
	// are skipped for it).
	Degrees []int `json:"degrees,omitempty"`
	// Lemmas lists lemma names (default: safety, liveness, timeliness and
	// safety_2). Hub-topology jobs check safety_2 against a faulty hub and
	// every other lemma against a faulty node; the bus topology supports
	// safety and liveness and skips the rest.
	Lemmas []string `json:"lemmas,omitempty"`
	// Engines lists engine names (default: symbolic). Every engine now
	// covers every lemma: k-induction and IC3 prove eventuality lemmas
	// through the liveness-to-safety product (internal/gcl/l2s), so the
	// expansion no longer drops those pairs. Records for the previously
	// skipped pairs carry Transition "skipped->executed".
	Engines []string `json:"engines,omitempty"`
	// DeltaInit overrides the power-on window in slots (0: each model's
	// default — the paper's 8·round for the hub, 2·round for the bus).
	DeltaInit int `json:"delta_init,omitempty"`
}

// Paper lemma names understood by the expander. The sanity lemmas of
// core.SanityLemmas are accepted too; they are checked against a faulty
// node like the main node lemmas.
var hubFaultyHubLemmas = map[string]bool{"safety_2": true}

// busLemmas lists the lemmas the bus-topology baseline model defines.
var busLemmas = map[string]bool{"safety": true, "liveness": true}

// eventuality reports whether a lemma is an eventuality (F p) property.
// Campaign expanders before the liveness-to-safety transform dropped
// (induction|ic3) × eventuality pairs; Transitioned identifies them.
func eventuality(lemma string) bool { return lemma == "liveness" }

// TransitionSkippedExecuted is the Record.Transition marker for job
// classes that older campaign versions silently skipped and that now
// execute.
const TransitionSkippedExecuted = "skipped->executed"

// Transitioned reports whether a job belongs to a class that earlier
// campaign expanders silently skipped (SAT-engine eventuality lemmas).
func Transitioned(j Job) bool {
	return (j.Engine == "induction" || j.Engine == "ic3") && eventuality(j.Lemma)
}

// maxHubDegree and maxBusDegree are the topologies' fault-model ceilings.
const (
	maxHubDegree = 6
	maxBusDegree = 3
)

func (s Spec) ns() []int {
	if len(s.Ns) == 0 {
		return []int{3}
	}
	return s.Ns
}

func (s Spec) topologies() []string {
	if len(s.Topologies) == 0 {
		return []string{TopologyHub}
	}
	return s.Topologies
}

func (s Spec) bigBang() []bool {
	if len(s.BigBang) == 0 {
		return []bool{true}
	}
	return s.BigBang
}

func (s Spec) degrees() []int {
	if len(s.Degrees) == 0 {
		return []int{1, 2, 3, 4, 5, 6}
	}
	return s.Degrees
}

func (s Spec) lemmas() []string {
	if len(s.Lemmas) == 0 {
		return []string{"safety", "liveness", "timeliness", "safety_2"}
	}
	return s.Lemmas
}

func (s Spec) engines() []string {
	if len(s.Engines) == 0 {
		return []string{"symbolic"}
	}
	return s.Engines
}

// Jobs expands the spec into its deterministic job list: the same spec
// always yields the same jobs in the same order, which is what makes
// resume and report reproduction sound. Dimensions nest in declaration
// order (topology, n, big-bang, degree, lemma, engine); combinations that
// do not apply to a topology or engine are skipped, and combinations that
// collapse to the same configuration (e.g. faulty-hub lemmas, which have
// no fault degree) are emitted once.
func (s Spec) Jobs() ([]Job, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var jobs []Job
	seen := make(map[string]bool)
	add := func(j Job) {
		if id := j.ID(); !seen[id] {
			seen[id] = true
			jobs = append(jobs, j)
		}
	}
	for _, topo := range s.topologies() {
		for _, n := range s.ns() {
			bigBangs := s.bigBang()
			if topo == TopologyBus {
				bigBangs = []bool{false} // no big-bang axis on the bus
			}
			for _, bb := range bigBangs {
				for _, deg := range s.degrees() {
					for _, lemma := range s.lemmas() {
						if topo == TopologyBus && !busLemmas[lemma] {
							continue
						}
						if topo == TopologyBus && deg > maxBusDegree {
							continue
						}
						for _, engine := range s.engines() {
							j := Job{
								Topology:   topo,
								N:          n,
								BigBang:    bb,
								FaultyNode: n / 2,
								FaultyHub:  -1,
								Degree:     deg,
								DeltaInit:  s.DeltaInit,
								Lemma:      lemma,
								Engine:     engine,
							}
							if topo == TopologyHub && hubFaultyHubLemmas[lemma] {
								// Faulty-hub lemmas have no degree axis;
								// the dedup set collapses the sweep.
								j.FaultyNode = -1
								j.FaultyHub = 0
								j.Degree = 0
							}
							add(j)
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

func (s Spec) validate() error {
	for _, topo := range s.topologies() {
		if topo != TopologyHub && topo != TopologyBus {
			return fmt.Errorf("campaign: unknown topology %q (want %s or %s)", topo, TopologyHub, TopologyBus)
		}
	}
	for _, n := range s.ns() {
		if n < 3 {
			return fmt.Errorf("campaign: cluster size %d too small (need n >= 3)", n)
		}
	}
	for _, d := range s.degrees() {
		if d < 1 || d > maxHubDegree {
			return fmt.Errorf("campaign: fault degree %d out of range 1..%d", d, maxHubDegree)
		}
	}
	known := map[string]bool{
		"safety": true, "liveness": true, "timeliness": true, "safety_2": true,
		"no-error": true, "locks-only-faulty": true, "hubs-agree": true, "node-hub-agree": true,
	}
	for _, l := range s.lemmas() {
		if !known[l] {
			return fmt.Errorf("campaign: unknown lemma %q", l)
		}
	}
	for _, e := range s.engines() {
		switch e {
		case "symbolic", "explicit", "bmc", "induction", "ic3":
		default:
			return fmt.Errorf("campaign: unknown engine %q", e)
		}
	}
	return nil
}

// Record is the durable outcome of one finished job: exactly one JSONL
// line of the result store. Wall time and engine statistics vary run to
// run; verdict, counterexample digest and identity do not, which is why
// Report.Canonical excludes the former.
type Record struct {
	Job Job `json:"job"`
	// Verdict is the engine verdict string ("holds", "VIOLATED", "holds
	// (bounded)"), "inconclusive (deadline)" for jobs whose budget ran
	// out, or "error".
	Verdict string `json:"verdict"`
	// Holds mirrors mc.Result.Holds (false for inconclusive and error).
	Holds bool `json:"holds"`
	// Inconclusive marks deadline-exceeded jobs (no verdict either way).
	Inconclusive bool `json:"inconclusive,omitempty"`
	// FallbackEngine names the engine that produced the verdict when the
	// primary engine exceeded its deadline and the bounded fallback ran.
	FallbackEngine string `json:"fallback_engine,omitempty"`
	// CexLen and CexDigest summarise the counterexample trace: its length
	// and a short content hash over the state sequence (engines are
	// deterministic, so the digest is reproducible run to run).
	CexLen    int    `json:"cex_len,omitempty"`
	CexDigest string `json:"cex_digest,omitempty"`
	// ModelDigest is the canonical content address of the checked model
	// (gcl.System.ShortDigest of the finalized source system, independent
	// of -opt rewriting) — the model half of the verdict-cache key and the
	// durable replacement for ad-hoc configuration identity strings.
	ModelDigest string `json:"model_digest,omitempty"`
	// Transition documents a job-class status change across campaign
	// versions: "skipped->executed" marks SAT-engine liveness jobs that
	// earlier expanders silently dropped (the invariant-only era) and
	// that now execute through the liveness-to-safety product. Old
	// checkpoints never contain such jobs, so resuming one replays its
	// records byte-identically and only appends the transitioned jobs.
	Transition string `json:"transition,omitempty"`
	// WallMS is the job's wall-clock time in milliseconds.
	WallMS int64 `json:"wall_ms"`
	// Stats carries the engine measurements (schema below).
	Stats RecordStats `json:"stats"`
	// Error is set (with Verdict "error") when the job failed outright.
	Error string `json:"error,omitempty"`
}

// RecordStats is the machine-readable subset of mc.Stats.
type RecordStats struct {
	Engine     string `json:"engine,omitempty"`
	StateBits  int    `json:"state_bits,omitempty"`
	BDDVars    int    `json:"bdd_vars,omitempty"`
	Reachable  string `json:"reachable,omitempty"` // decimal big integer
	Visited    int    `json:"visited,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	PeakNodes  int    `json:"peak_nodes,omitempty"`
	Reorders   int    `json:"reorders,omitempty"`
	Conflicts  int    `json:"conflicts,omitempty"`
	// SAT-engine counters (bmc, induction, ic3).
	SATQueries   int     `json:"sat_queries,omitempty"`
	Decisions    int     `json:"decisions,omitempty"`
	Propagations int     `json:"propagations,omitempty"`
	Restarts     int     `json:"restarts,omitempty"`
	Obligations  int     `json:"obligations,omitempty"`
	CoreShrink   float64 `json:"core_shrink,omitempty"`
	// Static-optimizer reductions (present when the job ran with -opt).
	OptVarsDropped int `json:"opt_vars_dropped,omitempty"`
	OptCmdsDropped int `json:"opt_cmds_dropped,omitempty"`
	OptBitsSaved   int `json:"opt_bits_saved,omitempty"`
}

// Wall returns the recorded wall time as a duration.
func (r Record) Wall() time.Duration { return time.Duration(r.WallMS) * time.Millisecond }
