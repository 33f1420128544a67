package campaign

import (
	"context"
	"fmt"
	"strings"

	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc"
	"ttastartup/internal/tta"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

// Model is one job's configuration built for checking: the finalized
// system, the lemmas its topology defines, and a check that runs any of
// them against that one system. BuildModel is the only mapping from job
// fields to a model; the campaign runner, ttamc, ttalint and the
// experiments all build through it.
type Model struct {
	// Sys is the finalized source system.
	Sys *gcl.System
	// Suite is the hub topology's verification suite (nil on the bus). Its
	// checks share one compiled system and symbolic reachable set, and it
	// carries the hub-only features: the w_sup sweep, the reachable-state
	// count and the counterexample timeline.
	Suite *core.Suite
	// Bus is the bus topology's model (nil on the hub).
	Bus *original.Model

	src  *core.Source // Sys's check handle, the suite's on the hub
	opts core.Options // BMCDepth defaulted
}

// BuildModel maps a job's configuration fields onto its topology's model;
// the job's lemma and engine are left to the caller. It rejects jobs whose
// fields contradict each other (validate). The SAT engines' depth
// defaults to 2·w_sup when opts.BMCDepth is 0.
func BuildModel(job Job, opts core.Options) (*Model, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if opts.BMCDepth == 0 {
		opts.BMCDepth = 2 * (tta.Params{N: job.N}).WorstCaseStartup()
	}
	switch job.Topology {
	case TopologyHub:
		s, err := core.NewSuite(HubConfig(job), opts)
		if err != nil {
			return nil, err
		}
		return &Model{Sys: s.Model.Sys, Suite: s, src: s.Source(), opts: opts}, nil
	case TopologyBus:
		m, err := original.Build(BusConfig(job))
		if err != nil {
			return nil, err
		}
		return &Model{Sys: m.Sys, Bus: m, src: core.NewSource(m.Sys), opts: opts}, nil
	default:
		return nil, fmt.Errorf("campaign: unknown topology %q (want %s or %s)", job.Topology, TopologyHub, TopologyBus)
	}
}

// validate rejects a job whose fields contradict each other: a faulty node
// next to a faulty hub breaks the single-failure hypothesis, and the bus
// topology has no hubs, no big-bang and none of the hub's design switches.
func (j Job) validate() error {
	if j.FaultyNode >= 0 && j.FaultyHub >= 0 {
		return fmt.Errorf("campaign: single-failure hypothesis forbids both a faulty node and a faulty hub")
	}
	if j.Topology != TopologyBus {
		return nil
	}
	var hubOnly []string
	if j.FaultyHub >= 0 {
		hubOnly = append(hubOnly, "faulty-hub")
	}
	if j.BigBang {
		hubOnly = append(hubOnly, "big-bang")
	}
	hubOnly = append(hubOnly, j.Switches()...)
	if len(hubOnly) > 0 {
		return fmt.Errorf("campaign: hub-topology settings on a bus job: %s", strings.Join(hubOnly, ", "))
	}
	return nil
}

// HubConfig maps a hub-topology job onto its model configuration.
func HubConfig(job Job) startup.Config {
	cfg := startup.DefaultConfig(job.N)
	cfg.DeltaInit = job.DeltaInit
	cfg.DisableBigBang = !job.BigBang
	if job.FaultyNode >= 0 || job.Degree != 0 {
		// Only a faulty node reads the degree, but a nonzero one is
		// validated without one too.
		cfg.FaultDegree = job.Degree
	}
	switch {
	case job.FaultyNode >= 0:
		cfg = cfg.WithFaultyNode(job.FaultyNode)
	case job.FaultyHub >= 0:
		cfg = cfg.WithFaultyHub(job.FaultyHub)
	}
	cfg.Feedback = !job.NoFeedback
	cfg.DisableCSPriority = job.NoCSPriority
	cfg.DisableCSWindow = job.NoCSWindow
	cfg.DisableInterlinks = job.NoInterlinks
	cfg.DisableWatchdog = job.NoWatchdog
	cfg.RestartableNodes = job.Restartable
	return cfg
}

// BusConfig maps a bus-topology job onto its model configuration.
func BusConfig(job Job) original.Config {
	cfg := original.Config{
		N:           job.N,
		FaultyNode:  job.FaultyNode,
		FaultDegree: job.Degree,
		DeltaInit:   job.DeltaInit,
	}
	if cfg.FaultyNode < 0 {
		cfg.FaultDegree = maxBusDegree // degree is irrelevant but must validate
	}
	return cfg
}

// Lemmas lists the lemmas the model's topology defines, in check order:
// the paper's four and the sanity set on the hub (core.AllLemmas,
// core.SanityLemmas), safety and liveness on the bus. The hub answers
// core.LemmaRecovery too, a CTL formula without a state predicate.
func (m *Model) Lemmas() []core.Lemma {
	if m.Suite != nil {
		return append(core.AllLemmas(), core.SanityLemmas()...)
	}
	return []core.Lemma{core.LemmaSafety, core.LemmaLiveness}
}

// Preds returns the state predicates of the model's lemmas (Lemmas), the
// properties' cones of influence for the static analyzer.
func (m *Model) Preds() []gcl.Expr {
	var preds []gcl.Expr
	for _, l := range m.Lemmas() {
		p, _ := m.Property(l) // every lemma of Lemmas resolves
		preds = append(preds, p.Pred)
	}
	return preds
}

// Property returns a lemma's property on the model. On the hub it is
// core.Suite.Property, so Options.TimelinessBound applies to the
// timeliness lemmas.
func (m *Model) Property(l core.Lemma) (mc.Property, error) {
	if m.Suite != nil {
		return m.Suite.Property(l)
	}
	switch l {
	case core.LemmaSafety:
		return m.Bus.Safety(), nil
	case core.LemmaLiveness:
		return m.Bus.Liveness(), nil
	}
	return mc.Property{}, fmt.Errorf("campaign: bus topology has no lemma %v (want safety or liveness)", l)
}

// Check verifies one lemma with one engine through core.Check's pipeline.
// Every check runs on the model's one core.Source, so lemmas share its
// compiled form and symbolic reachable set.
func (m *Model) Check(ctx context.Context, l core.Lemma, e core.Engine) (*mc.Result, error) {
	prop, err := m.Property(l)
	if err != nil {
		return nil, err
	}
	return m.src.Check(ctx, prop, e, m.opts)
}

// Compiled returns the boolean compilation of Sys, built once and reused
// by the model's symbolic checks.
func (m *Model) Compiled() *gcl.Compiled {
	return m.src.Compiled()
}

// jobLemma resolves the job's lemma name, which must name exactly one
// lemma.
func jobLemma(job Job) (core.Lemma, error) {
	lemmas, err := core.ParseLemmas(job.Lemma)
	if err != nil || len(lemmas) != 1 {
		return 0, fmt.Errorf("campaign: bad lemma %q", job.Lemma)
	}
	return lemmas[0], nil
}

// CheckJob checks one job on a private model, so concurrent jobs share
// nothing: BuildModel, then Model.Check with opts. It returns the result
// and the checked source system.
func CheckJob(ctx context.Context, job Job, opts core.Options) (*mc.Result, *gcl.System, error) {
	eng, err := core.ParseEngine(job.Engine)
	if err != nil {
		return nil, nil, err
	}
	l, err := jobLemma(job)
	if err != nil {
		return nil, nil, err
	}
	m, err := BuildModel(job, opts)
	if err != nil {
		return nil, nil, err
	}
	// With -opt the trace (and its digest) come back inflated to full
	// source-model states, so records stay comparable across opt settings.
	res, err := m.Check(ctx, l, eng)
	return res, m.Sys, err
}

// JobModelDigest returns the canonical content address of the job's
// finalized system (gcl.System.Digest), after checking that the model
// defines the job's lemma. The verification service computes it at
// submission time to probe the verdict cache before scheduling a single
// job.
func JobModelDigest(job Job) (string, error) {
	l, err := jobLemma(job)
	if err != nil {
		return "", err
	}
	m, err := BuildModel(job, core.Options{})
	if err != nil {
		return "", err
	}
	if _, err := m.Property(l); err != nil {
		return "", err
	}
	return m.Sys.Digest(), nil
}
