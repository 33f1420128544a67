// Package exp implements the paper's evaluation: one function per table or
// figure, each returning both structured rows and a formatted table. The
// ttabench command and the repository's benchmarks are thin wrappers
// around this package. Scale guidance: Quick configurations reproduce
// every experiment's shape in minutes on a laptop; Full configurations
// match the paper's cluster sizes and power-on windows and can take hours
// (the paper's own Fig. 6(b) n=5 run took 11.5 hours on its hardware).
package exp

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"time"

	"ttastartup/internal/bdd"
	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/gcl"
	"ttastartup/internal/mc/explicit"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/sim/mcfi"
	"ttastartup/internal/tta"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Quick shrinks cluster sizes and power-on windows so the whole
	// evaluation runs in minutes while preserving every qualitative shape.
	Quick Scale = iota + 1
	// Full uses the paper's parameters (δ_init = 8·round, n up to 5).
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// deltaInit returns the power-on window used at this scale (0 = paper).
func (s Scale) deltaInit(n int) int {
	if s == Full {
		return 0
	}
	return n + 1
}

func (s Scale) bddConfig() bdd.Config {
	if s == Full {
		return bdd.Config{NodeLimit: 320 << 20, CacheSize: 1 << 22}
	}
	return bdd.Config{}
}

// options are the engine options of every suite and campaign job the
// experiments run at this scale.
func (s Scale) options() core.Options {
	return core.Options{
		Symbolic: symbolic.Options{BDD: s.bddConfig(), NoTrace: true},
	}
}

// campaignOpts configures the campaign runner for the job-list tables on
// a pool of workers (0: GOMAXPROCS). Rows are reassembled in the
// deterministic job order of the table, so tables read the same however
// many workers ran.
func campaignOpts(scale Scale, workers int) campaign.RunOptions {
	return campaign.RunOptions{Workers: workers, Options: scale.options()}
}

// ---------------------------------------------------------------------------
// Fig. 3 — the fault-degree matrix

// Fig3 renders the 6×6 fault-degree matrix exactly as in the paper.
func Fig3() string {
	m := tta.DegreeMatrix()
	var b strings.Builder
	b.WriteString("Fig. 3 — fault degree of combined outputs (chA rows, chB columns)\n")
	b.WriteString("              quiet cs(g) i(g) noise cs(b) i(b)\n")
	names := []string{"quiet", "cs(g)", "i(g) ", "noise", "cs(b)", "i(b) "}
	for a := range tta.NumFaultKinds {
		fmt.Fprintf(&b, "  %s      ", names[a])
		for c := range tta.NumFaultKinds {
			fmt.Fprintf(&b, "%4d ", m[a][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// The paper's single-check tables. Each cell is one symbolic check of one
// hub configuration, so each table is a campaign job list run on the pool
// and reported as Rows (see runTable).

// hubJob is the symbolic hub job of the Fig. 4 and Fig. 6 sweeps: big-bang
// on, node n/2 faulty at the given degree, the scale's power-on window.
func hubJob(scale Scale, n, degree int, lemma string) campaign.Job {
	return campaign.Job{
		Topology:   campaign.TopologyHub,
		N:          n,
		BigBang:    true,
		FaultyNode: n / 2,
		FaultyHub:  -1,
		Degree:     degree,
		DeltaInit:  scale.deltaInit(n),
		Lemma:      lemma,
		Engine:     "symbolic",
	}
}

// ---------------------------------------------------------------------------
// Fig. 4 — verification time vs fault degree

// fig4Jobs expands the Fig. 4 sweep into campaign jobs in table order.
func fig4Jobs(scale Scale, n int, degrees []int) []campaign.Job {
	if len(degrees) == 0 {
		degrees = []int{1, 3, 5}
	}
	var jobs []campaign.Job
	for _, d := range degrees {
		for _, lemma := range []string{"safety", "liveness", "timeliness"} {
			jobs = append(jobs, hubJob(scale, n, d, lemma))
		}
	}
	return jobs
}

// Fig4 measures symbolic model-checking time for the safety, liveness, and
// timeliness lemmas as the fault degree increases (the paper used n = 4
// and δ_failure = 1, 3, 5; Quick scale uses n = 3 and a reduced power-on
// window). It returns one row per (degree, lemma) cell in that order; a
// cell's time is its job's wall time, model build plus check, so
// workers = 1 keeps the timings uncontended.
func Fig4(ctx context.Context, scale Scale, n int, degrees []int, workers int) ([]Row, []campaign.Record, string, error) {
	rows, recs, err := runTable(ctx, "fig4", fig4Jobs(scale, n, degrees), func(j campaign.Job) string {
		return fmt.Sprintf("δ_failure=%d", j.Degree)
	}, 0, campaignOpts(scale, workers))
	if err != nil {
		return nil, nil, "", err
	}
	for _, r := range rows {
		if !r.Holds {
			return nil, nil, "", fmt.Errorf("fig4: lemma %s unexpectedly %s at %s", r.Lemma, r.Verdict, r.Model)
		}
	}
	return rows, recs, renderTable(fmt.Sprintf("Fig. 4 — effect of fault degree on model-checking time (n=%d, %s scale)", n, scale), rows,
		"cpu is the job's wall time, model build included",
		"paper (s): degree 1: 44/196/77; degree 3: 166/892/615; degree 5: 251/1324/922"), nil
}

// ---------------------------------------------------------------------------
// Fig. 5 — scenario counts and reachable states

// Fig5Row is one row of the Fig. 5 table.
type Fig5Row struct {
	N         int
	DeltaInit int
	SSup      *big.Int
	Degree    int
	WSup      int
	SFn       *big.Int
	Reachable string // measured, in decimal ("" when not computed)
}

// Fig5 evaluates the paper's closed-form scenario counts and, when measure
// is true, the exact reachable-state count of the faulty-node model at the
// given scale. The count is the reachable set of Fig. 6(a)'s safety job,
// run on the pool like the other tables; the records come back only then.
func Fig5(ctx context.Context, scale Scale, ns []int, measure bool, workers int) ([]Fig5Row, []campaign.Record, string, error) {
	if len(ns) == 0 {
		ns = []int{3, 4, 5}
	}
	var recs []campaign.Record
	if measure {
		var err error
		if _, recs, err = runTable(ctx, "fig5", fig6Jobs(scale, core.LemmaSafety, ns), nil, 0, campaignOpts(scale, workers)); err != nil {
			return nil, nil, "", err
		}
	}
	rows := make([]Fig5Row, 0, len(ns))
	for i, n := range ns {
		p := tta.Params{N: n}
		di := p.DefaultDeltaInit()
		row := Fig5Row{
			N:         n,
			DeltaInit: di,
			SSup:      tta.ScenarioCountStartup(n, di),
			Degree:    6,
			WSup:      p.WorstCaseStartup(),
			SFn:       tta.ScenarioCountFaultyNode(6, p.WorstCaseStartup()),
		}
		if recs != nil {
			row.Reachable = recs[i].Stats.Reachable
		}
		rows = append(rows, row)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — number of scenarios (%s scale)\n", scale)
	b.WriteString("  n   δ_init  |S_sup|        δ_failure  w_sup  |S_f.n.|      reachable(measured)\n")
	for _, r := range rows {
		reach := r.Reachable
		if reach == "" {
			reach = "-"
		}
		fmt.Fprintf(&b, "  %d   %4d    %-12s   %d        %3d    %-12s %s\n",
			r.N, r.DeltaInit, sci(r.SSup), r.Degree, r.WSup, sci(r.SFn), reach)
	}
	b.WriteString("  paper: |S_sup| = 3.3e5 / 3.3e7 / 4.1e9; |S_f.n.| = 8e24 / 6e35 / 4.9e46\n")
	b.WriteString("  paper reachable states (big-bang model): 1.08e9 / 5.09e11 / 2.59e14\n")
	return rows, recs, b.String(), nil
}

// sci renders a big integer in short scientific notation.
func sci(v *big.Int) string {
	s := v.String()
	if len(s) <= 6 {
		return s
	}
	return fmt.Sprintf("%c.%se%d", s[0], s[1:2], len(s)-1)
}

// ---------------------------------------------------------------------------
// Fig. 6 — exhaustive fault simulation

// fig6Jobs expands one Fig. 6 sub-table into campaign jobs in table order.
func fig6Jobs(scale Scale, lemma core.Lemma, ns []int) []campaign.Job {
	if len(ns) == 0 {
		ns = []int{3, 4}
	}
	var jobs []campaign.Job
	for _, n := range ns {
		j := hubJob(scale, n, 6, lemma.String())
		if lemma == core.LemmaSafety2 {
			j.FaultyNode = -1
			j.FaultyHub = 0
			j.Degree = 0
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// Fig6 runs one lemma of the exhaustive fault simulation (fault degree 6)
// across cluster sizes: sub-tables (a) safety, (b) liveness, (c)
// timeliness against a faulty node, and (d) safety-2 against a faulty hub.
// It runs on the pool like Fig4 and reports BDD variables and reachable
// states per row.
func Fig6(ctx context.Context, scale Scale, lemma core.Lemma, ns []int, workers int) ([]Row, []campaign.Record, string, error) {
	rows, recs, err := runTable(ctx, "fig6", fig6Jobs(scale, lemma, ns), func(j campaign.Job) string {
		switch {
		case j.FaultyHub >= 0:
			return "faulty hub"
		case lemma == core.LemmaTimeliness:
			// The suite's timeliness bound: w_sup plus the discretisation
			// margin of one round (see core.Suite.TimelinessBound).
			p := tta.Params{N: j.N}
			return fmt.Sprintf("faulty node, bound %d", p.WorstCaseStartup()+p.Round())
		}
		return "faulty node"
	}, mStates, campaignOpts(scale, workers))
	if err != nil {
		return nil, nil, "", err
	}
	note := map[core.Lemma]string{
		core.LemmaSafety:     "paper (n=3/4/5): true, 62/260/921 s, 248/316/422 BDD vars",
		core.LemmaLiveness:   "paper (n=3/4/5): true, 228/1243/41264 s, 250/318/424 BDD vars",
		core.LemmaTimeliness: "paper (n=3/4/5): true, 48/908/4481 s, 268/336/442 BDD vars, w_sup 16/23/30",
		core.LemmaSafety2:    "paper (n=3/4/5): true, 57/83/4290 s, 272/348/462 BDD vars",
	}[lemma]
	return rows, recs, renderTable(fmt.Sprintf("Fig. 6 — exhaustive fault simulation, lemma %v (δ_failure=6, feedback on, %s scale)", lemma, scale), rows, note), nil
}

// ---------------------------------------------------------------------------
// Design exploration: the mechanism ablations, the restart problem and
// feedback. Rows name the design variant a job checks (design).

// design names the hub design variant a job checks: "full design", or
// what it switches off (no-big-bang, then campaign.Job.Switches).
func design(j campaign.Job) string {
	parts := j.Switches()
	if !j.BigBang {
		parts = append([]string{"no-big-bang"}, parts...)
	}
	if len(parts) == 0 {
		return "full design"
	}
	return strings.Join(parts, ", ")
}

// ablationJobs lists the ablation probes: the full design against its two
// characteristic faults, then each mechanism removed under the fault and
// lemma that expose it. The power-on window 2n is wide enough for every
// known scenario.
func ablationJobs(n int) []campaign.Job {
	hub := campaign.Job{
		Topology: campaign.TopologyHub, N: n, BigBang: true,
		FaultyNode: -1, FaultyHub: 0, DeltaInit: 2 * n, Lemma: "safety", Engine: "symbolic",
	}
	node := hub
	node.FaultyNode, node.FaultyHub, node.Degree, node.Lemma = n/2, -1, 6, "liveness"
	with := func(j campaign.Job, set func(*campaign.Job)) campaign.Job {
		set(&j)
		return j
	}
	return []campaign.Job{
		hub,
		node,
		with(hub, func(j *campaign.Job) { j.BigBang = false }),
		with(node, func(j *campaign.Job) { j.NoCSPriority = true }),
		// The cold-start window was needed during reconstruction (before
		// interlink integration existed); the checker now shows it is
		// redundant defense-in-depth at checkable scales.
		with(hub, func(j *campaign.Job) { j.NoCSWindow = true }),
		with(node, func(j *campaign.Job) { j.NoInterlinks, j.Lemma = true, "hubs-agree" }),
		with(node, func(j *campaign.Job) { j.NoWatchdog, j.Restartable = true, true }),
	}
}

// Ablation verifies that each protective mechanism of the design is
// load-bearing: the full design passes every probe, and every ablated
// variant fails its characteristic lemma under its characteristic fault.
// The seven checks run on the pool.
func Ablation(ctx context.Context, scale Scale, n, workers int) ([]Row, []campaign.Record, string, error) {
	rows, recs, err := runTable(ctx, "ablation", ablationJobs(n), func(j campaign.Job) string {
		if j.FaultyHub >= 0 {
			return design(j) + ", faulty hub"
		}
		return design(j) + ", faulty node"
	}, 0, campaignOpts(scale, workers))
	if err != nil {
		return nil, nil, "", err
	}
	return rows, recs, renderTable(fmt.Sprintf("Design ablations (n=%d, %s scale)", n, scale), rows,
		"every mechanism except the cs-window is load-bearing; the window became",
		"redundant defense-in-depth once interlink integration was added"), nil
}

// Restart verifies the Section 2.1 restart problem (an extension
// experiment): with one transient reset allowed per correct node, the
// safety and liveness lemmas and the CTL recovery property AG(AF
// all-active) (core.LemmaRecovery) must hold. The three checks share one
// model, so the symbolic engine builds the reachable set once; as three
// campaign jobs each would rebuild it.
func Restart(ctx context.Context, scale Scale, n int) ([]Row, string, error) {
	job := campaign.Job{
		Topology: campaign.TopologyHub, N: n, BigBang: true, FaultyNode: -1, FaultyHub: -1,
		DeltaInit: scale.deltaInit(n), Engine: "symbolic", Restartable: true,
	}
	m, err := campaign.BuildModel(job, scale.options())
	if err != nil {
		return nil, "", err
	}
	var rows []Row
	for _, l := range []core.Lemma{core.LemmaSafety, core.LemmaLiveness, core.LemmaRecovery} {
		res, err := m.Check(ctx, l, core.EngineSymbolic)
		if err != nil {
			return nil, "", fmt.Errorf("restart %v: %w", l, err)
		}
		rows = append(rows, Row{
			Model: design(job), N: n, Lemma: l.String(), Engine: job.Engine,
			Verdict: res.Verdict.String(), Holds: res.Holds(), CPUMS: res.Stats.Duration.Milliseconds(),
			Reachable: res.Stats.Reachable.String(), BDDVars: res.Stats.BDDVars,
		})
	}
	return rows, renderTable(fmt.Sprintf("Restart problem (Section 2.1 extension; one transient reset per node, n=%d, %s scale)", n, scale), rows,
		"recovery is the CTL property AG(AF all-active)",
		"requires the guardian silence watchdog; without it the model checker",
		"exhibits a liveness counterexample (see DESIGN.md finding 5)"), nil
}

// FeedbackAblation measures the effect of the feedback state-space
// reduction (Section 5.1) on the safety check with a degree-6 faulty node.
func FeedbackAblation(ctx context.Context, scale Scale, n, workers int) ([]Row, []campaign.Record, string, error) {
	on := hubJob(scale, n, 6, "safety")
	off := on
	off.NoFeedback = true
	rows, recs, err := runTable(ctx, "feedback", []campaign.Job{on, off}, design, mStates|mPeak, campaignOpts(scale, workers))
	if err != nil {
		return nil, nil, "", err
	}
	return rows, recs, renderTable(fmt.Sprintf("Section 5.1 — feedback ablation (safety, n=%d, δ_failure=6, %s scale)", n, scale), rows,
		"paper: one 6-node property: 30,352 s with feedback on; >51 h (unterminated) off"), nil
}

// ---------------------------------------------------------------------------
// Fault-injection campaign (the experimental counterpart of Section 5.4,
// in the style of the paper's reference [1])

// CampaignRow summarises one Monte-Carlo configuration.
type CampaignRow struct {
	N            int
	Kind         string // mcfi scenario kind
	Runs         int
	Synchronized int
	AgreementOK  int
	WorstStartup int
	PaperWSup    int
}

// Campaign runs Monte-Carlo fault injection on the concrete simulator as
// three single-kind mcfi campaigns — fault-free, a degree-6 faulty node,
// and a faulty hub, the faulty component drawn per run — on a pool of
// workers (0: GOMAXPROCS), reporting agreement and worst sampled startup
// time against the verified bound.
func Campaign(ctx context.Context, n, runs, workers int) ([]CampaignRow, string, error) {
	specs := []mcfi.Spec{
		{N: n, Samples: runs, Seed: 1, Mix: map[string]int{"fault-free": 1}},
		{N: n, Samples: runs, Seed: 2, Degree: 6, Mix: map[string]int{"faulty-node": 1}},
		{N: n, Samples: runs, Seed: 3, Mix: map[string]int{"faulty-hub": 1}},
	}
	rows := make([]CampaignRow, 0, len(specs))
	for _, sp := range specs {
		rep, err := mcfi.Run(ctx, sp, mcfi.RunOptions{Workers: workers})
		if err != nil {
			return nil, "", err
		}
		for kind, ks := range rep.Kinds {
			rows = append(rows, CampaignRow{
				N: n, Kind: kind, Runs: ks.Runs, Synchronized: ks.Synced,
				AgreementOK: ks.Runs - ks.Disagreements, WorstStartup: ks.WorstStartup,
				PaperWSup: rep.Bound,
			})
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-injection campaign (simulator, n=%d, %d runs each)\n", n, runs)
	b.WriteString("  fault          synced   agreement  worst-startup  paper w_sup\n")
	for _, r := range rows {
		fault := map[string]string{"faulty-node": "node (deg 6)", "faulty-hub": "hub"}[r.Kind]
		if fault == "" {
			fault = "none"
		}
		fmt.Fprintf(&b, "  %-14s %6d   %9d  %6d         %d\n",
			fault, r.Synchronized, r.AgreementOK, r.WorstStartup, r.PaperWSup)
	}
	b.WriteString("  sampling never observed an agreement violation nor exceeded the verified bound\n")
	return rows, b.String(), nil
}

// ---------------------------------------------------------------------------
// Section 3 — explicit vs symbolic on the original algorithm

// BaselineRow is one row of the Section 3 comparison.
type BaselineRow struct {
	N           int
	Reachable   int
	Holds       bool
	ExplicitCPU time.Duration
	SymbolicCPU time.Duration
}

// Baseline reproduces the Section 3 comparison: check the safety property
// of the ORIGINAL bus-topology startup algorithm with the explicit-state
// and the symbolic engine (the paper: 30 s vs 0.38 s at n=4; 13 min vs
// 0.62 s at n=5 on its explicit-state model of 41,322 states).
func Baseline(ctx context.Context, ns []int, faulty bool) ([]BaselineRow, string, error) {
	if len(ns) == 0 {
		ns = []int{3, 4, 5}
	}
	rows := make([]BaselineRow, 0, len(ns))
	for _, n := range ns {
		job := campaign.Job{Topology: campaign.TopologyBus, N: n, FaultyNode: -1, FaultyHub: -1}
		if faulty {
			job.FaultyNode, job.Degree = 0, 3
		}
		m, err := campaign.BuildModel(job, core.Options{Symbolic: symbolic.Options{NoTrace: true}})
		if err != nil {
			return nil, "", err
		}
		prop, err := m.Property(core.LemmaSafety)
		if err != nil {
			return nil, "", err
		}

		// Full exploration on both engines, so the comparison is
		// exhaustive-work vs exhaustive-work even when the property fails
		// (the ORIGINAL algorithm predates the guardian protections, and
		// with a faulty node its safety genuinely fails — the paper used
		// this model for performance comparison only). The explicit
		// engine's invariant check stops at the first violation, so its
		// half explores the graph itself.
		expBegin := time.Now()
		g, err := explicit.ExploreCtx(ctx, m.Sys, explicit.Options{})
		if err != nil {
			return nil, "", fmt.Errorf("baseline explicit n=%d: %w", n, err)
		}
		expHolds := true
		for _, st := range g.States {
			if !gcl.Holds(prop.Pred, st) {
				expHolds = false
				break
			}
		}
		expCPU := time.Since(expBegin)

		symRes, err := m.Check(ctx, core.LemmaSafety, core.EngineSymbolic)
		if err != nil {
			return nil, "", fmt.Errorf("baseline symbolic n=%d: %w", n, err)
		}
		if expHolds != symRes.Holds() {
			return nil, "", fmt.Errorf("baseline: engines disagree at n=%d", n)
		}
		if symRes.Stats.Reachable.Cmp(big.NewInt(int64(g.NumStates()))) != 0 {
			return nil, "", fmt.Errorf("baseline: state counts disagree at n=%d: %d vs %v",
				n, g.NumStates(), symRes.Stats.Reachable)
		}
		rows = append(rows, BaselineRow{
			N:           n,
			Reachable:   g.NumStates(),
			Holds:       expHolds,
			ExplicitCPU: expCPU,
			SymbolicCPU: symRes.Stats.Duration,
		})
	}

	var b strings.Builder
	b.WriteString("Section 3 — explicit vs symbolic on the original (bus) startup algorithm\n")
	b.WriteString("  n   reachable  safety  explicit     symbolic\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %d   %8d   %-6v  %-12v %-12v\n",
			r.N, r.Reachable, r.Holds,
			r.ExplicitCPU.Round(time.Millisecond), r.SymbolicCPU.Round(time.Millisecond))
	}
	b.WriteString("  paper (their preliminary model): 41,322 states; explicit 30 s (n=4) / 13 min (n=5); symbolic 0.38 s / 0.62 s\n")
	return rows, b.String(), nil
}

// ---------------------------------------------------------------------------
// Section 5.2 — big-bang exploration

// bigBangJobs lists the Section 5.2 checks, all of safety_2 against
// faulty hub 0: big-bang off on the symbolic and on the bounded engine,
// then big-bang on (the final design) on the symbolic engine.
func bigBangJobs(scale Scale, n int) []campaign.Job {
	off := campaign.Job{
		Topology: campaign.TopologyHub, N: n, FaultyNode: -1, FaultyHub: 0,
		DeltaInit: scale.deltaInit(n), Lemma: "safety_2", Engine: "symbolic",
	}
	if off.DeltaInit == 0 {
		off.DeltaInit = 2 * n // keep the BMC unrolling tractable at full scale
	}
	bounded := off
	bounded.Engine = "bmc"
	on := off
	on.BigBang = true
	return []campaign.Job{off, bounded, on}
}

// BigBang runs the design-exploration experiment: disable the big-bang
// mechanism and find the clique counterexample with both the symbolic and
// the bounded engine, then confirm the fixed design verifies. The checks
// keep their traces, so the rows report the counterexample lengths next
// to the engines' rounds (the bounded engine's rounds are its depth).
func BigBang(ctx context.Context, scale Scale, n, workers int) ([]Row, []campaign.Record, string, error) {
	opts := campaign.RunOptions{Workers: workers, Options: core.Options{Symbolic: symbolic.Options{BDD: scale.bddConfig()}}}
	rows, recs, err := runTable(ctx, "bigbang", bigBangJobs(scale, n), design, mRounds|mCex, opts)
	if err != nil {
		return nil, nil, "", err
	}
	return rows, recs, renderTable(fmt.Sprintf("Section 5.2 — big-bang design exploration (n=%d, faulty hub, %s scale)", n, scale), rows,
		"cpu is the job's wall time, model build included; bmc rounds are its depth",
		"paper: violation found; bounded depth 13 in 93 s vs symbolic 127 s (5 nodes)"), nil
}

// ---------------------------------------------------------------------------
// Section 5.3 — worst-case startup times

// WCSupRow is one row of the worst-case startup table.
type WCSupRow struct {
	N        int
	Measured int
	Paper    int
	Probes   int
	CPU      time.Duration
}

// WorstCase sweeps the timeliness bound for each cluster size, reproducing
// the Section 5.3 exploration, with a degree-6 faulty node present (the
// paper: the worst case occurs with a faulty node).
func WorstCase(ctx context.Context, scale Scale, ns []int) ([]WCSupRow, string, error) {
	if len(ns) == 0 {
		ns = []int{3, 4}
	}
	rows := make([]WCSupRow, 0, len(ns))
	for _, n := range ns {
		worst := 0
		probes := 0
		var cpu time.Duration
		// The worst case ranges over the faulty component's identity.
		job := campaign.Job{
			Topology: campaign.TopologyHub, N: n, BigBang: true, FaultyNode: -1, FaultyHub: 0,
			DeltaInit: scale.deltaInit(n),
		}
		jobs := []campaign.Job{job}
		for id := range n {
			job.FaultyNode, job.FaultyHub, job.Degree = id, -1, 6
			jobs = append(jobs, job)
		}
		for _, job := range jobs {
			m, err := campaign.BuildModel(job, scale.options())
			if err != nil {
				return nil, "", err
			}
			begin := time.Now()
			res, err := m.Suite.WorstCaseStartup(ctx, 0)
			if err != nil {
				return nil, "", fmt.Errorf("wcsup n=%d: %w", n, err)
			}
			cpu += time.Since(begin)
			probes += len(res.Probes)
			if res.WSup > worst {
				worst = res.WSup
			}
		}
		rows = append(rows, WCSupRow{
			N: n, Measured: worst, Paper: (tta.Params{N: n}).WorstCaseStartup(),
			Probes: probes, CPU: cpu,
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5.3 — worst-case startup time w_sup (%s scale)\n", scale)
	b.WriteString("  n   measured  paper(7n-5)  probes  cpu\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %d   %4d      %4d         %3d     %v\n",
			r.N, r.Measured, r.Paper, r.Probes, r.CPU.Round(time.Millisecond))
	}
	b.WriteString("  shape: linear in n; our discretisation starts faster by a constant offset\n")
	return rows, b.String(), nil
}
