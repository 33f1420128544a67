package exp

// Every table of the evaluation is a list of cells of the paper's grid —
// configuration × lemma × engine — each named as a campaign.Job. The
// matrix experiments (opt, order, l2s) vary the check options per cell and
// run each through campaign.CheckJob (campaign.BuildModel, then
// Model.Check); the single-check tables (Figs. 4–6, ablation, feedback,
// big-bang, ic3) share one option set per table and run on the campaign
// pool (runTable), and restart checks its three lemmas on one built model. Every
// experiment reports the same Row type through one table renderer and one
// BENCH_<exp>.json writer.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/mc"
)

// Row is one cell of a matrix experiment. Measurements the experiment
// does not report stay zero and are left out of the JSON document.
type Row struct {
	Model   string `json:"model"` // configuration label
	N       int    `json:"n"`
	Lemma   string `json:"lemma"`
	Engine  string `json:"engine"`
	Opt     bool   `json:"opt,omitempty"`     // checked through the static optimizer
	Reorder bool   `json:"reorder,omitempty"` // BDD dynamic reordering armed
	Exact   bool   `json:"exact,omitempty"`   // an unbounded verdict is demanded
	Verdict string `json:"verdict"`
	Holds   bool   `json:"holds"`
	// CPUMS is the engine time in milliseconds (the campaign record's
	// wall time, model build included, for pool-run rows).
	CPUMS     int64 `json:"cpu_ms"`
	PeakNodes int   `json:"peak_nodes,omitempty"`
	Reorders  int   `json:"reorders,omitempty"` // sifting passes
	// Rounds is the engine's own depth measure: fixpoint iterations, IC3
	// frames, induction k, BMC unrolling depth.
	Rounds     int `json:"rounds,omitempty"`
	SATQueries int `json:"sat_queries,omitempty"`
	// CexLen and CexLoop describe a counterexample: its length and, for a
	// lasso, the back-edge target index.
	CexLen      int `json:"cex_len,omitempty"`
	CexLoop     int `json:"cex_loop,omitempty"`
	VarsDropped int `json:"vars_dropped,omitempty"`
	CmdsDropped int `json:"cmds_dropped,omitempty"`
	BitsSaved   int `json:"bits_saved,omitempty"`
	// Reachable is the reachable-state count in decimal and BDDVars the
	// BDD variable count of the symbolic engine.
	Reachable string `json:"reachable,omitempty"`
	BDDVars   int    `json:"bdd_vars,omitempty"`
}

// measure selects the counters an experiment reports out of those every
// check has: the BDD experiments report peak nodes, the engine matrices
// rounds, ic3 also counterexample lengths, the exhaustive-simulation
// tables reachable states and BDD variables. The other optional
// measurements are zero unless the experiment turns on what produces them
// (SAT queries, counted only by the SAT engines).
type measure uint8

const (
	mPeak   measure = 1 << iota // PeakNodes
	mRounds                     // Rounds
	mStates                     // Reachable, BDDVars
	mCex                        // CexLen (cell.run always reports it)
)

// cell is one check of a matrix experiment.
type cell struct {
	label string
	job   campaign.Job
	opts  core.Options
}

// run checks the cell and returns its row, reporting the measurements in m.
func (c cell) run(m measure) (Row, *mc.Result, error) {
	res, _, err := campaign.CheckJob(context.Background(), c.job, c.opts)
	if err != nil {
		return Row{}, nil, fmt.Errorf("%s: %w", c.job.ID(), err)
	}
	st := res.Stats
	r := Row{
		Model: c.label, N: c.job.N, Lemma: c.job.Lemma, Engine: c.job.Engine,
		Opt: c.opts.Opt, Reorder: c.opts.Symbolic.BDD.AutoReorder,
		Verdict: res.Verdict.String(), Holds: res.Holds(),
		CPUMS: st.Duration.Milliseconds(), Reorders: st.Reorders,
		VarsDropped: st.OptVarsDropped, CmdsDropped: st.OptCmdsDropped, BitsSaved: st.OptBitsSaved,
	}
	if m&mPeak != 0 {
		r.PeakNodes = st.PeakNodes
	}
	if m&mRounds != 0 {
		r.Rounds = st.Iterations
	}
	if res.Trace != nil {
		r.CexLen = res.Trace.Len()
		r.CexLoop = max(res.Trace.LoopsTo, 0)
	}
	return r, res, nil
}

// runTable checks a table's jobs on the campaign pool and returns one row
// per job, labelled by label (nil: no label), and the records, both in job
// order however the pool scheduled them. A job the pool did not run or
// whose check failed is an error naming the table.
func runTable(ctx context.Context, table string, jobs []campaign.Job, label func(campaign.Job) string, m measure, opts campaign.RunOptions) ([]Row, []campaign.Record, error) {
	rep, err := campaign.RunJobs(ctx, jobs, opts)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]Row, 0, len(jobs))
	recs := make([]campaign.Record, 0, len(jobs))
	for _, job := range jobs {
		rec, ok := rep.Record(job)
		switch {
		case !ok:
			return nil, nil, fmt.Errorf("%s: job %s did not run", table, job.ID())
		case rec.Error != "":
			return nil, nil, fmt.Errorf("%s: %s: %s", table, job.ID(), rec.Error)
		}
		r := Row{
			N: job.N, Lemma: job.Lemma, Engine: job.Engine,
			Verdict: rec.Verdict, Holds: rec.Holds, CPUMS: rec.WallMS,
			SATQueries: rec.Stats.SATQueries,
		}
		if label != nil {
			r.Model = label(job)
		}
		st := rec.Stats
		if m&mPeak != 0 {
			r.PeakNodes = st.PeakNodes
		}
		if m&mRounds != 0 {
			r.Rounds = st.Iterations
		}
		if m&mStates != 0 {
			r.Reachable, r.BDDVars = st.Reachable, st.BDDVars
		}
		if m&mCex != 0 {
			r.CexLen = rec.CexLen
		}
		rows = append(rows, r)
		recs = append(recs, rec)
	}
	return rows, recs, nil
}

// hubAndBus returns the opt and order experiments' two configurations on
// the symbolic engine: the hub with faulty node n/2 at degree 6, and the
// bus with faulty node 0 at degree 3 (its default power-on window).
func hubAndBus(scale Scale, n int) (hub, bus campaign.Job) {
	hub = hubJob(scale, n, 6, "")
	bus = campaign.Job{
		Topology: campaign.TopologyBus, N: n,
		FaultyNode: 0, FaultyHub: -1, Degree: 3,
		Engine: "symbolic",
	}
	return hub, bus
}

// offOn checks that every consecutive off/on row pair agrees on its
// verdict — the option under test is a performance transformation and
// must be invisible to the logic — and notes what it did to the cost.
func offOn(rows []Row, option string) ([]string, error) {
	var notes []string
	for i := 0; i+1 < len(rows); i += 2 {
		off, on := rows[i], rows[i+1]
		if off.Verdict != on.Verdict || off.Holds != on.Holds {
			return nil, fmt.Errorf("%s changed the %s %s verdict: %q vs %q",
				option, off.Model, off.Lemma, off.Verdict, on.Verdict)
		}
		notes = append(notes, fmt.Sprintf("%s %s with %s: cpu %s, peak nodes %s", off.Model, off.Lemma, option,
			change(off.CPUMS, on.CPUMS), change(int64(off.PeakNodes), int64(on.PeakNodes))))
	}
	return notes, nil
}

func change(off, on int64) string {
	if off == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(on-off)/float64(off))
}

// columns are the table's columns in order. An optional column is shown
// only when some row has a non-zero value in it, and a zero count or an
// empty string in it reads "-".
var columns = []struct {
	head     string
	optional bool
	val      func(Row) any
}{
	{"model", false, func(r Row) any { return r.Model }},
	{"n", false, func(r Row) any { return r.N }},
	{"lemma", false, func(r Row) any { return r.Lemma }},
	{"engine", false, func(r Row) any { return r.Engine }},
	{"opt", true, func(r Row) any { return r.Opt }},
	{"reorder", true, func(r Row) any { return r.Reorder }},
	{"exact", true, func(r Row) any { return r.Exact }},
	{"verdict", false, func(r Row) any { return r.Verdict }},
	{"cpu", false, func(r Row) any { return time.Duration(r.CPUMS) * time.Millisecond }},
	{"BDD vars", true, func(r Row) any { return r.BDDVars }},
	{"reachable", true, func(r Row) any { return r.Reachable }},
	{"peak nodes", true, func(r Row) any { return r.PeakNodes }},
	{"passes", true, func(r Row) any { return r.Reorders }},
	{"rounds", true, func(r Row) any { return r.Rounds }},
	{"queries", true, func(r Row) any { return r.SATQueries }},
	{"cex", true, func(r Row) any { return r.CexLen }},
	{"loop", true, func(r Row) any { return r.CexLoop }},
	{"-vars", true, func(r Row) any { return r.VarsDropped }},
	{"-cmds", true, func(r Row) any { return r.CmdsDropped }},
	{"-bits", true, func(r Row) any { return r.BitsSaved }},
}

// renderTable renders a matrix experiment: the title, one line per row,
// then the footnotes.
func renderTable(title string, rows []Row, notes ...string) string {
	var show []int
	for i, c := range columns {
		for _, r := range rows {
			if v := c.val(r); !c.optional || (v != any(0) && v != any(false) && v != any("")) {
				show = append(show, i)
				break
			}
		}
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	line := func(cell func(i int) any) {
		for _, i := range show {
			fmt.Fprintf(tw, "\t%v", cell(i))
		}
		fmt.Fprintln(tw)
	}
	line(func(i int) any { return columns[i].head })
	for _, r := range rows {
		line(func(i int) any {
			if v := columns[i].val(r); !columns[i].optional || (v != any(0) && v != any("")) {
				return v
			}
			return "-"
		})
	}
	tw.Flush()
	for _, n := range notes {
		b.WriteString("  " + n + "\n")
	}
	return b.String()
}

// WriteBench writes a matrix experiment's rows as its BENCH_<exp>.json
// document. CPU times vary run to run; every other field is deterministic.
func WriteBench(w io.Writer, scale Scale, n int, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Scale string `json:"scale"`
		N     int    `json:"n"`
		Rows  []Row  `json:"rows"`
	}{scale.String(), n, rows})
}
