package exp

import (
	"context"
	"math/big"
	"strings"
	"testing"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/mc"
)

func TestFig3MatchesPaper(t *testing.T) {
	table := Fig3()
	for _, want := range []string{"1    2    3    4    5    6", "6    6    6    6    6    6"} {
		if !strings.Contains(table, want) {
			t.Errorf("Fig3 missing row %q:\n%s", want, table)
		}
	}
}

// TestFig4Shape checks the paper's qualitative claims: checking time is
// monotone in the fault degree, and liveness is the most expensive lemma
// at the highest degree.
func TestFig4Shape(t *testing.T) {
	rows, _, table, err := Fig4(context.Background(), Quick, 3, []int{1, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Rows run degree by degree, safety, liveness, timeliness each.
	sum := func(rs []Row) int64 { return rs[0].CPUMS + rs[1].CPUMS + rs[2].CPUMS }
	lo, hi := rows[:3], rows[3:]
	if sum(hi) <= sum(lo) {
		t.Errorf("degree 5 not more expensive than degree 1:\n%s", table)
	}
	if hi[1].CPUMS < hi[0].CPUMS {
		t.Errorf("liveness should dominate safety at degree 5:\n%s", table)
	}
}

func TestFig5FormulasMatchPaper(t *testing.T) {
	rows, recs, _, err := Fig5(context.Background(), Quick, []int{3, 4, 5}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if recs != nil {
		t.Errorf("formulas alone ran %d jobs", len(recs))
	}
	wantSup := []string{"331776", "33554432", "4096000000"}
	wantW := []int{16, 23, 30}
	for i, r := range rows {
		if r.SSup.String() != wantSup[i] {
			t.Errorf("n=%d: |S_sup| = %v, want %s", r.N, r.SSup, wantSup[i])
		}
		if r.WSup != wantW[i] {
			t.Errorf("n=%d: w_sup = %d, want %d", r.N, r.WSup, wantW[i])
		}
	}
}

// TestFig6SafetyRow also pins Fig. 5's measured column: it is read from
// the same job's reachable count.
func TestFig6SafetyRow(t *testing.T) {
	rows, _, _, err := Fig6(context.Background(), Quick, core.LemmaSafety, []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Holds {
		t.Error("safety must hold")
	}
	if rows[0].BDDVars == 0 || rows[0].Reachable == "" {
		t.Error("stats missing")
	}
	fig5, _, _, err := Fig5(context.Background(), Quick, []int{3}, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fig5[0].Reachable != rows[0].Reachable {
		t.Errorf("Fig. 5 measured %s states, Fig. 6(a) %s", fig5[0].Reachable, rows[0].Reachable)
	}
}

func TestFig6Safety2Row(t *testing.T) {
	rows, _, _, err := Fig6(context.Background(), Quick, core.LemmaSafety2, []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Holds {
		t.Error("safety_2 must hold")
	}
}

// TestBaselineShape: the symbolic advantage must grow with cluster size.
func TestBaselineShape(t *testing.T) {
	rows, _, err := Baseline(context.Background(), []int{3, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Holds || !rows[1].Holds {
		t.Error("fault-free baseline safety must hold")
	}
	if rows[1].Reachable <= rows[0].Reachable {
		t.Error("state count must grow with n")
	}
}

func TestBigBangExperiment(t *testing.T) {
	rows, _, table, err := BigBang(context.Background(), Quick, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	sym, bounded, fixed := rows[0], rows[1], rows[2]
	if sym.Holds || bounded.Holds || sym.Verdict != mc.Violated.String() || bounded.Verdict != mc.Violated.String() {
		t.Errorf("big-bang-off should be violated on both engines:\n%s", table)
	}
	if !fixed.Holds {
		t.Errorf("big-bang-on should hold:\n%s", table)
	}
	// BMC finds the shortest counterexample; the symbolic trace is a
	// shortest path too, one state longer than its depth.
	if bounded.Rounds >= sym.CexLen {
		t.Errorf("bmc depth %d should be below the symbolic trace length %d:\n%s", bounded.Rounds, sym.CexLen, table)
	}
}

func TestWorstCaseExperiment(t *testing.T) {
	rows, _, err := WorstCase(context.Background(), Quick, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Measured <= 0 || rows[0].Measured > rows[0].Paper {
		t.Errorf("w_sup %d outside (0, %d]", rows[0].Measured, rows[0].Paper)
	}
}

func TestFeedbackAblationExperiment(t *testing.T) {
	rows, _, _, err := FeedbackAblation(context.Background(), Quick, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Feedback must not increase the reachable-state count.
	on, _ := new(big.Int).SetString(rows[0].Reachable, 10)
	off, _ := new(big.Int).SetString(rows[1].Reachable, 10)
	if on == nil || off == nil || on.Cmp(off) > 0 {
		t.Errorf("feedback increased states: %s > %s", rows[0].Reachable, rows[1].Reachable)
	}
}

// TestRestartExperiment pins the Section 2.1 restart problem: safety,
// liveness and the CTL recovery property AG(AF all-active) hold on the
// restartable n=3 model, all three over the one reachable set. A recovery
// job on an engine without a CTL evaluator fails with the error only the
// CTL case of core.Check's engine switch gives, so the lemma is routed
// through it.
func TestRestartExperiment(t *testing.T) {
	t.Parallel() // beside the ablation's long single-job tail
	rows, table, err := Restart(context.Background(), Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"safety", "liveness", "recovery"}
	if len(rows) != len(want) {
		t.Fatalf("rows: %d\n%s", len(rows), table)
	}
	for i, r := range rows {
		if r.Lemma != want[i] || !r.Holds {
			t.Errorf("row %d: %s %s, want %s holds\n%s", i, r.Lemma, r.Verdict, want[i], table)
		}
		if r.Reachable == "" || r.Reachable != rows[0].Reachable {
			t.Errorf("row %d: reachable %q, want %q\n%s", i, r.Reachable, rows[0].Reachable, table)
		}
	}

	job := campaign.Job{
		Topology: campaign.TopologyHub, N: 3, BigBang: true, FaultyNode: -1, FaultyHub: -1,
		DeltaInit: 4, Lemma: "recovery", Engine: "bmc", Restartable: true,
	}
	rec, err := campaign.ExecuteJob(context.Background(), job, campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Verdict != "error" || !strings.Contains(rec.Error, "has no CTL evaluator") {
		t.Errorf("recovery on bmc: verdict %q, error %q", rec.Verdict, rec.Error)
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale names broken")
	}
}

func TestCampaignExperiment(t *testing.T) {
	rows, table, err := Campaign(context.Background(), 4, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.AgreementOK != r.Runs {
			t.Errorf("agreement failures in campaign:\n%s", table)
		}
		if r.WorstStartup > r.PaperWSup {
			t.Errorf("sampled startup %d exceeds paper bound %d", r.WorstStartup, r.PaperWSup)
		}
	}
}

// TestAblationExperiment pins the load-bearing analysis: the full design
// passes, each ablated mechanism (except the defense-in-depth cs-window)
// breaks its characteristic lemma.
func TestAblationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations take ~1.5 minutes")
	}
	// Parallel: after its first seconds the table is one long probe on
	// one worker, which leaves the other CPUs to the parallel tests.
	t.Parallel()
	rows, _, table, err := Ablation(context.Background(), Quick, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		model string
		holds bool
	}{
		{"full design, faulty hub", true},
		{"full design, faulty node", true},
		{"no-big-bang, faulty hub", false},
		{"no-cs-priority, faulty node", false},
		{"no-cs-window, faulty hub", true}, // defense-in-depth
		{"no-interlinks, faulty node", false},
		{"no-watchdog, restartable, faulty node", false},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows: %d\n%s", len(rows), table)
	}
	for i, r := range rows {
		if r.Model != want[i].model || r.Holds != want[i].holds {
			t.Errorf("row %d: %s holds=%v, want %s holds=%v\n%s", i, r.Model, r.Holds, want[i].model, want[i].holds, table)
		}
	}
}
