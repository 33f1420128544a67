package exp

import (
	"context"
	"strings"
	"testing"

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
	rows, _, table, err := Fig4(context.Background(), Quick, 3, []int{1, 5}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	lo, hi := rows[0], rows[1]
	if hi.Safety+hi.Liveness+hi.Timeliness <= lo.Safety+lo.Liveness+lo.Timeliness {
		t.Errorf("degree 5 not more expensive than degree 1:\n%s", table)
	}
	if hi.Liveness < hi.Safety {
		t.Errorf("liveness should dominate safety at degree 5:\n%s", table)
	}
}

func TestFig5FormulasMatchPaper(t *testing.T) {
	rows, _, err := Fig5(Quick, []int{3, 4, 5}, false)
	if err != nil {
		t.Fatal(err)
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

func TestFig6SafetyRow(t *testing.T) {
	rows, _, _, err := Fig6(context.Background(), Quick, core.LemmaSafety, []int{3}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Eval {
		t.Error("safety must hold")
	}
	if rows[0].BDDVars == 0 || rows[0].Reachable == nil {
		t.Error("stats missing")
	}
}

func TestFig6Safety2Row(t *testing.T) {
	rows, _, _, err := Fig6(context.Background(), Quick, core.LemmaSafety2, []int{3}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Eval {
		t.Error("safety_2 must hold")
	}
}

// TestBaselineShape: the symbolic advantage must grow with cluster size.
func TestBaselineShape(t *testing.T) {
	rows, _, err := Baseline([]int{3, 4}, false)
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
	broken, fixed, table, err := BigBang(Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	if broken.Symbolic.Verdict != mc.Violated || broken.Bounded.Verdict != mc.Violated {
		t.Errorf("big-bang-off should be violated:\n%s", table)
	}
	if fixed.Verdict != mc.Holds {
		t.Errorf("big-bang-on should hold:\n%s", table)
	}
}

func TestWorstCaseExperiment(t *testing.T) {
	rows, _, err := WorstCase(Quick, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Measured <= 0 || rows[0].Measured > rows[0].Paper {
		t.Errorf("w_sup %d outside (0, %d]", rows[0].Measured, rows[0].Paper)
	}
}

func TestFeedbackAblationExperiment(t *testing.T) {
	rows, _, err := FeedbackAblation(Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Feedback must not increase the reachable-state count.
	if rows[0].Reachable.Cmp(rows[1].Reachable) > 0 {
		t.Errorf("feedback increased states: %v > %v", rows[0].Reachable, rows[1].Reachable)
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
		t.Skip("ablations take ~1 minute")
	}
	rows, table, err := Ablation(Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"full design (safety)":   true,
		"full design (liveness)": true,
		"no big-bang":            false,
		"no cs-priority":         false,
		"no cs-window":           true, // defense-in-depth
		"no interlinks":          false,
		"no watchdog":            false,
	}
	for _, r := range rows {
		expect, ok := want[r.Mechanism]
		if !ok {
			t.Errorf("unexpected variant %q", r.Mechanism)
			continue
		}
		if r.Holds != expect {
			t.Errorf("%s: holds=%v, want %v\n%s", r.Mechanism, r.Holds, expect, table)
		}
	}
}
