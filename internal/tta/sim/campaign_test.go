package sim_test

import (
	"context"
	"testing"

	"ttastartup/internal/sim/mcfi"
)

// The Monte-Carlo campaign checks of the simulator, run as single-kind
// mcfi campaigns: every run keeps agreement, at least 90% synchronise, and
// none starts later than w_sup = 7·4-5 where the timeliness lemma applies.

const wsup4 = 7*4 - 5

func runKind(t *testing.T, kind string, samples int, seed int64, degree int) *mcfi.KindStats {
	t.Helper()
	sp := mcfi.Spec{N: 4, Samples: samples, Seed: seed, Degree: degree, Mix: map[string]int{kind: 1}}
	rep, err := mcfi.Run(context.Background(), sp, mcfi.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ks := rep.Kinds[kind]
	if ks == nil || ks.Runs != samples || len(rep.Kinds) != 1 {
		t.Fatalf("want %d %s runs only, got %v", samples, kind, rep.Kinds)
	}
	if ks.Disagreements != 0 {
		t.Errorf("%s campaign: %d agreement failures", kind, ks.Disagreements)
	}
	if ks.Synced < ks.Runs*9/10 {
		t.Errorf("%s campaign: only %d/%d synchronized", kind, ks.Synced, ks.Runs)
	}
	return ks
}

func TestCampaignFaultFree(t *testing.T) {
	ks := runKind(t, "fault-free", 200, 7, 0)
	if ks.Synced != ks.Runs {
		t.Errorf("fault-free campaign: only %d/%d synchronized", ks.Synced, ks.Runs)
	}
	if ks.WorstStartup > wsup4 {
		t.Errorf("measured startup %d exceeds the paper's w_sup bound %d", ks.WorstStartup, wsup4)
	}
}

func TestCampaignFaultyNode(t *testing.T) {
	ks := runKind(t, "faulty-node", 300, 11, 6)
	if ks.WorstStartup > wsup4 {
		t.Errorf("measured startup %d exceeds the paper's w_sup bound %d", ks.WorstStartup, wsup4)
	}
}

func TestCampaignFaultyHub(t *testing.T) {
	runKind(t, "faulty-hub", 300, 13, 0)
}
