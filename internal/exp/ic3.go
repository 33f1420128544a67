package exp

import (
	"context"
	"fmt"
	"time"

	"ttastartup/internal/campaign"
)

// This file implements the IC3-vs-k-induction comparison: the two
// SAT-backed provers run the same safety lemmas side by side, reporting
// wall time and SAT-query counts per lemma. The sweep covers both proof
// directions — configurations whose safety lemma holds (IC3 returns an
// unbounded proof, k-induction an inductive one) and configurations whose
// lemma fails (both refute with a counterexample trace). It routes through
// the campaign runner, so -json emits the same record schema as the
// ttacampaign store.

// ic3Pairs expands the comparison sweep in table order; each pair is run
// once per engine. The bus topology carries the proving rows (its state
// space is small enough for both SAT provers to close unboundedly); the
// degree-3 bus rows and the no-big-bang faulty-hub clique scenario
// (Section 5.2) carry the refutation rows.
func ic3Pairs(scale Scale, ns []int) []campaign.Job {
	if len(ns) == 0 {
		ns = []int{3, 4}
	}
	var jobs []campaign.Job
	for _, n := range ns {
		for _, deg := range []int{1, 3} {
			jobs = append(jobs, campaign.Job{
				Topology:   campaign.TopologyBus,
				N:          n,
				FaultyNode: n / 2,
				FaultyHub:  -1,
				Degree:     deg,
				DeltaInit:  scale.deltaInit(n),
				Lemma:      "safety",
				Engine:     "ic3",
			})
		}
	}
	// The design-exploration clique violation: big-bang off, faulty hub.
	jobs = append(jobs, campaign.Job{
		Topology:  campaign.TopologyHub,
		N:         3,
		BigBang:   false,
		FaultyHub: 0, FaultyNode: -1,
		DeltaInit: scale.deltaInit(3),
		Lemma:     "safety",
		Engine:    "ic3",
	})
	return jobs
}

// IC3Compare runs the IC3-vs-induction sweep on a campaign worker pool and
// returns one row per engine run, the raw campaign records (in job order),
// and the rendered table.
func IC3Compare(ctx context.Context, scale Scale, ns []int, workers int) ([]Row, []campaign.Record, string, error) {
	pairs := ic3Pairs(scale, ns)
	var jobs []campaign.Job
	for _, p := range pairs {
		for _, eng := range []string{"ic3", "induction"} {
			j := p
			j.Engine = eng
			jobs = append(jobs, j)
		}
	}
	opts := campaignOpts(scale, workers)
	// A per-job budget turns an engine regression into an "inconclusive
	// (deadline)" row instead of a hung table.
	opts.Timeout = 5 * time.Minute
	rows, recs, err := runTable(ctx, "ic3", jobs, func(j campaign.Job) string {
		if j.Topology == campaign.TopologyHub {
			return "hub no-big-bang faulty-hub"
		}
		return fmt.Sprintf("bus δ_failure=%d", j.Degree)
	}, mRounds|mCex, opts)
	if err != nil {
		return nil, nil, "", err
	}
	return rows, recs, renderTable(fmt.Sprintf("IC3 vs k-induction — the SAT provers, wall time and SAT queries per lemma (%s scale)", scale), rows,
		"rounds are IC3 frames and induction depth k; cpu is the job's wall time",
		"IC3 proves unboundedly without unrolling (many small queries); k-induction",
		"unrolls until the lemma is k-inductive; both refute with replayable traces"), nil
}
