package exp

// The liveness-to-safety experiment: measure what the l2s product
// (internal/gcl/l2s — shadow state, save oracle, loop-closure detector)
// buys the SAT engines on the shipped liveness lemmas, against the BDD
// engine's native ¬EG¬p fixpoint as ground truth. Every exact engine is
// required to agree with the symbolic verdict, bounded rows may stop
// early but must never contradict it, and every refutation must come
// back as a projected lasso on the source state space.

import (
	"fmt"

	"ttastartup/internal/campaign"
	"ttastartup/internal/core"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/symbolic"
)

// L2SCompare checks the liveness lemma of four model configurations —
// bus with a degree-1 and a degree-3 faulty node, the fault-free hub, and
// the no-big-bang hub clique — on symbolic, BMC, k-induction, and IC3, and
// errors out if any exact engine disagrees with the symbolic verdict, any
// bounded engine contradicts it, or any refutation lacks a lasso.
func L2SCompare(scale Scale, n int) ([]Row, string, error) {
	// δ_init is pinned to 2 on every configuration: the l2s product
	// doubles the state bits, and the hub proof already needs ~20 IC3
	// frames at the narrow window (DESIGN.md).
	bus := func(deg int) campaign.Job {
		return campaign.Job{Topology: campaign.TopologyBus, N: n, FaultyNode: 1, FaultyHub: -1, Degree: deg, DeltaInit: 2, Lemma: "liveness"}
	}
	hub := campaign.Job{Topology: campaign.TopologyHub, N: n, BigBang: true, FaultyNode: -1, FaultyHub: -1, DeltaInit: 2, Lemma: "liveness"}
	clique := campaign.Job{Topology: campaign.TopologyHub, N: n, FaultyNode: -1, FaultyHub: 0, DeltaInit: 2, Lemma: "liveness"}
	cases := []struct {
		label    string
		job      campaign.Job
		indExact bool // simple-path induction closes the product
		maxK     int
	}{
		{"bus-deg1", bus(1), true, 20},
		{"bus-deg3", bus(3), true, 20},
		// Simple-path induction does not close the hub holds-case by k=40
		// (the product's recurrence diameter is deeper), so its row runs
		// capped and is gated on non-contradiction only.
		{"hub", hub, false, 10},
		{"hub-clique", clique, true, 20},
	}

	var rows []Row
	for _, mcase := range cases {
		var truth bool
		for _, engine := range []string{"symbolic", "bmc", "induction", "ic3"} {
			opts := core.Options{Symbolic: symbolic.Options{BDD: scale.bddConfig()}, BMCDepth: 20}
			if engine == "induction" {
				opts.BMCDepth = mcase.maxK
			}
			mcase.job.Engine = engine
			row, res, err := cell{mcase.label, mcase.job, opts}.run(mRounds)
			if err != nil {
				return nil, "", fmt.Errorf("l2s %s: %w", mcase.label, err)
			}
			if engine == "symbolic" {
				truth = res.Verdict == mc.Holds
			}
			// BMC is exact for refutations (and may upgrade to an
			// unbounded proof via the recurrence-diameter fallback), but
			// a bounded pass is acceptable on the holds rows.
			row.Exact = engine == "symbolic" || engine == "ic3" || (engine == "induction" && mcase.indExact) ||
				(engine == "bmc" && !truth)
			if row.Exact {
				want := mc.Holds
				if !truth {
					want = mc.Violated
				}
				if res.Verdict != want {
					return nil, "", fmt.Errorf("l2s %s: %s verdict %v, symbolic says %v", mcase.label, engine, res.Verdict, want)
				}
			} else if res.Verdict == mc.Violated && truth {
				return nil, "", fmt.Errorf("l2s %s: %s refuted a lemma the fixpoint proves", mcase.label, engine)
			}
			if res.Verdict == mc.Violated && (res.Trace == nil || res.Trace.LoopsTo < 0) {
				return nil, "", fmt.Errorf("l2s %s: %s refutation without a lasso", mcase.label, engine)
			}
			rows = append(rows, row)
		}
	}
	return rows, renderTable(fmt.Sprintf("Liveness-to-safety — SAT engines on AF lemmas via the l2s product (%s scale, δ_init=2)", scale), rows,
		"every liveness verdict has independent witnesses; refutations replay as concrete lassos"), nil
}
