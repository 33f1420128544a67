package mcfi

// Differential replay: corpus entries are re-expanded from their scenario
// index and driven through the verified gcl model. Three independent
// checks cross-validate every retained trace:
//
//   - determinism: re-execution reproduces the recorded outcome and
//     violation verdict exactly (the corpus really is replayable seeds);
//   - conformance: for in-hypothesis scenarios, every simulator step maps
//     to a transition of the model (the simulator stays inside the
//     behaviours the checkers exhaustively verified);
//   - verdict agreement: the lemma predicates (Lemma 1 agreement, Lemma 2
//     all-active), evaluated on the mapped final state, agree with the
//     simulator's own verdicts. Timeliness is cross-checked arithmetically
//     against w_sup — the model's clock variable observes one slot apart
//     from the simulator and is excluded from the state mapping.
//
// Beyond-hypothesis scenarios (two faulty nodes, node-and-hub) have no
// model counterpart; replay still enforces determinism for them.

import (
	"context"
	"fmt"
	"slices"

	"ttastartup/internal/campaign"
	"ttastartup/internal/gcl"
	"ttastartup/internal/obs"
	"ttastartup/internal/tta/sim"
	"ttastartup/internal/tta/startup"
)

// ReplayResult is the cross-check record for one corpus entry.
type ReplayResult struct {
	Index        uint64 `json:"index"`
	Kind         string `json:"kind"`
	InHypothesis bool   `json:"in_hypothesis"`
	// Deterministic: re-execution reproduced the recorded outcome and
	// reasons.
	Deterministic bool `json:"deterministic"`
	// Conformant: every simulator step was a model transition (vacuously
	// true beyond hypothesis).
	Conformant bool `json:"conformant"`
	// FailSlot is the first non-conformant slot (-1 when conformant).
	FailSlot int `json:"fail_slot"`
	// AgreementMatch / ActiveMatch: Lemma 1 / Lemma 2 predicates on the
	// mapped final state agree with the simulator's verdicts.
	AgreementMatch bool `json:"agreement_match"`
	ActiveMatch    bool `json:"active_match"`
	// TimelinessMatch: the recorded timeliness reason agrees with the
	// re-measured startup time versus w_sup.
	TimelinessMatch bool `json:"timeliness_match"`
	// OK summarises all checks.
	OK bool `json:"ok"`
}

// replayReasons is the recomputed reason set in canonical order, for
// comparison against a corpus entry's recorded reasons (coverage is a
// campaign-relative property, not a per-run one, and is excluded).
func replayReasons(violations, exceeds []string, near bool) []string {
	rs := append(append([]string{}, violations...), exceeds...)
	if near {
		rs = append(rs, ReasonNear)
	}
	slices.Sort(rs)
	return rs
}

// Replay re-expands one corpus entry under sp and cross-checks it.
func Replay(sp Spec, e CorpusEntry) (*ReplayResult, error) {
	sp = sp.Normalize()
	s, err := sp.Scenario(e.Index)
	if err != nil {
		return nil, err
	}
	if s.Seed != e.Seed || s.Kind.String() != e.Kind {
		return nil, fmt.Errorf("mcfi: corpus entry %d does not belong to this spec: regenerated %s seed %d, recorded %s seed %d",
			e.Index, s.Kind, s.Seed, e.Kind, e.Seed)
	}
	res := &ReplayResult{Index: e.Index, Kind: e.Kind, InHypothesis: s.InHypothesis(), FailSlot: -1}

	out, err := s.Execute(nil)
	if err != nil {
		return nil, err
	}
	violations, exceeds, near := classify(sp, s, out)
	recorded := slices.DeleteFunc(append([]string{}, e.Reasons...), func(r string) bool { return r == ReasonCoverage })
	slices.Sort(recorded)
	res.Deterministic = out.Startup == e.Startup && out.Slots == e.Slots &&
		slices.Equal(replayReasons(violations, exceeds, near), recorded) &&
		e.Violation == (len(violations) > 0)

	late := out.Synced && out.Startup > sp.Bound()
	res.TimelinessMatch = late == slices.Contains(append(violations, exceeds...), ReasonTimeliness)

	if !s.InHypothesis() {
		// No verified model contains this scenario; the remaining checks
		// hold vacuously.
		res.Conformant, res.AgreementMatch, res.ActiveMatch = true, true, true
		res.OK = res.Deterministic && res.TimelinessMatch
		return res, nil
	}

	mcfg, ok := s.ModelConfig()
	if !ok {
		return nil, fmt.Errorf("mcfi: in-hypothesis scenario %d has no model config", e.Index)
	}
	m, err := startup.Build(mcfg)
	if err != nil {
		return nil, err
	}
	stepper := gcl.NewStepper(m.Sys)
	ignore := sim.ModelIgnoreVars(m)
	c, err := sim.New(s.Config())
	if err != nil {
		return nil, err
	}

	res.Conformant = true
	prev := sim.ModelState(c, m)
	for c.Slot() < out.Slots {
		c.Step()
		next := sim.ModelState(c, m)
		found := false
		stepper.Successors(prev, func(succ gcl.State) bool {
			if sim.ModelMatches(m, ignore, succ, next) {
				found = true
				return false
			}
			return true
		})
		if !found {
			res.Conformant = false
			res.FailSlot = c.Slot()
			break
		}
		prev = next
	}
	if res.Conformant {
		res.AgreementMatch = gcl.Holds(m.AgreementPred(), prev) == c.Agreement()
		res.ActiveMatch = gcl.Holds(m.AllActivePred(), prev) == c.AllCorrectActive()
	}
	res.OK = res.Deterministic && res.Conformant && res.AgreementMatch &&
		res.ActiveMatch && res.TimelinessMatch
	return res, nil
}

// ReplayCorpusCtx replays every entry on a bounded pool, returning results
// in corpus order. Failed cross-checks are reported in the results (and
// the sim.replays.failed counter), not as an error; an error means replay
// itself could not run.
func ReplayCorpusCtx(ctx context.Context, sp Spec, entries []CorpusEntry, workers int, scope obs.Scope) ([]ReplayResult, error) {
	results := make([]ReplayResult, len(entries))
	err := campaign.ForEach(ctx, workers, len(entries), func(ctx context.Context, _, i int) error {
		r, err := Replay(sp, entries[i])
		if err != nil {
			return err
		}
		results[i] = *r
		return nil
	})
	if err != nil {
		return nil, err
	}
	failed := 0
	for i := range results {
		if !results[i].OK {
			failed++
		}
	}
	scope.Reg.Counter(obs.MSimReplays).Add(int64(len(results)))
	scope.Reg.Counter(obs.MSimReplayFails).Add(int64(failed))
	return results, nil
}
