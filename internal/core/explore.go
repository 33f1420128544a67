package core

import (
	"context"
	"fmt"
	"time"

	"ttastartup/internal/mc"
)

// BoundProbe records one step of the worst-case-startup-time sweep: the
// timeliness property instantiated at Bound either held or produced a
// counterexample.
type BoundProbe struct {
	Bound    int
	Holds    bool
	Duration time.Duration
}

// WorstCaseResult is the outcome of the Section 5.3 exploration.
type WorstCaseResult struct {
	// WSup is the measured worst-case startup time: the smallest bound for
	// which the timeliness lemma holds.
	WSup int
	// PaperWSup is the paper's closed-form prediction 7·round − 5·slot.
	PaperWSup int
	// Probes lists every bound probed, in sweep order (the paper's
	// methodology: start low, increase until counterexamples vanish).
	Probes []BoundProbe
}

// WorstCaseStartup reproduces the Section 5.3 exploration: model check the
// timeliness property for increasing bounds until counterexamples are no
// longer produced. startFrom chooses the first bound probed (the paper
// "set it first to some small explicit value, e.g. 12"); 0 means half the
// paper's prediction.
//
// Every probe runs on the symbolic engine of the source model, whatever
// Options.Opt says (checkSource): the probes share that engine's reachable
// set, which makes each probe cheap after the first, while an optimized
// model would be sliced anew for every bound.
func (s *Suite) WorstCaseStartup(ctx context.Context, startFrom int) (*WorstCaseResult, error) {
	paper := s.Model.P.WorstCaseStartup()
	bound := startFrom
	if bound <= 0 {
		bound = paper / 2
	}
	maxBound := s.Cfg.Params().MaxCount() - 1
	res := &WorstCaseResult{PaperWSup: paper, WSup: -1}
	for ; bound <= maxBound; bound++ {
		begin := time.Now()
		r, err := s.checkSource(ctx, s.Model.Timeliness(bound))
		if err != nil {
			return nil, err
		}
		probe := BoundProbe{Bound: bound, Holds: r.Verdict == mc.Holds, Duration: time.Since(begin)}
		res.Probes = append(res.Probes, probe)
		if probe.Holds {
			res.WSup = bound
			return res, nil
		}
	}
	return nil, fmt.Errorf("core: no finite startup bound below %d (timeliness violated everywhere)", maxBound)
}
