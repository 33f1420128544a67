package core

import (
	"fmt"
	"time"

	"ttastartup/internal/mc"
	"ttastartup/internal/tta/startup"
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
// longer produced. The symbolic engine's cached reachable set makes each
// probe cheap after the first. startFrom chooses the first bound probed
// (the paper "set it first to some small explicit value, e.g. 12"); 0
// means half the paper's prediction.
func (s *Suite) WorstCaseStartup(startFrom int) (*WorstCaseResult, error) {
	eng, err := s.symbolic()
	if err != nil {
		return nil, err
	}
	paper := s.Model.P.WorstCaseStartup()
	bound := startFrom
	if bound <= 0 {
		bound = paper / 2
	}
	maxBound := s.Cfg.Params().MaxCount() - 1
	res := &WorstCaseResult{PaperWSup: paper, WSup: -1}
	for ; bound <= maxBound; bound++ {
		begin := time.Now()
		r, err := eng.CheckInvariant(s.Model.Timeliness(bound))
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

// BigBangResult is the outcome of the Section 5.2 design exploration: with
// the big-bang mechanism disabled the safety lemmas must fail, and the
// bounded engine should find the shallow clique counterexample.
type BigBangResult struct {
	// Symbolic is the symbolic engine's verdict on the safety property.
	Symbolic *mc.Result
	// Bounded is the bounded engine's verdict (and depth) on the same
	// property.
	Bounded *mc.Result
}

// BigBangExploration builds the big-bang-disabled variant of cfg and
// checks the safety property with both the symbolic and the bounded
// engine, reproducing the Section 5.2 experiment. The returned traces
// exhibit the clique scenario.
func BigBangExploration(cfg startup.Config, opts Options) (*BigBangResult, error) {
	cfg.DisableBigBang = true
	s, err := NewSuite(cfg, opts)
	if err != nil {
		return nil, err
	}
	lemma := LemmaSafety
	if cfg.FaultyHub >= 0 {
		lemma = LemmaSafety2
	}
	symRes, err := s.Check(lemma, EngineSymbolic)
	if err != nil {
		return nil, err
	}
	bmcRes, err := s.Check(lemma, EngineBMC)
	if err != nil {
		return nil, err
	}
	return &BigBangResult{Symbolic: symRes, Bounded: bmcRes}, nil
}
