package exp

// The Monte-Carlo fault-injection experiment (`ttabench -exp sim`): the
// randomized counterpart of the exhaustive Fig. 6 runs, measured along
// three axes and committed as BENCH_sim.json.
//
//  1. Throughput: a mixed-mix mcfi campaign at n=4 — runs/s and slots/s of
//     the batch pool, plus the classification totals the campaign report
//     carries (violations must be zero for in-hypothesis kinds).
//  2. Coverage: a small-scope in-hypothesis campaign whose visited abstract
//     states are compared against the exhaustive reachable sets of the
//     verified model (the conformance theorem lifted to the abstraction:
//     visited ⊆ model union, with the attained fraction reported).
//  3. Replay: every violating or near-violating corpus entry driven back
//     through the verified gcl model with the lemma predicates cross-checked
//     on the mapped states.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"ttastartup/internal/obs"
	"ttastartup/internal/sim/mcfi"
)

// SimThroughput summarises the big mixed campaign.
type SimThroughput struct {
	N           int                        `json:"n"`
	Samples     int                        `json:"samples"`
	Seed        int64                      `json:"seed"`
	Digest      string                     `json:"digest"`
	CPUMS       int64                      `json:"cpu_ms"`
	RunsPerSec  float64                    `json:"runs_per_sec"`
	SlotsPerSec float64                    `json:"slots_per_sec"`
	Violations  int                        `json:"violations"`
	Exceedances int                        `json:"exceedances"`
	Near        int                        `json:"near"`
	CorpusSize  int                        `json:"corpus_size"`
	CoverStates int                        `json:"cover_states"`
	CoverEdges  int                        `json:"cover_edges"`
	EdgeSpace   int                        `json:"edge_space"`
	Kinds       map[string]*mcfi.KindStats `json:"kinds"`
}

// SimCoverage summarises the small-scope coverage comparison.
type SimCoverage struct {
	N               int                  `json:"n"`
	DeltaInit       int                  `json:"delta_init"`
	Degree          int                  `json:"degree"`
	Samples         int                  `json:"samples"`
	CPUMS           int64                `json:"cpu_ms"`
	VisitedAbstract int                  `json:"visited_abstract"`
	ModelAbstract   int                  `json:"model_abstract"`
	Outside         int                  `json:"outside"` // must be 0
	Fraction        float64              `json:"fraction"`
	Configs         []mcfi.ModelCoverage `json:"configs"`
}

// SimReplay summarises the differential-replay pass.
type SimReplay struct {
	Entries  int   `json:"entries"`
	Failures int   `json:"failures"` // must be 0
	CPUMS    int64 `json:"cpu_ms"`
}

// SimReport is the BENCH_sim.json document.
type SimReport struct {
	Scale      string        `json:"scale"`
	Throughput SimThroughput `json:"throughput"`
	Coverage   SimCoverage   `json:"coverage"`
	Replay     SimReplay     `json:"replay"`
}

// simSpecs returns the two campaign specs at this scale: the mixed
// throughput campaign and the in-hypothesis coverage campaign. The coverage
// scope stays tiny even at full scale — its cost is the model BFS, not the
// sampling — but full scale samples an order of magnitude more scenarios.
func simSpecs(scale Scale) (throughput, coverage mcfi.Spec) {
	throughput = mcfi.Spec{N: 4, Samples: 20_000, Seed: 1}
	coverage = mcfi.Spec{
		N: 3, Samples: 1_000, Seed: 2, DeltaInit: 2, Degree: 2,
		Mix: map[string]int{"fault-free": 1, "faulty-node": 2, "faulty-hub": 2, "restart": 2},
	}
	if scale == Full {
		throughput.Samples = 1_000_000
		coverage.Samples = 10_000
	}
	return throughput, coverage
}

// SimFuzz runs the fault-injection experiment. workers sizes the mcfi batch
// pool (0: GOMAXPROCS).
func SimFuzz(ctx context.Context, scale Scale, workers int) (*SimReport, string, error) {
	tpSpec, covSpec := simSpecs(scale)
	rep := &SimReport{Scale: scale.String()}

	// 1. Throughput.
	begin := time.Now()
	tp, err := mcfi.Run(ctx, tpSpec, mcfi.RunOptions{Workers: workers})
	if err != nil {
		return nil, "", fmt.Errorf("sim throughput: %w", err)
	}
	elapsed := time.Since(begin)
	var slots int64
	for _, ks := range tp.Kinds {
		slots += ks.TotalSlots
	}
	rep.Throughput = SimThroughput{
		N: tp.Spec.N, Samples: tp.Samples, Seed: tp.Spec.Seed, Digest: tp.Digest,
		CPUMS:       elapsed.Milliseconds(),
		RunsPerSec:  float64(tp.Samples) / elapsed.Seconds(),
		SlotsPerSec: float64(slots) / elapsed.Seconds(),
		Violations:  tp.Violations, Exceedances: tp.Exceedances, Near: tp.Near,
		CorpusSize: len(tp.Corpus), CoverStates: tp.CoverStates,
		CoverEdges: tp.CoverEdges, EdgeSpace: tp.EdgeSpace,
		Kinds: tp.Kinds,
	}

	// 2. Coverage vs the verified model at a small scope.
	begin = time.Now()
	cov, err := mcfi.Run(ctx, covSpec, mcfi.RunOptions{Workers: workers})
	if err != nil {
		return nil, "", fmt.Errorf("sim coverage campaign: %w", err)
	}
	cmp, err := mcfi.CompareCoverage(covSpec, cov.Visited)
	if err != nil {
		return nil, "", fmt.Errorf("sim coverage model: %w", err)
	}
	rep.Coverage = SimCoverage{
		N: cov.Spec.N, DeltaInit: cov.Spec.DeltaInit, Degree: cov.Spec.Degree,
		Samples: cov.Samples, CPUMS: time.Since(begin).Milliseconds(),
		VisitedAbstract: cmp.Visited, ModelAbstract: cmp.Model,
		Outside: cmp.Outside, Fraction: float64(cmp.Inside()) / float64(cmp.Model),
		Configs: cmp.Configs,
	}
	if cmp.Outside > 0 {
		return nil, "", fmt.Errorf("sim coverage: %d visited abstract states outside the model", cmp.Outside)
	}

	// 3. Differential replay of every violating/near entry of both corpora.
	begin = time.Now()
	replayed, failures := 0, 0
	for _, c := range []struct {
		spec mcfi.Spec
		rep  *mcfi.Report
	}{{tpSpec, tp}, {covSpec, cov}} {
		var entries []mcfi.CorpusEntry
		for _, e := range c.rep.Corpus {
			if e.Violation || e.HasReason(mcfi.ReasonNear) {
				entries = append(entries, e)
			}
		}
		if len(entries) == 0 {
			continue
		}
		results, err := mcfi.ReplayCorpusCtx(ctx, c.spec, entries, workers, obs.Scope{})
		if err != nil {
			return nil, "", fmt.Errorf("sim replay: %w", err)
		}
		for _, r := range results {
			replayed++
			if !r.OK {
				failures++
			}
		}
	}
	rep.Replay = SimReplay{Entries: replayed, Failures: failures, CPUMS: time.Since(begin).Milliseconds()}
	if failures > 0 {
		return nil, "", fmt.Errorf("sim replay: %d entries failed the model cross-check", failures)
	}

	return rep, simTable(rep), nil
}

func simTable(r *SimReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Monte-Carlo fault injection (mcfi, %s scale)\n", r.Scale)
	t := r.Throughput
	fmt.Fprintf(&b, "  throughput: n=%d, %d runs in %.1fs — %.0f runs/s, %.2e slots/s\n",
		t.N, t.Samples, float64(t.CPUMS)/1000, t.RunsPerSec, t.SlotsPerSec)
	fmt.Fprintf(&b, "    violations=%d exceedances=%d near=%d corpus=%d coverage=%d states %d/%d edges\n",
		t.Violations, t.Exceedances, t.Near, t.CorpusSize, t.CoverStates, t.CoverEdges, t.EdgeSpace)
	c := r.Coverage
	fmt.Fprintf(&b, "  coverage:  n=%d δ_init=%d δ_failure=%d, %d runs visited %d/%d model abstract states (%.1f%%), %d outside\n",
		c.N, c.DeltaInit, c.Degree, c.Samples, c.VisitedAbstract-c.Outside, c.ModelAbstract, 100*c.Fraction, c.Outside)
	for _, d := range c.Configs {
		fmt.Fprintf(&b, "    %-16s %8d reachable, %4d abstract\n", d.Name, d.Reachable, d.AbstractStates)
	}
	fmt.Fprintf(&b, "  replay:    %d violating/near entries cross-checked through the gcl model, %d failures\n",
		r.Replay.Entries, r.Replay.Failures)
	b.WriteString("  randomized campaigns corroborate the lemmas: zero in-hypothesis violations,\n")
	b.WriteString("  every visited abstract state inside the exhaustively-checked set\n")
	return b.String()
}

// WriteSimReport writes the report as the BENCH_sim.json document.
func WriteSimReport(w io.Writer, r *SimReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
