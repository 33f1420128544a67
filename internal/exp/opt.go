package exp

// The static-optimizer experiment: measure what the model-optimization
// pipeline (internal/gcl/opt — COI slicing, constant propagation, range
// narrowing) buys end to end on the two shipped model families. The
// pipeline must be invisible to the logic: every off/on pair is required
// to agree on its verdict, and the reductions (state variables, commands,
// encoding bits) are reported next to the wall-clock effect.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"ttastartup/internal/core"
	"ttastartup/internal/mc"
	"ttastartup/internal/mc/symbolic"
	"ttastartup/internal/tta/original"
	"ttastartup/internal/tta/startup"
)

// OptRow is one measurement: one model/lemma checked by the symbolic
// engine with the optimization pipeline off or on.
type OptRow struct {
	Model       string `json:"model"` // "hub" or "bus"
	N           int    `json:"n"`
	Lemma       string `json:"lemma"`
	Opt         bool   `json:"opt"`
	Verdict     string `json:"verdict"`
	Holds       bool   `json:"holds"`
	CPUMS       int64  `json:"cpu_ms"`
	PeakNodes   int    `json:"peak_nodes"`
	VarsDropped int    `json:"vars_dropped,omitempty"`
	CmdsDropped int    `json:"cmds_dropped,omitempty"`
	BitsSaved   int    `json:"bits_saved,omitempty"`
}

// OptBenchReport is the JSON document ttabench -exp opt writes
// (BENCH_opt.json). CPU times vary run to run; verdicts and the reduction
// counts are deterministic.
type OptBenchReport struct {
	Scale string   `json:"scale"`
	N     int      `json:"n"`
	Rows  []OptRow `json:"rows"`
}

// OptCompare checks hub safety and liveness and bus safety with the
// pipeline off and on. It errors out if any off/on pair disagrees on a
// verdict.
func OptCompare(scale Scale, n int) ([]OptRow, string, error) {
	var rows []OptRow
	for _, l := range []core.Lemma{core.LemmaSafety, core.LemmaLiveness} {
		for _, on := range []bool{false, true} {
			row, err := optHub(scale, n, l, on)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, row)
		}
	}
	for _, on := range []bool{false, true} {
		row, err := optBus(scale, n, on)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
	}
	for i := 0; i+1 < len(rows); i += 2 {
		off, on := rows[i], rows[i+1]
		if off.Verdict != on.Verdict || off.Holds != on.Holds {
			return nil, "", fmt.Errorf("opt: the pipeline changed the %s %s verdict: %q vs %q",
				off.Model, off.Lemma, off.Verdict, on.Verdict)
		}
	}
	return rows, optTable(rows, scale), nil
}

func optHub(scale Scale, n int, l core.Lemma, on bool) (OptRow, error) {
	cfg := startup.DefaultConfig(n).WithFaultyNode(n / 2)
	cfg.DeltaInit = scale.deltaInit(cfg.N)
	s, err := core.NewSuite(cfg, core.Options{
		Symbolic: symbolic.Options{BDD: scale.bddConfig(), NoTrace: true},
		Opt:      on,
		Obs:      Obs,
	})
	if err != nil {
		return OptRow{}, err
	}
	res, err := s.Check(l, core.EngineSymbolic)
	if err != nil {
		return OptRow{}, fmt.Errorf("opt hub n=%d %s opt=%v: %w", n, l, on, err)
	}
	return optRow("hub", n, l.String(), on, res), nil
}

func optBus(scale Scale, n int, on bool) (OptRow, error) {
	cfg := original.DefaultConfig(n)
	cfg.FaultyNode = 0
	cfg.FaultDegree = 3
	model, err := original.Build(cfg)
	if err != nil {
		return OptRow{}, err
	}
	res, err := core.Check(context.Background(), model.Sys, model.Safety(), core.EngineSymbolic, core.Options{
		Symbolic: symbolic.Options{BDD: scale.bddConfig(), NoTrace: true},
		Opt:      on,
		Obs:      Obs,
	})
	if err != nil {
		return OptRow{}, fmt.Errorf("opt bus n=%d opt=%v: %w", n, on, err)
	}
	return optRow("bus", n, "safety", on, res), nil
}

func optRow(model string, n int, lemma string, on bool, res *mc.Result) OptRow {
	return OptRow{
		Model: model, N: n, Lemma: lemma, Opt: on,
		Verdict: res.Verdict.String(), Holds: res.Holds(),
		CPUMS:       res.Stats.Duration.Milliseconds(),
		PeakNodes:   res.Stats.PeakNodes,
		VarsDropped: res.Stats.OptVarsDropped,
		CmdsDropped: res.Stats.OptCmdsDropped,
		BitsSaved:   res.Stats.OptBitsSaved,
	}
}

func optTable(rows []OptRow, scale Scale) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Static model optimization — COI slicing, constant propagation, range narrowing (%s scale)\n", scale)
	b.WriteString("  model  n  lemma     opt    verdict   cpu        peak nodes  -vars  -cmds  -bits\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-5s  %d  %-8s  %-5v  %-8s  %-9v  %10d  %5d  %5d  %5d\n",
			r.Model, r.N, r.Lemma, r.Opt, r.Verdict,
			(time.Duration(r.CPUMS) * time.Millisecond).Round(time.Millisecond),
			r.PeakNodes, r.VarsDropped, r.CmdsDropped, r.BitsSaved)
	}
	for i := 0; i+1 < len(rows); i += 2 {
		off, on := rows[i], rows[i+1]
		if off.CPUMS > 0 {
			fmt.Fprintf(&b, "  %s %s: cpu %+.1f%% with the pipeline (-%d bits/frame)\n",
				off.Model, off.Lemma, 100*float64(on.CPUMS-off.CPUMS)/float64(off.CPUMS), on.BitsSaved)
		}
	}
	return b.String()
}

// WriteOptReport writes the rows as the BENCH_opt.json document.
func WriteOptReport(w io.Writer, scale Scale, n int, rows []OptRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(OptBenchReport{Scale: scale.String(), N: n, Rows: rows})
}
