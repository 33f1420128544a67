package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ttastartup/internal/campaign"
	"ttastartup/internal/mc"
)

// The committed outcome tables. Every run compares each unit's verdict,
// counterexample digest and deterministic engine counters against them,
// so a change that speeds a layer up by changing an answer counts as a
// failed unit, not as a gain.
//
//go:embed expected/*.json
var expectedFS embed.FS

// outcome is everything about one unit that must repeat exactly.
type outcome struct {
	Verdict   string `json:"verdict"`
	CexDigest string `json:"cex_digest,omitempty"`
	PeakNodes int    `json:"bdd_peak_nodes,omitempty"`
	Conflicts int    `json:"sat_conflicts,omitempty"`
	IC3Frames int    `json:"ic3_frames,omitempty"`
	BitsSaved int    `json:"opt_bits_saved,omitempty"`
}

// table is one workload's expected outcomes.
type table struct {
	Units map[string]outcome `json:"units"`
	// HitRatio and MCFIDigest are serve-mixed's stream-level counters;
	// every seed builds the same number of units per category, so both
	// are the same for every seed.
	HitRatio   float64 `json:"serve_hit_ratio,omitempty"`
	MCFIDigest string  `json:"mcfi_digest,omitempty"`
}

func loadTable(workload string) (*table, error) {
	data, err := expectedFS.ReadFile("expected/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("no expected table for %s: %w", workload, err)
	}
	var t table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("expected table for %s: %w", workload, err)
	}
	return &t, nil
}

// writeTable stores t as perfbench/expected/<workload>.json, relative to
// the repository root the benchmark runs from.
func writeTable(workload string, t *table) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "expected", workload+".json"), append(data, '\n'), 0o644)
}

func recordOutcome(rec campaign.Record) outcome {
	o := outcome{
		Verdict:   rec.Verdict,
		CexDigest: rec.CexDigest,
		PeakNodes: rec.Stats.PeakNodes,
		Conflicts: rec.Stats.Conflicts,
		BitsSaved: rec.Stats.OptBitsSaved,
	}
	if rec.Job.Engine == "ic3" {
		o.IC3Frames = rec.Stats.Iterations
	}
	if rec.Error != "" {
		o.Verdict = "error: " + rec.Error
	}
	return o
}

func resultOutcome(engine string, res *mc.Result, cex string) outcome {
	o := outcome{
		Verdict:   res.Verdict.String(),
		CexDigest: cex,
		PeakNodes: res.Stats.PeakNodes,
		Conflicts: res.Stats.Conflicts,
		BitsSaved: res.Stats.OptBitsSaved,
	}
	if engine == "ic3" {
		o.IC3Frames = res.Stats.Iterations
	}
	return o
}

// checker compares observed outcomes with a table and counts units. In
// record mode it fills the table instead, insisting only that repeated
// observations of one unit agree.
type checker struct {
	want      *table
	record    bool
	attempted int
	failed    int
	problems  []string
}

func (c *checker) unit(key string, got outcome) {
	c.attempted++
	if c.record {
		if prev, ok := c.want.Units[key]; ok && prev != got {
			c.fail("%s: %+v, earlier %+v", key, got, prev)
		}
		c.want.Units[key] = got
		return
	}
	want, ok := c.want.Units[key]
	switch {
	case !ok:
		c.fail("%s: not in the expected table", key)
	case strings.HasPrefix(got.Verdict, "inconclusive") || strings.HasPrefix(got.Verdict, "error"):
		c.fail("%s: %s", key, got.Verdict)
	case got != want:
		c.fail("%s: got %+v, want %+v", key, got, want)
	}
}

// failUnit counts a unit that produced no outcome at all.
func (c *checker) failUnit(format string, args ...any) {
	c.attempted++
	c.fail(format, args...)
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// mismatch reports a stream-level counter that differs from the table
// (or records it in record mode). It counts as a failure but not as a
// unit.
func (c *checker) mismatch(name string, got, want any, set func()) {
	if c.record {
		set()
		return
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		c.fail("%s: got %v, want %v", name, got, want)
	}
}

func (c *checker) report() {
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
}
