package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// maxSpread is the steadiness self-check's flag level for
// (Q3−Q1)/median.
const maxSpread = 0.10

// steadiness runs the workload cfg.steady times, each in a fresh process
// with the next seed, and prints each end-to-end metric's median,
// quartiles and spread, flagging a spread above maxSpread.
func steadiness(cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < cfg.steady; i++ {
		seed := cfg.seed + int64(i)
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		var res resultLine
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: %d of %d units failed", seed, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Printf("seed %d: %s\n", seed, lines[len(lines)-1])
	}
	fmt.Printf("\n%s, %d runs\n%-14s %12s %12s %12s %8s\n", cfg.workload, cfg.steady, "metric", "median", "Q1", "Q3", "spread")
	for _, m := range endToEnd {
		xs := values[m.name]
		q1, q2, q3 := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		flag := ""
		if spread > maxSpread {
			flag = "  SPREAD"
		}
		fmt.Printf("%-14s %12.4f %12.4f %12.4f %8.3f%s\n", m.name, q2, q1, q3, spread, flag)
	}
	return nil
}
