package ttastartup_test

// One benchmark per table and figure of the paper's evaluation, at Quick
// scale so the whole suite runs in minutes (use cmd/ttabench -full for the
// paper's parameters). The shapes under comparison — who wins, how cost
// grows with fault degree and cluster size, where the bounded engine beats
// the symbolic one — are documented per experiment in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"

	"ttastartup/internal/core"
	"ttastartup/internal/exp"
	"ttastartup/internal/mc"
	"ttastartup/internal/sim/mcfi"
	"ttastartup/internal/tta"
	"ttastartup/internal/tta/startup"
)

// BenchmarkFig3FaultDegreeMatrix regenerates the fault-degree matrix.
func BenchmarkFig3FaultDegreeMatrix(b *testing.B) {
	for b.Loop() {
		m := tta.DegreeMatrix()
		if m[5][0] != 6 || m[0][0] != 1 {
			b.Fatal("matrix wrong")
		}
	}
}

// BenchmarkFig4 measures verification time per fault degree (three lemmas
// at each degree, like the paper's Fig. 4 rows).
func BenchmarkFig4(b *testing.B) {
	for _, degree := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			for b.Loop() {
				if _, _, _, err := exp.Fig4(context.Background(), exp.Quick, 3, []int{degree}, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Formulas evaluates the closed-form scenario counts.
func BenchmarkFig5Formulas(b *testing.B) {
	for b.Loop() {
		if _, _, _, err := exp.Fig5(context.Background(), exp.Quick, []int{3, 4, 5}, false, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5StateCount measures the exact reachable-state count of the
// degree-6 faulty-node model (the paper's 2^27..2^43 discussion).
func BenchmarkFig5StateCount(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for b.Loop() {
				if _, _, _, err := exp.Fig5(context.Background(), exp.Quick, []int{n}, true, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFig6 runs one Fig. 6 sub-table row.
func benchFig6(b *testing.B, lemma core.Lemma, n int) {
	b.Helper()
	for b.Loop() {
		rows, _, _, err := exp.Fig6(context.Background(), exp.Quick, lemma, []int{n}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].Holds {
			b.Fatalf("lemma %v violated at n=%d", lemma, n)
		}
	}
}

// BenchmarkFig6a: exhaustive fault simulation, safety, faulty node.
func BenchmarkFig6a(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchFig6(b, core.LemmaSafety, n) })
	}
}

// BenchmarkFig6b: exhaustive fault simulation, liveness, faulty node.
func BenchmarkFig6b(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchFig6(b, core.LemmaLiveness, n) })
	}
}

// BenchmarkFig6c: exhaustive fault simulation, timeliness, faulty node.
func BenchmarkFig6c(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchFig6(b, core.LemmaTimeliness, n) })
	}
}

// BenchmarkFig6d: exhaustive fault simulation, safety-2, faulty hub.
func BenchmarkFig6d(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchFig6(b, core.LemmaSafety2, n) })
	}
}

// BenchmarkBaselineExplicitVsSymbolic reproduces the Section 3 comparison
// on the original bus-topology algorithm.
func BenchmarkBaselineExplicitVsSymbolic(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for b.Loop() {
				rows, _, err := exp.Baseline(context.Background(), []int{n}, true)
				if err != nil {
					b.Fatal(err)
				}
				_ = rows
			}
		})
	}
}

// BenchmarkBigBang reproduces the Section 5.2 design exploration with both
// the symbolic and the bounded engine.
func BenchmarkBigBang(b *testing.B) {
	b.Run("symbolic", func(b *testing.B) {
		for b.Loop() {
			cfg := startup.DefaultConfig(3).WithFaultyHub(0)
			cfg.DeltaInit = 4
			cfg.DisableBigBang = true
			s, err := core.NewSuite(cfg, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.CheckCtx(context.Background(), core.LemmaSafety, core.EngineSymbolic)
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != mc.Violated {
				b.Fatal("expected violation")
			}
		}
	})
	b.Run("bmc", func(b *testing.B) {
		for b.Loop() {
			cfg := startup.DefaultConfig(3).WithFaultyHub(0)
			cfg.DeltaInit = 4
			cfg.DisableBigBang = true
			s, err := core.NewSuite(cfg, core.Options{BMCDepth: 16})
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.CheckCtx(context.Background(), core.LemmaSafety, core.EngineBMC)
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != mc.Violated {
				b.Fatal("expected violation")
			}
		}
	})
}

// BenchmarkWorstCase reproduces the Section 5.3 bound sweep.
func BenchmarkWorstCase(b *testing.B) {
	for b.Loop() {
		rows, _, err := exp.WorstCase(context.Background(), exp.Quick, []int{3})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Measured <= 0 || rows[0].Measured > rows[0].Paper {
			b.Fatalf("w_sup %d out of range", rows[0].Measured)
		}
	}
}

// BenchmarkFeedbackAblation reproduces the Section 5.1 comparison.
func BenchmarkFeedbackAblation(b *testing.B) {
	for _, fb := range []bool{true, false} {
		b.Run(fmt.Sprintf("feedback=%v", fb), func(b *testing.B) {
			for b.Loop() {
				cfg := startup.DefaultConfig(3).WithFaultyNode(1)
				cfg.DeltaInit = 4
				cfg.Feedback = fb
				s, err := core.NewSuite(cfg, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.CheckCtx(context.Background(), core.LemmaSafety, core.EngineSymbolic)
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != mc.Holds {
					b.Fatal("safety violated")
				}
			}
		})
	}
}

// BenchmarkFaultInjectionCampaign measures the Monte-Carlo simulator (the
// statistical counterpart of exhaustive fault simulation).
func BenchmarkFaultInjectionCampaign(b *testing.B) {
	sp := mcfi.Spec{N: 4, Samples: 500, Seed: 1, Degree: 6, Mix: map[string]int{"faulty-node": 1}}
	for b.Loop() {
		rep, err := mcfi.Run(context.Background(), sp, mcfi.RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if ks := rep.Kinds["faulty-node"]; ks.Disagreements != 0 {
			b.Fatal("agreement failure in campaign")
		}
	}
}
