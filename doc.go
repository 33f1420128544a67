// Package ttastartup reproduces "Model Checking a Fault-Tolerant Startup
// Algorithm: From Design Exploration To Exhaustive Fault Simulation"
// (Steiner, Rushby, Sorea, Pfeifer; DSN 2004) as a self-contained Go
// library: the fault-tolerant startup algorithm of the Time-Triggered
// Architecture, a guarded-command modelling language, five model-checking
// engines built from scratch (explicit-state, BDD-based symbolic,
// SAT-based bounded, k-induction, and IC3/PDR for unbounded invariant
// proofs), a concrete cluster simulator with Monte-Carlo fault
// injection, and a benchmark harness that regenerates every table and
// figure of the paper's evaluation.
//
// Layout:
//
//	internal/gcl          the modelling language ("mini-SAL")
//	internal/gcl/lint     semantic static analyzer for gcl models
//	internal/circuit      and-inverter-graph boolean circuits
//	internal/bdd          ROBDD engine
//	internal/sat          CDCL SAT solver
//	internal/mc           engine-independent model-checking vocabulary
//	internal/mc/explicit  explicit-state engine
//	internal/mc/symbolic  BDD-based symbolic engine
//	internal/mc/bmc       SAT-based bounded model checking and k-induction
//	internal/mc/ic3       IC3/PDR unbounded invariant proofs
//	internal/tta          TTA domain parameters and fault degrees
//	internal/tta/startup  the verified startup-algorithm model
//	internal/tta/original the baseline bus-topology algorithm
//	internal/tta/sim      concrete simulator and fault injection
//	internal/core         top-level verification API
//	internal/campaign     parallel, checkpointed verification campaigns
//	internal/exp          the paper's evaluation experiments
//	cmd/ttamc             model-checking CLI
//	cmd/ttalint           static-analysis CLI over the built-in models
//	internal/sim/mcfi     Monte-Carlo fault-injection campaigns
//	cmd/ttasim            one traced simulation (a campaign scenario by index)
//	cmd/ttasimfuzz        run Monte-Carlo fault-injection campaigns
//	cmd/ttabench          regenerate the paper's tables and figures
//	cmd/ttacampaign       run verification campaigns (sweep, resume, report)
//
// Static analysis: internal/gcl/lint checks finalized models beyond the
// shape checks Finalize performs — BDD-exact unreachable-command, stuck-
// module, conflicting-write, out-of-range-update, and dead-fallback
// detection (satisfiability over the domain-constrained boolean
// compilation, with concrete witnesses), plus dead-variable and interval
// analyses. Diagnostics carry stable GCL001..GCL010 codes; cmd/ttamc
// refuses models with error-level findings unless run with -lint=off. See
// the "Static analysis" section of README.md for the code table.
//
// Campaigns: internal/campaign orchestrates sweeps of independent
// model-checking jobs — the shape of the paper's exhaustive fault
// simulation — on a bounded worker pool with share-nothing suites.
// Cancellation is plumbed via context.Context into every engine's hot
// loop (the non-Ctx entry points remain as background-context wrappers);
// finished jobs are fsynced JSONL records with verdicts, counterexample
// digests, and engine statistics, so an interrupted campaign resumes
// without recomputation and reproduces the same final report; jobs that
// exceed a per-job deadline are recorded inconclusive or rescued by the
// bounded engine. cmd/ttacampaign is the CLI; cmd/ttabench -j/-json reuse
// the runner, and its pool helper campaign.ForEach is the one goroutine
// pool of the repository (mcfi batches and replay, cmd/ttalint -all -j).
//
// The benchmarks in bench_test.go exercise one experiment per paper table
// or figure; EXPERIMENTS.md records paper-versus-measured outcomes.
package ttastartup
