GO ?= go

# `make check` is the tier-1 gate: formatting, vet, build, the full test
# suite under the race detector, the static analyzer over every shipped
# model configuration, the campaign, IC3, and observability smoke tests,
# and a short run of both fuzz harnesses.
.PHONY: check
check: fmt vet build race lint-models campaign-smoke ic3-smoke obs-smoke fuzz-smoke sim-smoke served-smoke

.PHONY: fmt
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# go vet plus the repo's own analyzers (cmd/ttavet): *Ctx parameter
# convention, obs nil-receiver discipline, wall-clock ban in the
# deterministic kernels.
.PHONY: vet
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/ttavet .

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

# Non-test Go line and file count, the size figure ROADMAP.md tracks
# (perfbench/ and its .bench_build/ directory are left out).
.PHONY: loc
loc:
	@sh scripts/loc.sh

# The race detector slows the fixpoint-heavy proof packages well past go
# test's default 10-minute per-package budget, hence the explicit timeout.
.PHONY: race
race:
	$(GO) test -race -timeout 45m ./...

# Lint the built-in TTA models: both topologies, big-bang on and off, all
# fault degrees. Fails on any error-level diagnostic.
.PHONY: lint-models
lint-models:
	$(GO) run ./cmd/ttalint -all -j 0

# Campaign smoke test: run a tiny n=3 sweep on two workers, cancel it
# gracefully after three jobs (the -cancel-after testing hook), then resume
# from the JSONL store and require the resumed run to skip recorded jobs
# and complete the report.
CAMPAIGN_SMOKE_OUT := .campaign-smoke.jsonl
.PHONY: campaign-smoke
campaign-smoke:
	@rm -f $(CAMPAIGN_SMOKE_OUT)
	$(GO) run ./cmd/ttacampaign -n 3 -degrees 1,2,3 -delta-init 4 -j 2 \
		-out $(CAMPAIGN_SMOKE_OUT) -cancel-after 3 -quiet -heartbeat 0 -no-report
	$(GO) run ./cmd/ttacampaign -n 3 -degrees 1,2,3 -delta-init 4 -j 2 \
		-out $(CAMPAIGN_SMOKE_OUT) -resume -quiet -heartbeat 0 -no-report
	@rm -f $(CAMPAIGN_SMOKE_OUT)

# IC3 smoke test: prove the n=3 safety lemma unboundedly with IC3 (the bus
# topology closes in under a second; the hub lemma needs minutes — see
# README), then exercise mid-run cancellation under the race detector so an
# interrupted SAT query is never misread as a proof.
.PHONY: ic3-smoke
ic3-smoke:
	$(GO) run ./cmd/ttacampaign -n 3 -topologies bus -degrees 1 -lemmas safety \
		-engines ic3 -delta-init 2 -quiet -heartbeat 0
	$(GO) test -race -run 'TestIC3CancelMidRun|TestTTAEnginesAgree/bus' ./internal/mc/ic3/ ./internal/mc/

# Fuzz smoke test: a fixed slice of both differential fuzz harnesses — the
# BDD register machine with auto-reordering against truth-table oracles,
# and random well-typed gcl expressions across interpreter, circuit and
# BDD semantics. The committed corpora under testdata/fuzz replay in plain
# `go test`; this target additionally mutates for 10 seconds each.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBDDOps$$' -fuzztime 10s ./internal/bdd
	$(GO) test -run '^$$' -fuzz '^FuzzExprEval$$' -fuzztime 10s ./internal/gcl

# Simulation-campaign smoke test: pause a Monte-Carlo fault-injection
# campaign after three batches, resume it on a different worker count, run
# the same spec fresh, and require the two reports to be byte-identical —
# the mcfi determinism contract end to end, including the replay pass.
# Then take the fresh corpus's first entry that is not fault-free and
# require `ttasim -seed 7 -index K` to reproduce it (same scenario string).
SIM_SMOKE_DIR := .sim-smoke
.PHONY: sim-smoke
sim-smoke:
	@rm -rf $(SIM_SMOKE_DIR); mkdir -p $(SIM_SMOKE_DIR)
	$(GO) run ./cmd/ttasimfuzz -n 4 -samples 3000 -batch 500 -seed 7 -j 2 \
		-out $(SIM_SMOKE_DIR)/campaign.jsonl -stop-after-batches 3 -replay=false >/dev/null
	$(GO) run ./cmd/ttasimfuzz -n 4 -samples 3000 -batch 500 -seed 7 -j 4 \
		-out $(SIM_SMOKE_DIR)/campaign.jsonl -resume -report $(SIM_SMOKE_DIR)/resumed.json >/dev/null
	$(GO) run ./cmd/ttasimfuzz -n 4 -samples 3000 -batch 500 -seed 7 -j 1 \
		-out $(SIM_SMOKE_DIR)/fresh.jsonl -report $(SIM_SMOKE_DIR)/fresh.json \
		-corpus $(SIM_SMOKE_DIR)/corpus.jsonl >/dev/null
	cmp $(SIM_SMOKE_DIR)/resumed.json $(SIM_SMOKE_DIR)/fresh.json
	@entry="$$(grep -v '"kind":"fault-free"' $(SIM_SMOKE_DIR)/corpus.jsonl | head -n 1)"; \
	test -n "$$entry" || { echo "sim-smoke: corpus has no faulty entry"; exit 1; }; \
	index="$$(printf '%s\n' "$$entry" | sed 's/^{"index":\([0-9]*\),.*/\1/')"; \
	desc="$$(printf '%s\n' "$$entry" | sed 's/.*"desc":"\([^"]*\)".*/\1/')"; \
	$(GO) run ./cmd/ttasim -n 4 -seed 7 -index "$$index" -json > $(SIM_SMOKE_DIR)/run.json || exit 1; \
	grep -qF "\"scenario\": \"$$desc\"" $(SIM_SMOKE_DIR)/run.json || { \
		echo "sim-smoke: ttasim -index $$index does not reproduce corpus entry \"$$desc\":"; \
		cat $(SIM_SMOKE_DIR)/run.json; exit 1; }; \
	echo "sim-smoke: ttasim -seed 7 -index $$index reproduces \"$$desc\""
	@rm -rf $(SIM_SMOKE_DIR)

# Daemon smoke test: submit a campaign to ttaserved, kill -9 the daemon
# mid-campaign, restart it on the same data directory, and require the
# resumed canonical report to be byte-identical to a fresh daemon's; then
# resubmit the same spec and require a 100% verdict-cache hit with zero
# units executed, per-unit stats for every unit, a valid Prometheus
# exposition, and a merged multi-process trace (kept at
# .served-smoke.trace.json for CI to archive). See scripts/served_smoke.sh.
SERVED_SMOKE_DIR := .served-smoke
.PHONY: served-smoke
served-smoke:
	sh scripts/served_smoke.sh $(SERVED_SMOKE_DIR)
	@rm -rf $(SERVED_SMOKE_DIR)

# Bench regression gate: re-run the quick serve, l2s, opt and order
# benchmarks and diff each leaf-by-leaf against its committed
# BENCH_*.json. The l2s, opt and order legs gate more than wall time: the
# experiments themselves error out if any SAT engine's liveness verdict
# disagrees with the symbolic fixpoint, a refutation lacks a lasso, or the
# optimizer or reordering changes a verdict, so a compare run doubles as a
# cross-engine agreement check. The tolerance is generous because wall
# times on shared machines are noisy; CI runs this report-only
# (BENCH_COMPARE_FLAGS=-report-only) and humans tighten BENCH_COMPARE_TOL
# when chasing a suspected regression.
BENCH_COMPARE_TOL ?= 0.5
BENCH_COMPARE_FLAGS ?=
BENCH_COMPARE_DIR := .bench-compare
.PHONY: bench-compare
bench-compare:
	@rm -rf $(BENCH_COMPARE_DIR); mkdir -p $(BENCH_COMPARE_DIR)
	$(GO) run ./cmd/ttabench -exp serve -bench-dir $(BENCH_COMPARE_DIR) >/dev/null
	$(GO) run ./cmd/ttabench -exp l2s -bench-dir $(BENCH_COMPARE_DIR) >/dev/null
	$(GO) run ./cmd/ttabench -exp opt -n 4 -bench-dir $(BENCH_COMPARE_DIR) >/dev/null
	$(GO) run ./cmd/ttabench -exp order -bench-dir $(BENCH_COMPARE_DIR) >/dev/null
	@for exp in serve l2s opt order; do \
		$(GO) run ./cmd/ttabench -compare -tolerance $(BENCH_COMPARE_TOL) \
			$(BENCH_COMPARE_FLAGS) BENCH_$$exp.json $(BENCH_COMPARE_DIR)/BENCH_$$exp.json || exit 1; \
	done
	@rm -rf $(BENCH_COMPARE_DIR)

# Observability smoke test: record a Chrome trace of an unbounded IC3 proof
# on the bus model, then validate it with ttatrace — the trace must parse,
# keep timestamps ordered, and carry spans from at least three layers
# (engine, frame, sat).
OBS_SMOKE_TRACE := .obs-smoke.trace.json
.PHONY: obs-smoke
obs-smoke:
	@rm -f $(OBS_SMOKE_TRACE)
	$(GO) run ./cmd/ttamc -model bus -n 3 -lemma safety -engine ic3 \
		-delta-init 2 -trace $(OBS_SMOKE_TRACE) -metrics
	$(GO) run ./cmd/ttatrace -min-cats 3 -min-events 100 $(OBS_SMOKE_TRACE)
	@rm -f $(OBS_SMOKE_TRACE)
