# Tier-1 gate (see ROADMAP.md): `make ci` must pass before any commit.
# .github/workflows/ci.yml runs the same targets on every push/PR, plus a
# gofmt check, a fuzz smoke and the benchdiff regression gate.
GO ?= go

# Fresh benchmark stream, ignored by git so `make bench` never overwrites a
# committed baseline; pass BENCH_OUT explicitly to record a new baseline.
BENCH_OUT ?= BENCH_CI.json
# Committed baseline the regression check diffs against (the one ci.yml
# uses).
BENCH_BASELINE ?= BENCH_PR9.json

# Checked-in experiment snapshots (README embeds their tables): runs/paper
# sweeps the default solver suite over the whole corpus, runs/xhafa09 is
# the source paper's Tables 1–3 and Figure 4 grid on its three base-scale
# distributions. `make paper` regenerates both in place; `make
# paper-check` re-runs each snapshot's manifest and fails on any byte of
# drift or any violated paper shape claim.
PAPER_DIR ?= runs/paper
XHAFA09_DIR ?= runs/xhafa09
PAPER_SEED ?= 42
PAPER_REPS ?= 3
XHAFA09_ARGS = -specs xhafa09 \
	-scenarios v1-base-normal,v1-base-exponential,v1-base-weibull

# Smoke grid: 2 scenarios × 2 solvers × 1 rep, small enough for every CI
# run.
PAPER_SMOKE_ARGS = -seed 1 -reps 1 \
	-scenarios v1-half-uniform,v1-half-normal \
	-specs "adhoc;search:phases=10,neighbors=2"

.PHONY: ci vet lint build test race bench benchdiff fmt-check fuzz-smoke \
	paper paper-check paper-smoke

ci: vet lint build race

vet:
	$(GO) vet ./...

# Determinism & discipline linter (internal/lint + cmd/wmnlint, stdlib
# go/ast only): globalrand (math/rand outside internal/rng), wallclock
# (time.Now/Since/Sleep/... off the telemetry allowlist), mapiter
# (order-dependent map iteration in deterministic packages),
# ctxbackground (context.Background inside ctx-receiving functions),
# nakedgo (go statements outside the pool/serving layers), chanselect
# (multi-case selects in deterministic packages). Non-zero exit on any
# finding; waive a line with `//wmnlint:allow <rule> — <reason>`, see
# internal/lint/policy.go for the package-level allowance table.
lint:
	$(GO) run ./cmd/wmnlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmarks only (includes the corpus/suite benchmarks in internal/scenarios,
# BenchmarkIncrementalVsFull in internal/wmn — the per-neighbor
# incremental-vs-full evaluation comparison at paper and 10× scale —
# BenchmarkIslandScaling in internal/ga, the islands × workers grid,
# BenchmarkServeBatched in internal/server, the batched-vs-unbatched burst
# comparison of the serving layer, and BenchmarkPortfolio there too, the
# portfolio race against each member standalone at one shared evaluation
# budget). Three more passes follow, so the ratio gates read more than one
# sample: BenchmarkServeBatched, and at high iteration counts
# BenchmarkIncrementalVsFull and BenchmarkSwapPropose, the chained swap
# proposal; each takes 5 samples, of which benchdiff keeps the fastest.
# The test2json event stream is written to $(BENCH_OUT), which `make
# benchdiff` diffs against the committed baseline.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x -json ./... > $(BENCH_OUT)
	$(GO) test -run '^$$' -bench '^BenchmarkServeBatched$$' -benchtime 3x -count 5 -benchmem -json ./internal/server >> $(BENCH_OUT)
	$(GO) test -run '^$$' -bench BenchmarkIncrementalVsFull -benchtime 1000x -count 5 -benchmem -json ./internal/wmn >> $(BENCH_OUT)
	$(GO) test -run '^$$' -bench '^BenchmarkSwapPropose$$' -benchtime 1000x -count 5 -benchmem -json . >> $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT) ($$(wc -l < $(BENCH_OUT)) events)"

# Per-benchmark ns/op deltas between the committed baseline stream and the
# current one; non-zero exit when a gated benchmark (default
# BenchmarkIncrementalVsFull) slows down more than 25%, or when a
# within-stream ratio gate fails: batched serving must not lose to the
# unbatched path, incremental evaluation must stay at or under half of
# full evaluation, a one-router σ=2 nudge (which mostly keeps the router's
# neighbor set, so Apply skips the connectivity pass and Revert has no
# links to restore) must cost at most 2.5% of a full evaluation at 10×
# scale, and one swap proposal must cost at most twice one incremental
# evaluation on the same paper-scale instance, all measured on the machine
# that recorded the stream.
benchdiff:
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASELINE) -new $(BENCH_OUT) \
		-ratio 'BenchmarkServeBatched/batched,BenchmarkServeBatched/unbatched' \
		-ratio 'BenchmarkIncrementalVsFull/10x/incremental,BenchmarkIncrementalVsFull/10x/full,0.5' \
		-ratio 'BenchmarkIncrementalVsFull/10x/nudge,BenchmarkIncrementalVsFull/10x/full,0.025' \
		-ratio 'BenchmarkSwapPropose,BenchmarkIncrementalVsFull/paper/incremental,2'

# Regenerate the documented experiment snapshots. Deterministic: the same
# seed writes the same bytes at any -workers value on any machine.
paper:
	$(GO) run ./cmd/wmnplace paper -out $(PAPER_DIR) -seed $(PAPER_SEED) -reps $(PAPER_REPS)
	$(GO) run ./cmd/wmnplace paper -out $(XHAFA09_DIR) -seed $(PAPER_SEED) -reps $(PAPER_REPS) $(XHAFA09_ARGS)

# Re-run each snapshot's manifest and fail if any artifact drifts or a
# paper shape claim breaks — the gate that keeps README's embedded tables
# matching what the code actually computes.
paper-check:
	$(GO) run ./cmd/wmnplace paper -check $(PAPER_DIR)
	$(GO) run ./cmd/wmnplace paper -check $(XHAFA09_DIR)

# Reproducibility smoke: the same small grid run twice must emit
# byte-identical CSV, markdown and manifest (fingerprint included).
paper-smoke:
	rm -rf .paper-smoke
	$(GO) run ./cmd/wmnplace paper -out .paper-smoke/a $(PAPER_SMOKE_ARGS)
	$(GO) run ./cmd/wmnplace paper -out .paper-smoke/b $(PAPER_SMOKE_ARGS)
	cmp .paper-smoke/a/results.csv .paper-smoke/b/results.csv
	cmp .paper-smoke/a/results.md .paper-smoke/b/results.md
	cmp .paper-smoke/a/manifest.json .paper-smoke/b/manifest.json
	$(GO) run ./cmd/wmnplace paper -check .paper-smoke/a
	rm -rf .paper-smoke

# Source formatting check plus snapshot drift (CI fails on either;
# gofmt -l prints offenders, paper-check re-runs the snapshot manifest).
fmt-check: paper-check
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# 10-second fuzz pass per target: the spec parsers (dist and server), the
# incremental-evaluator apply/revert walk (teleports, nudges, unmoved and
# empty moves, no-diff rebases), the density grid's tracked router state
# and the result journal's replay of a corrupt tail. `go test -fuzz` takes
# one target per invocation, hence five runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalApplyRevert$$' -fuzztime 10s ./internal/wmn
	$(GO) test -run '^$$' -fuzz '^FuzzDensityGridTrack$$' -fuzztime 10s ./internal/wmn
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 10s ./internal/cluster
