# Build/test entry points; `make ci` is what the repository considers green.
#
# `make perf` runs one end-to-end perfbench measurement and prints its JSON
# line: W picks the workload (tablei, fed-easy, fed-gpu), SEED the seed and
# TRACE=1 adds the per-layer spans, e.g. `make perf W=fed-gpu SEED=7`.
GO ?= go

.PHONY: all build test race vet fmt-check perfbench-check bench bench-json bench-compare fuzz perf ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The campaign worker pool must be race-clean; this is the gate for it.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# perfbench is its own module, so the root vet and test never build it.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# Benchmark results as committable JSON (see BENCH_PR*.json baselines).
# Override BENCH_OUT to choose the output file.
BENCH_OUT ?= BENCH.json
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... | $(GO) run ./cmd/dfrs-bench > $(BENCH_OUT)

# Compare two committed baselines and flag >10% ns/op regressions. Not a
# CI step: it diffs committed files, so it answers the same on every push.
# Single-iteration timings are noisy, and rows compare only within one host
# shape; treat a flag as a prompt to re-measure, not a verdict. Override
# BENCH_OLD/BENCH_NEW to diff other baselines.
BENCH_OLD ?= BENCH_PR10.json
BENCH_NEW ?= BENCH_PR15.json
bench-compare:
	$(GO) run ./cmd/dfrs-bench -compare -old $(BENCH_OLD) -new $(BENCH_NEW) -threshold 10

# Short fuzz sessions over the SWF parser and the campaign grid parser
# (their deterministic corpora also run as normal tests in `make test`).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/swf/
	$(GO) test -run '^$$' -fuzz '^FuzzParseGrid$$' -fuzztime 30s ./internal/campaign/

W ?= tablei
SEED ?= 42
TRACE ?= 0
perf:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds 20 --trace $(TRACE)

# The blocking steps of .github/workflows/ci.yml, in the same order.
ci: build vet fmt-check test race perfbench-check bench
