GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet race cpu-matrix lint analyze fuzz resume-smoke worker-kill-smoke enospc-smoke ci bench bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/engine

# GOMAXPROCS matrix: the packages whose behaviour depends on the engine's
# worker pool must pass at 1, 2 and 8 CPUs, whatever the CI host has.
cpu-matrix:
	$(GO) test -count=1 -cpu 1,2,8 . ./internal/engine ./internal/server

# Static checks: cvlint over the embedded rule library, gofmt, and vet.
lint:
	$(GO) run ./cmd/cvlint -q -builtin
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...

# Semantic rule analysis: cvlint with the constraint-level CVL4xx checks
# over the embedded rule library and the examples/rules project, with no
# baseline suppressions. Any CVL4xx finding — warning or error — fails.
analyze:
	@out=/tmp/analyze-out.txt; : > $$out; \
	$(GO) run ./cmd/cvlint -builtin >> $$out || { cat $$out; exit 1; }; \
	$(GO) run ./cmd/cvlint ./examples/rules >> $$out || { cat $$out; exit 1; }; \
	if grep -E 'CVL4[0-9][0-9]' $$out; then \
		echo "make analyze: semantic findings above"; exit 1; fi; \
	cat $$out

# Fuzz smoke: a short randomized pass over the parsers that face
# untrusted input — among them the journal record read from disk and the
# shard-stream record read from a worker — and over the compiled tree
# query against its reference (one -fuzz target per invocation, as go
# test requires).
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime $(FUZZTIME) -run FuzzDecode ./internal/yaml/
	$(GO) test -fuzz FuzzSSHDParse -fuzztime $(FUZZTIME) -run FuzzSSHDParse ./internal/lens/
	$(GO) test -fuzz FuzzFramesRead -fuzztime $(FUZZTIME) -run FuzzFramesRead ./internal/frames/
	$(GO) test -fuzz FuzzTreePath -fuzztime $(FUZZTIME) -run FuzzTreePath ./internal/configtree/
	$(GO) test -fuzz FuzzJournalRecord -fuzztime $(FUZZTIME) -run FuzzJournalRecord ./internal/journal/
	$(GO) test -fuzz FuzzStreamRecord -fuzztime $(FUZZTIME) -run FuzzStreamRecord ./internal/dist/

# Kill-and-resume smoke: crash a journaled fleet scan partway, resume,
# and require the summary to match an uninterrupted run's.
resume-smoke:
	./scripts/resume_smoke.sh

# Worker-kill smoke: SIGKILL a worker cvserver mid-shard during a
# distributed coordinate run and require the merged summary to match an
# in-process run's byte-for-byte.
worker-kill-smoke:
	./scripts/worker_kill_smoke.sh

# Disk-pressure smoke: fill the disk under a journaled fleet scan
# (size-capped tmpfs when privileged, CV_FAULTS ENOSPC injection
# otherwise); the scan must complete degraded, account every failed
# append, and resume journaling on a follow-up run.
enospc-smoke:
	./scripts/enospc_smoke.sh

# The full gate: what CI runs on every change.
ci: build lint analyze race cpu-matrix resume-smoke worker-kill-smoke enospc-smoke fuzz

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark regression gate: re-run the gated benchmarks and diff against
# the committed baseline. Fails on a >15% ns/op regression of
# BenchmarkTable2_ConfigValidator, any BenchmarkFleetScan*, or the
# semantic-analysis benchmarks (BenchmarkSemanticLower/Check), or when a
# warm fleet scan is less than 2x faster than its cold counterpart.
BENCH_BASELINE ?= BENCH_parallel.json
bench-check:
	$(GO) test -run '^$$' -bench 'BenchmarkTable2_ConfigValidator$$|BenchmarkFleetScan' -benchtime 3s . > /tmp/bench-check.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSemanticLower$$|BenchmarkSemanticCheck$$' -benchtime 3s ./internal/analysis/sem >> /tmp/bench-check.txt
	$(GO) run ./cmd/benchreport -snapshot /tmp/bench-check.txt > /tmp/bench-check.json
	$(GO) run ./cmd/benchreport -diff $(BENCH_BASELINE) /tmp/bench-check.json
