GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet race cpu-matrix lint analyze fuzz bench-module resume-smoke worker-kill-smoke enospc-smoke enospc-tmpfs-smoke ci bench bench-check

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
# untrusted input — among them the journal record read from disk, the
# shard-stream record read from a worker and the shard request body and
# request lines a worker receives, the frame and request-line codecs
# against encoding/json — and over the compiled tree query and schema
# LIKE against their references (one -fuzz target per invocation, as go
# test requires). A shard request scans what it decodes, the codec
# targets run encoding/json beside them and the LIKE target compiles a
# regexp per input, so their new inputs are minimized for at most 2s
# instead of the default 60s, which would eat the run.
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime $(FUZZTIME) -run FuzzDecode ./internal/yaml/
	$(GO) test -fuzz FuzzSSHDParse -fuzztime $(FUZZTIME) -run FuzzSSHDParse ./internal/lens/
	$(GO) test -fuzz FuzzFramesRead -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run FuzzFramesRead ./internal/frames/
	$(GO) test -fuzz FuzzTreePath -fuzztime $(FUZZTIME) -run FuzzTreePath ./internal/configtree/
	$(GO) test -fuzz FuzzLike -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run FuzzLike ./internal/schema/
	$(GO) test -fuzz FuzzJournalRecord -fuzztime $(FUZZTIME) -run FuzzJournalRecord ./internal/journal/
	$(GO) test -fuzz FuzzStreamRecord -fuzztime $(FUZZTIME) -run FuzzStreamRecord ./internal/dist/
	$(GO) test -fuzz FuzzEntityRecord -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run FuzzEntityRecord ./internal/dist/
	$(GO) test -fuzz FuzzShardRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 2s -run FuzzShardRequest ./internal/server/

# Kill-and-resume smoke: crash a journaled fleet scan partway, resume,
# and require the summary to match an uninterrupted run's.
resume-smoke:
	./scripts/resume_smoke.sh

# Worker-kill smoke: SIGKILL a worker cvserver mid-shard during a
# distributed coordinate run and require the merged summary to match an
# in-process run's byte-for-byte.
worker-kill-smoke:
	./scripts/worker_kill_smoke.sh

# Disk-pressure smoke: fill the disk under a journaled fleet scan; the
# scan must complete degraded, account every failed append, and resume
# journaling on a follow-up run. enospc-smoke injects ENOSPC through
# CV_FAULTS and never mounts; enospc-tmpfs-smoke fills a real size-capped
# tmpfs, and prints a skip line where it cannot mount one.
enospc-smoke:
	./scripts/enospc_smoke.sh faults

enospc-tmpfs-smoke:
	./scripts/enospc_smoke.sh tmpfs

# The benchmark module's own vet and tests: a change that breaks an API
# bench/cvbench calls fails here instead of at the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The full gate: what CI runs on every change.
ci: build lint analyze race cpu-matrix bench-module resume-smoke worker-kill-smoke enospc-smoke enospc-tmpfs-smoke fuzz

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark regression gate: re-run the gated benchmarks and diff against
# the committed baseline. Fails on a >15% ns/op regression or a >10%
# allocs/op growth of BenchmarkTable2_ConfigValidator, the cold and warm
# BenchmarkFleetScan<N>, or the semantic-analysis benchmarks
# (BenchmarkSemanticLower/Check), or when a warm fleet scan is less than
# 2x faster than its cold counterpart. Each benchmark runs 5 times and
# the snapshot keeps the median of each figure, so one slow run on a
# shared host does not fail the gate. BenchmarkFleetScanJournaled is not
# gated.
BENCH_BASELINE ?= BENCH_parallel.json
bench-check:
	$(GO) test -run '^$$' -bench 'BenchmarkTable2_ConfigValidator$$|BenchmarkFleetScan(Warm)?[0-9]+$$' -count 5 -benchtime 600ms . > /tmp/bench-check.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSemanticLower$$|BenchmarkSemanticCheck$$' -count 5 -benchtime 600ms ./internal/analysis/sem >> /tmp/bench-check.txt
	$(GO) run ./cmd/benchreport -snapshot /tmp/bench-check.txt > /tmp/bench-check.json
	$(GO) run ./cmd/benchreport -diff $(BENCH_BASELINE) /tmp/bench-check.json
