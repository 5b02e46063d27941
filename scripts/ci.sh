#!/bin/sh
# Full verification gate: build, lint, vet, and race-enabled tests.
# Equivalent to `make ci`; kept as a script for environments without make.
set -eu
cd "$(dirname "$0")/.."

go build ./...

# Static analysis over the embedded CVL rule library (exit 1 on any
# error-level diagnostic; warnings are reported but do not gate).
go run ./cmd/cvlint -q -builtin

# Semantic analysis gate: the library and the examples/rules project
# must be free of CVL4xx findings, warnings included, with no baseline.
analyze_out=$(go run ./cmd/cvlint -builtin; go run ./cmd/cvlint ./examples/rules)
if echo "$analyze_out" | grep -E 'CVL4[0-9][0-9]'; then
	echo "semantic findings above"
	exit 1
fi

fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
	echo "gofmt needed on:"
	echo "$fmt_out"
	exit 1
fi

go vet ./...
go test -race ./...
# The engine shares compiled rules (and their lazily compiled regexes)
# across goroutines; repeat its suite under the race detector.
go test -race -count=10 ./internal/engine

# GOMAXPROCS matrix: the packages whose behaviour depends on the engine's
# worker pool must pass at 1, 2 and 8 CPUs, whatever the CI host has.
go test -count=1 -cpu 1,2,8 . ./internal/engine ./internal/server

# Kill-and-resume smoke: crash a journaled fleet scan partway, resume,
# and require the summary to match an uninterrupted run's.
./scripts/resume_smoke.sh

# Worker-kill smoke: SIGKILL a worker cvserver mid-shard during a
# distributed coordinate run and require the merged summary to match an
# in-process run's.
./scripts/worker_kill_smoke.sh

# Disk-pressure smoke: fill the disk (size-capped tmpfs, or the CV_FAULTS
# ENOSPC injector when unprivileged) under a journaled scan; the scan must
# complete degraded and a follow-up run must resume journaling.
./scripts/enospc_smoke.sh

# Fuzz smoke over the untrusted-input parsers (journal and shard-stream
# records among them), and the compiled tree
# query against its reference; go test accepts one -fuzz target per
# invocation, so each runs separately.
fuzztime="${FUZZTIME:-10s}"
go test -fuzz FuzzDecode -fuzztime "$fuzztime" -run FuzzDecode ./internal/yaml/
go test -fuzz FuzzSSHDParse -fuzztime "$fuzztime" -run FuzzSSHDParse ./internal/lens/
go test -fuzz FuzzFramesRead -fuzztime "$fuzztime" -run FuzzFramesRead ./internal/frames/
go test -fuzz FuzzTreePath -fuzztime "$fuzztime" -run FuzzTreePath ./internal/configtree/
go test -fuzz FuzzJournalRecord -fuzztime "$fuzztime" -run FuzzJournalRecord ./internal/journal/
go test -fuzz FuzzStreamRecord -fuzztime "$fuzztime" -run FuzzStreamRecord ./internal/dist/
