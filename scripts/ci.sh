#!/bin/sh
# Full verification gate: build, lint, vet, and race-enabled tests. This
# script is the gate's one definition: `make ci` runs it, and it needs no
# make.
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

# The benchmark module's own vet and tests: a change that breaks an API
# bench/cvbench calls fails here instead of at the next benchmark run.
(cd bench && go vet ./... && go test ./...)

# Kill-and-resume smoke: crash a journaled fleet scan partway, resume,
# and require the summary to match an uninterrupted run's.
./scripts/resume_smoke.sh

# Worker-kill smoke: SIGKILL a worker cvserver mid-shard during a
# distributed coordinate run and require the merged summary to match an
# in-process run's.
./scripts/worker_kill_smoke.sh

# Disk-pressure smoke: fill the disk under a journaled scan; the scan must
# complete degraded and a follow-up run must resume journaling. The first
# run injects ENOSPC through CV_FAULTS and never mounts; the second fills
# a real size-capped tmpfs, and prints a skip line where it cannot mount.
./scripts/enospc_smoke.sh faults
./scripts/enospc_smoke.sh tmpfs

# Fuzz smoke over the untrusted-input parsers and the references (the one
# list of fuzz targets).
./scripts/fuzz.sh
