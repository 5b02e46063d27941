#!/bin/sh
# Fuzz smoke: a short randomized pass over the parsers that face untrusted
# input — among them the journal record read from disk, the shard-stream
# record read from a worker and the shard request body and request lines a
# worker receives, the frame and request-line codecs against encoding/json,
# the lint body POST /v1/lint analyzes against the loader — and over the
# line-based lenses, the compiled tree query and schema LIKE against their
# references. go test accepts one -fuzz target per invocation, so each runs
# separately, for FUZZTIME (default 10s). A shard request scans what it
# decodes, the codec targets run encoding/json beside them, the lint target
# runs every analyzer pass and the loader and the LIKE target compiles a
# regexp per input, so their new inputs are minimized for at most 2s
# instead of the default 60s, which would eat the run.
#
# `make fuzz` and scripts/ci.sh run this script; it is the one list of
# fuzz targets.
set -eu
cd "$(dirname "$0")/.."

go="${GO:-go}"
fuzztime="${FUZZTIME:-10s}"
"$go" test -fuzz FuzzDecode -fuzztime "$fuzztime" -run FuzzDecode ./internal/yaml/
"$go" test -fuzz FuzzSSHDParse -fuzztime "$fuzztime" -run FuzzSSHDParse ./internal/lens/
"$go" test -fuzz FuzzLensReference -fuzztime "$fuzztime" -run FuzzLensReference ./internal/lens/
"$go" test -fuzz FuzzFramesRead -fuzztime "$fuzztime" -fuzzminimizetime 2s -run FuzzFramesRead ./internal/frames/
"$go" test -fuzz FuzzTreePath -fuzztime "$fuzztime" -run FuzzTreePath ./internal/configtree/
"$go" test -fuzz FuzzLike -fuzztime "$fuzztime" -fuzzminimizetime 2s -run FuzzLike ./internal/schema/
"$go" test -fuzz FuzzJournalRecord -fuzztime "$fuzztime" -run FuzzJournalRecord ./internal/journal/
"$go" test -fuzz FuzzStreamRecord -fuzztime "$fuzztime" -run FuzzStreamRecord ./internal/dist/
"$go" test -fuzz FuzzEntityRecord -fuzztime "$fuzztime" -fuzzminimizetime 2s -run FuzzEntityRecord ./internal/dist/
"$go" test -fuzz FuzzShardRequest -fuzztime "$fuzztime" -fuzzminimizetime 2s -run FuzzShardRequest ./internal/server/
"$go" test -fuzz FuzzAnalyzeFile -fuzztime "$fuzztime" -fuzzminimizetime 2s -run FuzzAnalyzeFile ./internal/analysis/
