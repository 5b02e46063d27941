#!/usr/bin/env bash
# Builds cvbench from the checkout's sources and runs it from the checkout
# root, passing every argument through:
#
#   bash bench/run.sh --workload fleet-unique --seed 1 --seconds 10 --trace 0
#
# Go's build cache, module cache and config all live under .bench_build, so
# a run writes nothing outside the checkout and needs no network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/cvbench" ./cvbench)
cd "$root"
exec "$build/cvbench" -out "$build/out" "$@"
