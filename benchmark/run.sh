#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload tesla-wire --seed 13 --seconds 20 --trace 0
#
# Every file the build writes (compiler cache, binary, Go's own state) stays
# under .bench_build in the current directory, as do the room stores the
# benchmark creates. Without the repository's sources next to benchmark/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$build/teslabenchmark" .)
exec "$build/teslabenchmark" -datadir "$build/data" "$@"
