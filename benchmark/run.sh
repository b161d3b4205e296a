#!/usr/bin/env bash
# run.sh — BENCHMARK.json's command: build the benchmark from source inside
# the checkout, then run it.
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
#   bash benchmark/run.sh run|aa|compare|manifest [flags]   # any sub-command
#
# The benchmark is a module of its own (benchmark/go.mod) that builds against
# the gompresso module one directory up. Everything the build writes (binary,
# Go build cache, temporary files, the go command's own config) lands in
# .bench_build at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
    echo "run.sh: no go.mod beside benchmark/: the benchmark builds against the gompresso module" >&2
    exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd benchmark && go build -o "$build/gompresso-benchmark" .)
case "${1:-}" in
run | aa | compare | manifest) ;;
*) set -- run "$@" ;;
esac
exec "$build/gompresso-benchmark" "$@"
