#!/usr/bin/env bash
# ci.sh — the benchmark's smoke gate, for a workflow step. The benchmark is a
# module of its own, so the root's `go vet ./...` and `go test ./...` pass it
# by: this vets and tests it, then makes a tiny-mode run of every workload
# (tiny inputs, sub-second phases; it exercises the harness and the
# correctness checks, it measures nothing) and `compare`s that run against
# itself, which must find every metric unchanged.
#
#   ./benchmark/ci.sh
set -euo pipefail
cd "$(dirname "$0")"
go vet .
go test .
out=out/ci
mkdir -p "$out"
bash run.sh run -tiny -seconds 0.3 -trace-seconds 0.3 -dir "benchmark/$out" -o "benchmark/$out/tiny.json"
bash run.sh compare "benchmark/$out/tiny.json" "benchmark/$out/tiny.json"
echo "benchmark ci: OK"
