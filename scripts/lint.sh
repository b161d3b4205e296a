#!/usr/bin/env bash
# lint.sh — the repository's whole lint gate, runnable locally and in CI.
#
#   ./scripts/lint.sh            # gofmt + go vet + gompressovet (hard failures)
#   LINT_EXTRA=1 ./scripts/lint.sh  # also staticcheck/govulncheck if installed
#
# gompressovet is the in-tree multichecker (cmd/gompressovet): five
# custom analyzers enforcing the codebase's concurrency and resource
# invariants. See DESIGN.md "Static analysis" for the analyzer table and
# the //lint:allow suppression policy.
set -u
cd "$(dirname "$0")/.."

fail=0

# Any file gofmt would rewrite fails the gate. testdata/ holds analyzer
# fixtures that are inputs, not code; .bench_build/ is the benchmark's cache.
echo "== gofmt -l"
unformatted=$(find . -name '*.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    fail=1
fi

echo "== go vet ./..."
go vet ./... || fail=1

echo "== gompressovet ./..."
go run ./cmd/gompressovet ./... || fail=1

# Optional passes: valuable when the tools are present, but the gate
# must not depend on network access to install them.
if [ "${LINT_EXTRA:-0}" != "0" ]; then
    if command -v staticcheck >/dev/null 2>&1; then
        echo "== staticcheck ./..."
        staticcheck ./... || fail=1
    else
        echo "== staticcheck not installed; skipping"
    fi
    if command -v govulncheck >/dev/null 2>&1; then
        echo "== govulncheck ./... (advisory)"
        govulncheck ./... || echo "govulncheck reported issues (advisory, not failing the gate)"
    else
        echo "== govulncheck not installed; skipping"
    fi
fi

if [ "$fail" != "0" ]; then
    echo "lint: FAILED"
    exit 1
fi
echo "lint: OK"
