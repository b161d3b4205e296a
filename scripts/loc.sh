#!/usr/bin/env bash
# loc.sh — non-test Go lines of code per package: lines of *.go files other
# than *_test.go and analyzer fixtures under testdata/ that are neither blank
# nor comment-only. ROADMAP tracks this number (aim 2: it should go down); the
# lint job prints it.
#
#   ./scripts/loc.sh                  # every package, then the total
#   ./scripts/loc.sh . internal/core  # only the named package directories
#   ./scripts/loc.sh . internal/core internal/format internal/lz77 internal/huffman
#                                     # the codec: what an encoder or decoder PR nets
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    dirs=("$@")
else
    # benchmark/ is a module of its own (see BENCHMARK.json), not the product;
    # testdata/ holds the analyzers' fixtures (as lint.sh's gofmt step knows).
    mapfile -t dirs < <(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
        ! -path '*/testdata/*' \
        -printf '%h\n' | sort -u | sed 's|^\./||')
fi

total=0
for d in "${dirs[@]}"; do
    files=()
    for f in "$d"/*.go; do
        case "$f" in *_test.go) ;; *) [ -f "$f" ] && files+=("$f") ;; esac
    done
    [ "${#files[@]}" -gt 0 ] || continue
    n=$(awk '
        FNR == 1 { inblock = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (inblock) {
                if (line ~ /\*\//) inblock = 0
                next
            }
            if (line == "" || line ~ /^\/\//) next
            if (line ~ /^\/\*/) {
                if (line !~ /\*\//) inblock = 1
                next
            }
            n++
        }
        END { print n + 0 }' "${files[@]}")
    printf '%7d  %s\n' "$n" "$d"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
