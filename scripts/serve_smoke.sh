#!/usr/bin/env bash
# Smoke test for `gompresso serve` (CI: the serve-smoke job; also runs
# locally from the repo root). Starts the daemon on a fixture directory
# and checks the acceptance criteria end to end:
#
#   - every ranged response is byte-identical to `gompresso cat -offset
#     -length` (indexed containers) or to a slice of the original bytes
#     (trailer-less containers and .gz, whose first request runs the
#     one-time discovery pass),
#   - a trailer-less container is scanned once: its repeated range hits
#     the block cache and sequential_decodes_total stays flat,
#   - /healthz and the stats endpoint respond,
#   - a repeated hot range shows cache hits > 0 in the stats,
#   - every request produces a structured JSON access-log line with the
#     required keys, and a response's X-Request-Id joins against the
#     /debug/requests slow-request ring.
set -euo pipefail

work=$(mktemp -d)
srv_pid=""
srv2_pid=""
cleanup() {
  [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
  [ -n "$srv2_pid" ] && kill "$srv2_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

bin="$work/gompresso"
go build -o "$bin" ./cmd/gompresso

# Fixture: a text corpus (the repo's own sources), served three ways.
root="$work/root"; mkdir "$root"
cat ./*.go internal/format/*.go internal/deflate/*.go > "$work/corpus.txt"
size=$(wc -c < "$work/corpus.txt" | tr -d ' ')
"$bin" compress -index -block 64 "$work/corpus.txt" "$root/corpus.gpz" 2>/dev/null
"$bin" compress        -block 64 "$work/corpus.txt" "$root/noindex.gpz" 2>/dev/null
gzip -c "$work/corpus.txt" > "$root/corpus.txt.gz"

# stat must agree with the fixture's shape. (Outputs go through files:
# grep -q on a pipe SIGPIPEs the producer under pipefail.)
"$bin" stat -json "$root/corpus.gpz" > "$work/stat.json"
grep -q '"index": true' "$work/stat.json"
[ "$(grep raw_size "$work/stat.json" | tr -dc 0-9)" = "$size" ]
"$bin" stat -json "$root/noindex.gpz" > "$work/stat2.json"
grep -q '"index": false' "$work/stat2.json"

addr=127.0.0.1:18427
"$bin" serve -addr "$addr" -root "$root" -cache 16 -index-dir "$root" -index-spacing 65536 -quiet -access-log "$work/access.jsonl" 2>"$work/serve.log" &
srv_pid=$!
for _ in $(seq 1 100); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
[ "$(curl -sf "http://$addr/healthz")" = "ok" ]

# check_range <object> <curl-range-spec> <offset> <length>: the ranged
# response must equal `gompresso cat -offset -length` on the same object.
check_range() {
  curl -sf -H "Range: bytes=$2" "http://$addr/$1" > "$work/got"
  "$bin" cat -offset "$3" -length "$4" "$root/$1" > "$work/want"
  cmp "$work/got" "$work/want" || { echo "FAIL: $1 range $2 differs from cat -offset $3 -length $4"; exit 1; }
}

# Indexed container: interior, multi-block (block size is 64 KiB),
# open-ended, and suffix ranges. The multi-block bound derives from the
# corpus size so it stays interior as the fixture grows or shrinks.
mid=$((size * 3 / 4))
check_range corpus.gpz "0-999"            0              1000
check_range corpus.gpz "65530-65600"      65530          71
check_range corpus.gpz "10000-$mid"       10000          $((mid - 10000 + 1))
check_range corpus.gpz "$((size-500))-"   "$((size-500))" 500
check_range corpus.gpz "-1234"            "$((size-1234))" 1234

# Objects that carry no block index: ranges against slices of the
# original bytes. Each one's first request runs its discovery pass.
check_slice() {
  curl -sf -H "Range: bytes=$2-$(($2+$3-1))" "http://$addr/$1" > "$work/got"
  tail -c "+$(($2+1))" "$work/corpus.txt" > "$work/tail"
  head -c "$3" "$work/tail" > "$work/want"
  cmp "$work/got" "$work/want" || { echo "FAIL: $1 range at $2+$3"; exit 1; }
}
metric() { curl -sf "http://$addr/metrics?format=json" | grep -o "\"$1\": [0-9]*" | tr -dc 0-9; }
check_slice noindex.gpz   12345 70000
check_slice corpus.txt.gz 12345 70000

# The trailer-less container was scanned once: the same range again is
# served from the block cache, with no second discovery pass.
seq0=$(metric sequential_decodes_total); hits0=$(metric cache_hits_total)
check_slice noindex.gpz   12345 70000
seq1=$(metric sequential_decodes_total); hits1=$(metric cache_hits_total)
[ "$seq1" = "$seq0" ] || { echo "FAIL: noindex.gpz repeat reran discovery ($seq0 -> $seq1)"; exit 1; }
[ "$hits1" -gt "$hits0" ] || { echo "FAIL: noindex.gpz repeat did not hit the cache ($hits0 -> $hits1)"; exit 1; }

# Full bodies, all three objects, against `cat`.
for obj in corpus.gpz noindex.gpz corpus.txt.gz; do
  curl -sf "http://$addr/$obj" > "$work/got"
  "$bin" cat "$root/$obj" > "$work/want"
  cmp "$work/got" "$work/want" || { echo "FAIL: $obj full body differs from cat"; exit 1; }
done

# HEAD: decompressed Content-Length, no body.
[ "$(curl -sfI "http://$addr/corpus.gpz" | tr -d '\r' | awk '/^Content-Length:/{print $2}')" = "$size" ]

# 416 for an unsatisfiable range.
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Range: bytes=$size-" "http://$addr/corpus.gpz")
[ "$code" = "416" ] || { echo "FAIL: want 416, got $code"; exit 1; }

# Hot range: repeat, then the stats endpoint must show cache hits > 0.
for _ in 1 2 3; do
  curl -sf -H "Range: bytes=1000-2000" "http://$addr/corpus.gpz" > /dev/null
done
curl -sf "http://$addr/metrics?format=json" > "$work/metrics.json"
hits=$(grep -o '"cache_hits_total": [0-9]*' "$work/metrics.json" | tr -dc 0-9)
[ "${hits:-0}" -gt 0 ] || { echo "FAIL: cache_hits_total = ${hits:-0} after hot range"; cat "$work/metrics.json"; exit 1; }
grep -q '"requests_total"' "$work/metrics.json"
curl -sf "http://$addr/metrics" > "$work/metrics.txt"
grep -q '^cache_hit_rate ' "$work/metrics.txt"
grep -q '^build_info{' "$work/metrics.txt"
grep -q '^go_goroutines ' "$work/metrics.txt"
grep -q '^stage_block_decode_ns_count ' "$work/metrics.txt"

# Observability: a response's X-Request-Id must join against the
# /debug/requests ring, and every access-log line must be valid JSON
# with the required keys.
rid=$(curl -sf -D - -o /dev/null -H "Range: bytes=0-99" "http://$addr/corpus.gpz" | tr -d '\r' | awk 'tolower($1)=="x-request-id:"{print $2}')
[ -n "$rid" ] || { echo "FAIL: response missing X-Request-Id"; exit 1; }
curl -sf "http://$addr/debug/requests?n=64" > "$work/debug.json"
grep -q "\"$rid\"" "$work/debug.json" || { echo "FAIL: request $rid not in /debug/requests"; exit 1; }
python3 - "$work/access.jsonl" <<'PY'
import json, sys
required = {"id", "method", "path", "status", "bytes", "dur_ms",
            "cache_hits", "cache_misses", "stages"}
n = 0
for line in open(sys.argv[1]):
    line = line.strip()
    if not line:
        continue
    rec = json.loads(line)
    missing = required - rec.keys()
    if missing:
        sys.exit("access-log line missing keys %s: %s" % (sorted(missing), line[:200]))
    n += 1
if n == 0:
    sys.exit("access log is empty")
PY
loglines=$(wc -l < "$work/access.jsonl" | tr -d ' ')

# Foreign random access (PR 7): the first .gz request above ran the one
# counting decode, captured the seek index, and persisted a sidecar.
[ -f "$root/corpus.txt.gz.gzx" ] || { echo "FAIL: sidecar not persisted beside corpus.txt.gz"; exit 1; }
"$bin" stat -json "$root/corpus.txt.gz" > "$work/stat3.json"
grep -q '"sidecar": "valid"' "$work/stat3.json"
[ "$(grep raw_size "$work/stat3.json" | tr -dc 0-9)" = "$size" ]

# Hot .gz ranges: byte-identical to gzip -dc slices, and the discovery
# counter must stay flat — every range decodes covering chunks only.
gzip -dc "$root/corpus.txt.gz" > "$work/plain"
cmp "$work/plain" "$work/corpus.txt"
seq_before=$(grep -o '"sequential_decodes_total": [0-9]*' "$work/metrics.json" | tr -dc 0-9)
check_gz() { # <addr> <offset> <length>
  curl -sf -H "Range: bytes=$2-$(($2+$3-1))" "http://$1/corpus.txt.gz" > "$work/got"
  tail -c "+$(($2+1))" "$work/plain" > "$work/tail"
  head -c "$3" "$work/tail" > "$work/want"
  cmp "$work/got" "$work/want" || { echo "FAIL: .gz range at $2+$3 differs from gzip -dc"; exit 1; }
}
check_gz "$addr" 0 4096
check_gz "$addr" 100000 65536
check_gz "$addr" $((size - 2000)) 2000
curl -sf "http://$addr/metrics?format=json" > "$work/metrics2.json"
seq_after=$(grep -o '"sequential_decodes_total": [0-9]*' "$work/metrics2.json" | tr -dc 0-9)
[ "${seq_after:-0}" = "${seq_before:-0}" ] || {
  echo "FAIL: hot .gz ranges reran the discovery pass ($seq_before -> $seq_after)"; exit 1; }

# A fresh server over the same root loads the sidecar in the object's
# discovery pass: ranged .gz requests without a single sequential decode.
addr2=127.0.0.1:18428
"$bin" serve -addr "$addr2" -root "$root" -cache 16 -index-dir "$root" -quiet 2>>"$work/serve.log" &
srv2_pid=$!
for _ in $(seq 1 100); do
  curl -sf "http://$addr2/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
check_gz "$addr2" 54321 32768
curl -sf "http://$addr2/metrics?format=json" > "$work/metrics3.json"
seq2=$(grep -o '"sequential_decodes_total": [0-9]*' "$work/metrics3.json" | tr -dc 0-9)
loads2=$(grep -o '"sidecar_loads_total": [0-9]*' "$work/metrics3.json" | tr -dc 0-9)
[ "${seq2:-1}" = "0" ] || { echo "FAIL: warm-sidecar server ran $seq2 discovery passes"; exit 1; }
[ "${loads2:-0}" -ge 1 ] || { echo "FAIL: warm-sidecar server never loaded the sidecar"; exit 1; }

echo "serve smoke: OK (size=$size, cache_hits=$hits, sidecar_loads=$loads2, access_log_lines=$loglines)"
