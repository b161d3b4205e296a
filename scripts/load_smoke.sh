#!/usr/bin/env bash
# Smoke test for the open-loop load harness (CI: the load-smoke job;
# also runs locally from the repo root). Two passes of
# `gompresso loadtest` in self-hosted mode:
#
#   pass 1 — fault-free daemon: the run must complete with zero errors,
#     zero sheds, every request OK, and a sane p99 (positive, below an
#     intentionally generous ceiling — this is a correctness gate, not a
#     performance SLO; CI runners are slow and shared).
#   pass 2 — fault injection (latency on the hot objects) plus a
#     MaxInFlight=1 / tight queue-wait server: shedding must engage
#     (bounded 503s with Retry-After), the non-shed requests must still
#     succeed, and the error rate must stay zero — 503s are load
#     shedding working as designed, not failures.
set -euo pipefail

work=$(mktemp -d)
cleanup() { rm -rf "$work"; }
trap cleanup EXIT

bin="$work/gompresso"
go build -o "$bin" ./cmd/gompresso

jqget() { # <file> <python-expr over r>
  python3 -c "import json,sys; r=json.load(open('$1')); print($2)"
}

# Pass 1: fault-free. ~10s of zipfian load against a self-hosted server.
"$bin" loadtest -rps 25 -duration 9s -objects 8 -min-size 64k -max-size 512k \
  -zipf-s 1.1 -seed 11 -deadline 10s -json > "$work/ok.json" 2>"$work/ok.log"

requests=$(jqget "$work/ok.json" "r['overall']['requests']")
ok=$(jqget "$work/ok.json" "r['overall']['ok']")
errors=$(jqget "$work/ok.json" "r['overall']['errors']")
timeouts=$(jqget "$work/ok.json" "r['overall']['timeout']")
sheds=$(jqget "$work/ok.json" "r['overall']['shed']")
p99=$(jqget "$work/ok.json" "r['overall']['p99_ms']")
phases=$(jqget "$work/ok.json" "len(r['phases'])")

[ "$requests" -ge 150 ] || { echo "FAIL: only $requests requests in 9s at 25 rps"; exit 1; }
[ "$ok" = "$requests" ] || { echo "FAIL: $ok/$requests OK on a fault-free run"; cat "$work/ok.json"; exit 1; }
[ "$errors" = 0 ] && [ "$timeouts" = 0 ] && [ "$sheds" = 0 ] || {
  echo "FAIL: fault-free run had errors=$errors timeouts=$timeouts sheds=$sheds"; exit 1; }
[ "$phases" = 3 ] || { echo "FAIL: $phases phases, want 3"; exit 1; }
# Sane p99: positive and under 2s. A 64k-512k range decode takes
# single-digit ms on any machine; 2000ms only catches a harness that is
# measuring garbage (zeros, absurd clock math), not a slow runner.
python3 -c "import sys; p=$p99; sys.exit(0 if 0 < p < 2000 else 1)" || {
  echo "FAIL: fault-free p99 ${p99}ms not in (0, 2000)"; exit 1; }

# The server's own histogram must roughly corroborate the harness.
# Compare the harness's *service* p99 (clocked from the actual send —
# the same quantity the handler measures, plus transport overhead), not
# the open-loop headline number, which also charges dispatch lag the
# server cannot see. Both sides record into the same 1.03x-wide buckets
# (perf.Histogram), so bucket width explains none of the gap; 4x catches
# a broken clock or bucket math while staying robust to scheduler noise
# between the two clocks on a 1-vCPU runner.
sp99=$(jqget "$work/ok.json" "r['overall']['service_p99_ms']")
mp99=$(jqget "$work/ok.json" "r.get('metrics_p99_ms', 0)")
python3 -c "
import sys
h, m = $sp99, $mp99
sys.exit(0 if m > 0 and max(h, m) / min(h, m) < 4 else 1)
" || { echo "FAIL: harness service p99 ${sp99}ms vs /metrics p99 ${mp99}ms"; exit 1; }

echo "load smoke pass 1: OK ($requests requests, p99=${p99}ms, service p99=${sp99}ms, metrics p99=${mp99}ms)"

# Pass 2: fault injection + forced shedding. Latency faults on the two
# hottest-named objects, one decode slot, 30ms queue bound: the zipfian
# schedule hammers the slowed objects, the queue fills, sheds must
# happen — and everything that is not shed must still succeed.
"$bin" loadtest -rps 40 -duration 8s -objects 6 -min-size 64k -max-size 256k \
  -zipf-s 1.2 -seed 13 -deadline 10s -max-inflight 1 -queue-wait 30ms \
  -fault 'lt-000*.gpz:latency=60ms' -json > "$work/fault.json" 2>"$work/fault.log"

f_requests=$(jqget "$work/fault.json" "r['overall']['requests']")
f_ok=$(jqget "$work/fault.json" "r['overall']['ok']")
f_errors=$(jqget "$work/fault.json" "r['overall']['errors']")
f_timeouts=$(jqget "$work/fault.json" "r['overall']['timeout']")
f_sheds=$(jqget "$work/fault.json" "r['overall']['shed']")
f_shed_rate=$(jqget "$work/fault.json" "r['overall']['shed_rate']")
f_p99=$(jqget "$work/fault.json" "r['overall']['p99_ms']")

[ "$f_sheds" -gt 0 ] || { echo "FAIL: no sheds under fault + MaxInFlight=1"; cat "$work/fault.json"; exit 1; }
[ "$f_errors" = 0 ] && [ "$f_timeouts" = 0 ] || {
  echo "FAIL: fault run had errors=$f_errors timeouts=$f_timeouts (sheds are the only acceptable failure)"; exit 1; }
[ "$((f_ok + f_sheds))" = "$f_requests" ] || {
  echo "FAIL: ok($f_ok) + shed($f_sheds) != requests($f_requests)"; exit 1; }
# Bounded shedding: the server must degrade, not collapse — most
# requests still succeed.
python3 -c "import sys; sys.exit(0 if $f_shed_rate < 0.5 else 1)" || {
  echo "FAIL: shed rate $f_shed_rate >= 0.5 — shedding ate the majority of traffic"; exit 1; }
# Success latency stays sane even while shedding.
python3 -c "import sys; p=$f_p99; sys.exit(0 if 0 < p < 2000 else 1)" || {
  echo "FAIL: fault-pass p99 ${f_p99}ms not in (0, 2000)"; exit 1; }

echo "load smoke pass 2: OK ($f_requests requests, sheds=$f_sheds, shed_rate=$f_shed_rate, p99=${f_p99}ms)"
echo "load smoke: OK"
