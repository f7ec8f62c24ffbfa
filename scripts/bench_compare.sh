#!/usr/bin/env sh
# bench_compare.sh — gate ns/op regressions between two bench.sh JSON files.
#
# Usage:
#   scripts/bench_compare.sh baseline.json new.json [tolerance_pct]
#
#   tolerance_pct  allowed per-benchmark slowdown in percent (default: 25)
#
# Raw ns/op numbers are machine-dependent (the committed BENCH_baseline.json
# was captured on one box, CI runs on another), so comparing them directly
# would gate on hardware, not code. Instead the ratio new/old is computed
# per benchmark, the median ratio is taken as the machine-speed factor, and
# a benchmark fails only if its ratio exceeds median × (1 + tolerance):
# a *relative* regression concentrated in some benchmarks. A uniform
# slowdown of the whole suite shifts the median and is invisible here —
# catch that by re-running bench.sh on the baseline's machine.
#
# Throughput metrics gate too: every benchmark reporting an mreq_per_s
# custom metric (BenchmarkEngineIngest) contributes a "name@mreq_per_s"
# entry whose value is the *inverse* throughput, so a throughput drop is
# a ratio increase and flows through the same median-normalized limit as
# ns/op. An engine ingest rate regression therefore fails CI exactly like
# a decision-loop slowdown.
set -eu

BASE="${1:?usage: bench_compare.sh baseline.json new.json [tolerance_pct]}"
NEW="${2:?usage: bench_compare.sh baseline.json new.json [tolerance_pct]}"
TOL="${3:-25}"

# Extract "name value" pairs: ns_per_op under the benchmark name, plus an
# inverse-throughput entry per mreq_per_s metric (bigger = worse for both,
# so one gate covers latency and throughput). Accepts both the flat array
# bench.sh emits and the annotated BENCH_baseline.json object (whose
# current numbers live under the "baseline" key).
extract() {
    python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
if isinstance(d, dict):
    d = d.get("baseline", [])
for b in d:
    if b.get("ns_per_op"):
        print(b["name"], b["ns_per_op"])
    mreq = (b.get("metrics") or {}).get("mreq_per_s")
    if mreq:
        print(b["name"] + "@mreq_per_s", 1.0 / mreq)
' "$1"
}

BASETAB="$(mktemp)"
NEWTAB="$(mktemp)"
trap 'rm -f "$BASETAB" "$NEWTAB"' EXIT
extract "$BASE" > "$BASETAB"
extract "$NEW" > "$NEWTAB"

awk -v tol="$TOL" '
BEGIN { n = 0 } # explicit: an uninitialized subscript is "" in mawk, not 0
NR == FNR { base[$1] = $2; next }
{
    if ($1 in base && base[$1] > 0 && $2 > 0) {
        name[n] = $1
        ratio[n] = $2 / base[$1]
        n++
    }
}
END {
    if (n == 0) {
        print "bench_compare: no common benchmarks between the two files" > "/dev/stderr"
        exit 2
    }
    # Median of ratios = machine-speed factor.
    for (i = 0; i < n; i++) sorted[i] = ratio[i]
    for (i = 0; i < n; i++)
        for (j = i + 1; j < n; j++)
            if (sorted[j] < sorted[i]) { t = sorted[i]; sorted[i] = sorted[j]; sorted[j] = t }
    median = (n % 2) ? sorted[int(n/2)] : (sorted[n/2-1] + sorted[n/2]) / 2
    limit = median * (1 + tol / 100)
    printf "bench_compare: %d benchmarks, machine factor %.3f, per-benchmark limit %.3f (+%s%%)\n", n, median, limit, tol
    fail = 0
    for (i = 0; i < n; i++) {
        verdict = "ok"
        if (ratio[i] > limit) { verdict = "REGRESSION"; fail = 1 }
        printf "  %-40s ratio %.3f  %s\n", name[i], ratio[i], verdict
    }
    exit fail
}
' "$BASETAB" "$NEWTAB"
