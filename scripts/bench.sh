#!/usr/bin/env sh
# bench.sh — run the figure benchmark suite and emit machine-readable JSON.
#
# Usage:
#   scripts/bench.sh [out.json] [benchtime] [pattern]
#
#   out.json   output path; default is a timestamped BENCH_<yyyymmddHHMMSS>.json
#              in the repo root, "-" writes to stdout
#   benchtime  go test -benchtime value (default: 1s)
#   pattern    benchmark regexp (default: the Fig1 suite + Serve microbenchmarks
#              — the acceptance benchmarks of the dense-hot-path refactor — plus
#              EngineIngest, the live engine's end-to-end socket path whose
#              mreq_per_s + allocs/op pin the zero-alloc line-rate contract,
#              and GridGroups, the paper grid through the grid's lockstep
#              groups at one and two workers). BenchmarkShardHandIn stays
#              out of it: its time is mostly the disk's fsyncs.
#
# The JSON schema is one object per benchmark:
#   {"name": ..., "iterations": N, "ns_per_op": ..., "bytes_per_op": ...,
#    "allocs_per_op": ..., "metrics": {"routing_cost": ..., ...}}
# Compare two runs with scripts/bench_compare.sh (used by CI to gate ns/op
# regressions against BENCH_baseline.json), or with benchstat on the raw
# `go test -bench` output.
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_$(date +%Y%m%d%H%M%S).json}"
BENCHTIME="${2:-1s}"
PATTERN="${3:-BenchmarkFig1|BenchmarkServe|BenchmarkEngineIngest|BenchmarkGridGroups}"

if [ "$OUT" = "-" ]; then
    OUT=""
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count 1 . | tee "$RAW" >&2

# Parse `go test -bench` lines:
#   BenchmarkFig1a   675  1712661 ns/op  10692 routing_cost ... 516912 B/op  3395 allocs/op
awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
    iters = $2
    ns = ""; bytes = ""; allocs = ""; metrics = ""
    for (i = 3; i < NF; i += 2) {
        val = $i; unit = $(i + 1)
        if (unit == "ns/op") ns = val
        else if (unit == "B/op") bytes = val
        else if (unit == "allocs/op") allocs = val
        else {
            if (metrics != "") metrics = metrics ", "
            metrics = metrics "\"" unit "\": " val
        }
    }
    if (out != "") out = out ",\n"
    out = out sprintf("  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"metrics\": {%s}}",
                      name, iters, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs, metrics)
}
END { printf "[\n%s\n]\n", out }
' "$RAW" > "${OUT:-/dev/stdout}"

if [ -n "$OUT" ]; then
    echo "wrote $OUT" >&2
fi
