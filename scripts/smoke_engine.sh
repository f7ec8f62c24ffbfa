#!/usr/bin/env bash
# End-to-end smoke test of the live matching engine (`experiments engine`):
#
#   1. start the engine (HTTP control plane + binary ingest port);
#   2. drive it with `experiments loadgen -verify`, which streams a
#      generated workload over the binary protocol and asserts the
#      engine's cumulative costs are bit-identical to an offline
#      sim.RunSource replay of the same stream — the determinism
#      contract, end to end over a real socket;
#   3. assert the achieved ingest rate clears a conservative throughput
#      floor (the acceptance benchmark BenchmarkEngineIngest pins the
#      real line-rate number; this floor only catches order-of-magnitude
#      collapses on slow CI runners);
#   4. exercise the HTTP single-request path and the status/pprof
#      endpoints;
#   5. shut the engine down gracefully (SIGINT).
#
# Usage: scripts/smoke_engine.sh [throughput_floor_mreq_per_s]
set -euo pipefail
cd "$(dirname "$0")/.."

floor="${1:-0.2}"

tmp=$(mktemp -d)
engine_pid=""
cleanup() {
	if [ -n "$engine_pid" ] && kill -0 "$engine_pid" 2>/dev/null; then
		kill -INT "$engine_pid" 2>/dev/null || true
		wait "$engine_pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/experiments" ./cmd/experiments

. scripts/ports.sh
port=$(base_port 2)
addr="127.0.0.1:$port"
ingest="127.0.0.1:$((port + 1))"
"$tmp/experiments" engine -addr "$addr" -ingest "$ingest" >"$tmp/engine.log" 2>&1 &
engine_pid=$!

for _ in $(seq 1 100); do
	if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
		break
	fi
	if ! kill -0 "$engine_pid" 2>/dev/null; then
		echo "smoke_engine: engine died on startup:" >&2
		cat "$tmp/engine.log" >&2
		exit 1
	fi
	sleep 0.1
done
curl -sf "http://$addr/healthz" >/dev/null

# Loadgen with -verify: two connections, each a session + workload stream,
# costs checked bit-for-bit against offline replay after draining.
# -report-every exercises the client-side progress reporter (the run may
# finish before the first tick, so only the exit status is asserted).
"$tmp/experiments" loadgen -ingest "$ingest" -control "http://$addr" \
	-family uniform -racks 48 -requests 300000 -conns 2 -seed 7 \
	-report-every 25ms -verify -keep | tee "$tmp/loadgen.out"
grep -q 'verify MATCH' "$tmp/loadgen.out"

# Throughput floor on the aggregate rate loadgen reports.
rate=$(sed -n 's/^loadgen: total .* = \([0-9.]*\) Mreq\/s$/\1/p' "$tmp/loadgen.out")
if [ -z "$rate" ]; then
	echo "smoke_engine: no total throughput line in loadgen output" >&2
	exit 1
fi
if ! awk -v r="$rate" -v f="$floor" 'BEGIN { exit !(r >= f) }'; then
	echo "smoke_engine: ingest rate $rate Mreq/s below floor $floor Mreq/s" >&2
	exit 1
fi

# The sessions were kept alive (-keep): status must report the served
# counts and latency quantiles, and the single-request HTTP path must
# advance the counter.
status=$(curl -sf "http://$addr/api/v1/sessions/loadgen-0")
grep -q '"served": 300000' <<<"$status"
grep -q '"p99_us"' <<<"$status"

# The metrics exposition must carry the ingest counters (2 conns x 300000
# requests), the per-session series, and the batch-size summary.
metrics=$(curl -sf "http://$addr/metrics")
ingested=$(sed -n 's/^obm_engine_ingest_requests_total \([0-9]*\)$/\1/p' <<<"$metrics")
if [ -z "$ingested" ] || [ "$ingested" -lt 600000 ]; then
	echo "smoke_engine: obm_engine_ingest_requests_total=$ingested, want >= 600000" >&2
	exit 1
fi
grep -q '^obm_engine_session_served_total{session="loadgen-0"} 300000$' <<<"$metrics"
grep -q '^obm_engine_batch_requests{quantile="0.5"}' <<<"$metrics"
grep -q '^obm_engine_session_batch_seconds_count{session="loadgen-0"}' <<<"$metrics"

# The churn stream must replay per-batch matching deltas for the session.
churn=$(curl -sf "http://$addr/api/v1/sessions/loadgen-0/churn")
grep -q '"adds":' <<<"$churn"
grep -q '"reconfig_delta":' <<<"$churn"

served=$(curl -sf -X POST --data '{"u":1,"v":2}' \
	"http://$addr/api/v1/sessions/loadgen-0/serve" |
	sed -n 's/.*"served": \([0-9]*\).*/\1/p')
if [ "$served" != "300001" ]; then
	echo "smoke_engine: HTTP serve did not advance the counter (served=$served)" >&2
	exit 1
fi

# A second scrape must be monotone on the ingest counter and reflect the
# HTTP-served request in the per-session series.
metrics2=$(curl -sf "http://$addr/metrics")
ingested2=$(sed -n 's/^obm_engine_ingest_requests_total \([0-9]*\)$/\1/p' <<<"$metrics2")
if [ -z "$ingested2" ] || [ "$ingested2" -lt "$ingested" ]; then
	echo "smoke_engine: ingest counter went backwards ($ingested -> $ingested2)" >&2
	exit 1
fi
grep -q '^obm_engine_session_served_total{session="loadgen-0"} 300001$' <<<"$metrics2"

# pprof rides on the status port.
curl -sf "http://$addr/debug/pprof/cmdline" >/dev/null

# Delete a session; its status must 404.
curl -sf -X DELETE "http://$addr/api/v1/sessions/loadgen-1" >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/api/v1/sessions/loadgen-1")
if [ "$code" != "404" ]; then
	echo "smoke_engine: deleted session still answers (HTTP $code)" >&2
	exit 1
fi

# Snapshot/restore leg: stream half a workload into a fresh session,
# snapshot it over HTTP, kill the engine hard (kill -9 — nothing graceful
# to lean on), restart it, restore the session from the blob, and stream
# the remaining half with `loadgen -resume -verify`: the resumed session's
# final costs must still be bit-identical to an offline replay of the FULL
# stream — a snapshot really is the session, mid-stream, to the bit.
"$tmp/experiments" loadgen -ingest "$ingest" -control "http://$addr" \
	-session ckpt -family uniform -racks 48 -requests 150000 -conns 1 -seed 9 \
	-keep >"$tmp/loadgen_head.out"
curl -sf -X POST "http://$addr/api/v1/sessions/ckpt/snapshot" -o "$tmp/ckpt.bin"
if [ ! -s "$tmp/ckpt.bin" ]; then
	echo "smoke_engine: snapshot endpoint returned an empty blob" >&2
	exit 1
fi

kill -9 "$engine_pid"
wait "$engine_pid" 2>/dev/null || true
"$tmp/experiments" engine -addr "$addr" -ingest "$ingest" >>"$tmp/engine.log" 2>&1 &
engine_pid=$!
for _ in $(seq 1 100); do
	if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
		break
	fi
	if ! kill -0 "$engine_pid" 2>/dev/null; then
		echo "smoke_engine: engine died on restart:" >&2
		cat "$tmp/engine.log" >&2
		exit 1
	fi
	sleep 0.1
done

curl -sf -X POST --data-binary "@$tmp/ckpt.bin" \
	"http://$addr/api/v1/sessions/restore" >/dev/null
restored=$(curl -sf "http://$addr/api/v1/sessions/ckpt" |
	sed -n 's/.*"served": \([0-9]*\).*/\1/p' | head -1)
if [ "$restored" != "150000" ]; then
	echo "smoke_engine: restored session reports served=$restored, want 150000" >&2
	exit 1
fi

"$tmp/experiments" loadgen -ingest "$ingest" -control "http://$addr" \
	-session ckpt -family uniform -racks 48 -requests 300000 -conns 1 -seed 9 \
	-resume -verify | tee "$tmp/loadgen_resume.out"
grep -q 'verify MATCH' "$tmp/loadgen_resume.out"

# Graceful shutdown.
kill -INT "$engine_pid"
wait "$engine_pid"
engine_pid=""

echo "smoke_engine: OK (verify MATCH, $rate Mreq/s >= $floor floor; snapshot->kill -9->restore->resume MATCH)"
