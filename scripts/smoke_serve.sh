#!/usr/bin/env bash
# End-to-end smoke test of the experiment service (`experiments serve`):
#
#   1. start the service on a free port with a fresh store root;
#   2. submit a tiny grid over HTTP and poll it to completion, then check
#      the shards endpoint: the local worker ran it through shard leases,
#      so at least one shard is listed and every shard is done;
#   3. fetch summary.csv and assert it is byte-identical to a direct
#      `experiments grid -store` run of the same specs (the service must
#      be a transparent front end over the same deterministic grid);
#   4. resubmit the identical specs and assert a cache hit (no recompute);
#   5. shut the service down gracefully (SIGINT) and check it drains.
#
# CI runs this as the service smoke job; scripts/check_docs.sh runs it
# from the README, so the quickstart can never drift from the code.
#
# Usage: scripts/smoke_serve.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
server_pid=""
cleanup() {
	if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
		kill -INT "$server_pid" 2>/dev/null || true
		wait "$server_pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/experiments" ./cmd/experiments

cat >"$tmp/specs.json" <<'EOF'
[
  {
    "name": "smoke",
    "family": "uniform",
    "racks": 8,
    "requests": 2000,
    "seed": 1,
    "bs": [2],
    "reps": 2,
    "algs": ["r-bma", "oblivious"]
  }
]
EOF

port=$((20000 + RANDOM % 20000))
addr="127.0.0.1:$port"
"$tmp/experiments" serve -addr "$addr" -store-root "$tmp/serve-root" \
	>"$tmp/serve.log" 2>&1 &
server_pid=$!

for _ in $(seq 1 100); do
	if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
		break
	fi
	if ! kill -0 "$server_pid" 2>/dev/null; then
		echo "smoke_serve: server died on startup:" >&2
		cat "$tmp/serve.log" >&2
		exit 1
	fi
	sleep 0.1
done
curl -sf "http://$addr/healthz" >/dev/null

# Submit and remember the job id (= the run's spec hash).
submit=$(curl -sf -X POST --data-binary @"$tmp/specs.json" "http://$addr/api/v1/jobs")
job_id=$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' <<<"$submit")
if [ -z "$job_id" ]; then
	echo "smoke_serve: submission returned no job id: $submit" >&2
	exit 1
fi

# Poll to completion.
state=""
for _ in $(seq 1 300); do
	status=$(curl -sf "http://$addr/api/v1/jobs/$job_id")
	state=$(sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' <<<"$status")
	case "$state" in
	done) break ;;
	failed)
		echo "smoke_serve: job failed: $status" >&2
		exit 1
		;;
	esac
	sleep 0.1
done
if [ "$state" != "done" ]; then
	echo "smoke_serve: job never finished (state=$state)" >&2
	cat "$tmp/serve.log" >&2
	exit 1
fi

# The local worker drained the job through shard leases, like a fleet
# worker: the shard table lists every shard, all done.
shards=$(curl -sf "http://$addr/api/v1/jobs/$job_id/shards")
if ! grep -q '"state": "done"' <<<"$shards" || grep -q '"state": "\(pending\|leased\)"' <<<"$shards"; then
	echo "smoke_serve: the done job's shards are not all done:" >&2
	echo "$shards" >&2
	exit 1
fi

curl -sf "http://$addr/api/v1/jobs/$job_id/summary.csv" >"$tmp/served.csv"
curl -sf "http://$addr/api/v1/jobs/$job_id/report.md" >"$tmp/served.md"
grep -q '^# Run report' "$tmp/served.md"

# The same grid run directly (same curve-points as the service default)
# must render a byte-identical summary.
"$tmp/experiments" grid -scenarios "$tmp/specs.json" -store "$tmp/direct" \
	-curve-points 10 -outdir "$tmp/direct-out" -progress=false >/dev/null
if ! cmp -s "$tmp/served.csv" "$tmp/direct/summary.csv"; then
	echo "smoke_serve: served summary.csv differs from direct RunGrid:" >&2
	diff "$tmp/served.csv" "$tmp/direct/summary.csv" >&2 || true
	exit 1
fi

# Resubmitting the identical specs is a cache hit: HTTP 200 + cached flag.
code=$(curl -s -o "$tmp/resubmit.json" -w '%{http_code}' \
	-X POST --data-binary @"$tmp/specs.json" "http://$addr/api/v1/jobs")
if [ "$code" != "200" ] || ! grep -q '"cached": true' "$tmp/resubmit.json"; then
	echo "smoke_serve: resubmission was not a cache hit (HTTP $code):" >&2
	cat "$tmp/resubmit.json" >&2
	exit 1
fi

# Graceful shutdown must drain and exit zero.
kill -INT "$server_pid"
wait "$server_pid"
server_pid=""

echo "smoke_serve: OK (job $job_id, summary byte-identical, cache hit confirmed)"
