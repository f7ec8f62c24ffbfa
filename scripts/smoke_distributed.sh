#!/usr/bin/env bash
# End-to-end smoke test of distributed grid execution (`experiments serve`
# as a coordinator-only service + an `experiments worker` fleet):
#
#   1. run the reference grid directly (`experiments grid -store`);
#   2. start the coordinator with -workers 0 (no local execution) and a
#      small -shard-size so the grid splits into several leasable shards;
#   3. start 2 worker processes against it;
#   4. submit the same specs over HTTP and poll the job to completion —
#      every grid job necessarily flowed through shard leases;
#   5. assert the served summary.csv is byte-identical to the direct run
#      and that every shard reports done;
#   6. chaos: SIGINT a worker mid-shard (handoff + requeue), then
#      kill -9 the coordinator mid-grid and restart it on the same
#      store-root — the lease WAL must rebuild the job and the summary
#      must still be byte-identical;
#   7. stop the fleet and the coordinator gracefully (SIGINT).
#
# CI runs this as the distributed smoke job; docs/OPERATIONS.md points
# here as the runnable form of the fleet runbook.
#
# Usage: scripts/smoke_distributed.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]:-}"; do
		if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
			kill -INT "$pid" 2>/dev/null || true
			wait "$pid" 2>/dev/null || true
		fi
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/experiments" ./cmd/experiments

cat >"$tmp/specs.json" <<'EOF'
[
  {
    "name": "dist-uni",
    "family": "uniform",
    "racks": 10,
    "requests": 4000,
    "seed": 11,
    "bs": [2, 3],
    "reps": 2,
    "algs": ["r-bma", "bma"]
  },
  {
    "name": "dist-ps",
    "family": "phase-shift",
    "racks": 10,
    "requests": 4000,
    "seed": 12,
    "bs": [2],
    "reps": 2,
    "algs": ["r-bma", "oblivious"]
  }
]
EOF

# Reference: the same grid, single process, same curve-points as the
# service default.
"$tmp/experiments" grid -scenarios "$tmp/specs.json" -store "$tmp/direct" \
	-curve-points 10 -outdir "$tmp/direct-out" -progress=false >/dev/null

. scripts/ports.sh
port=$(base_port 4)
addr="127.0.0.1:$port"
"$tmp/experiments" serve -addr "$addr" -store-root "$tmp/serve-root" \
	-workers 0 -shard-size 2 -lease-ttl 10s \
	>"$tmp/serve.log" 2>&1 &
pids+=($!)
server_pid=$!

for _ in $(seq 1 100); do
	if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
		break
	fi
	if ! kill -0 "$server_pid" 2>/dev/null; then
		echo "smoke_distributed: coordinator died on startup:" >&2
		cat "$tmp/serve.log" >&2
		exit 1
	fi
	sleep 0.1
done
curl -sf "http://$addr/healthz" >/dev/null

# A 2-worker fleet. Workers poll fast so the smoke stays quick;
# -checkpoint-every arms the mid-shard handoff exercised by the chaos leg.
# Each worker exposes its obm_work_*/obm_grid_* metrics on its own port.
worker_pids=()
for w in 1 2; do
	"$tmp/experiments" worker -coordinator "http://$addr" -capacity 2 \
		-workdir "$tmp/w$w" -name "smoke-w$w" -poll 100ms \
		-checkpoint-every 500000 -grid-workers 1 \
		-metrics "127.0.0.1:$((port + 1 + w))" \
		>"$tmp/worker$w.log" 2>&1 &
	pids+=($!)
	worker_pids+=($!)
done
for w in 1 2; do
	for _ in $(seq 1 100); do
		if curl -sf "http://127.0.0.1:$((port + 1 + w))/healthz" >/dev/null 2>&1; then
			break
		fi
		if ! kill -0 "${worker_pids[$((w - 1))]}" 2>/dev/null; then
			echo "smoke_distributed: worker $w died on startup:" >&2
			cat "$tmp/worker$w.log" >&2
			exit 1
		fi
		sleep 0.1
	done
done

submit=$(curl -sf -X POST --data-binary @"$tmp/specs.json" "http://$addr/api/v1/jobs")
job_id=$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' <<<"$submit")
if [ -z "$job_id" ]; then
	echo "smoke_distributed: submission returned no job id: $submit" >&2
	exit 1
fi

state=""
for _ in $(seq 1 600); do
	status=$(curl -sf "http://$addr/api/v1/jobs/$job_id")
	state=$(sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' <<<"$status")
	case "$state" in
	done) break ;;
	failed)
		echo "smoke_distributed: job failed: $status" >&2
		cat "$tmp/serve.log" "$tmp"/worker*.log >&2
		exit 1
		;;
	esac
	sleep 0.1
done
if [ "$state" != "done" ]; then
	echo "smoke_distributed: job never finished (state=$state)" >&2
	cat "$tmp/serve.log" "$tmp"/worker*.log >&2
	exit 1
fi

# The fleet must have owned the job (coordinator has no local pool) and
# every shard must be done.
shards=$(curl -sf "http://$addr/api/v1/jobs/$job_id/shards")
if grep -qE '"state": "(pending|leased)"' <<<"$shards"; then
	echo "smoke_distributed: unfinished shards after done:" >&2
	echo "$shards" >&2
	exit 1
fi
if ! grep -q '"state": "done"' <<<"$shards"; then
	echo "smoke_distributed: no shards were leased — fleet never ran:" >&2
	echo "$shards" >&2
	exit 1
fi

curl -sf "http://$addr/api/v1/jobs/$job_id/summary.csv" >"$tmp/served.csv"
if ! cmp -s "$tmp/served.csv" "$tmp/direct/summary.csv"; then
	echo "smoke_distributed: fleet summary.csv differs from direct RunGrid:" >&2
	diff "$tmp/served.csv" "$tmp/direct/summary.csv" >&2 || true
	exit 1
fi

# Coordinator metrics: the drained job must show up as granted leases,
# completed shards, absorbed records and a done job.
metric() { sed -n "s/^$2 \\([0-9][0-9.e+]*\\)\$/\\1/p" <<<"$1"; }
assert_ge() { # exposition metric-line floor label
	v=$(metric "$1" "$2")
	if [ -z "$v" ] || ! awk -v v="$v" -v f="$3" 'BEGIN { exit !(v >= f) }'; then
		echo "smoke_distributed: $4: $2=$v, want >= $3" >&2
		exit 1
	fi
}
smetrics=$(curl -sf "http://$addr/metrics")
assert_ge "$smetrics" 'obm_serve_leases_granted_total' 1 'coordinator'
assert_ge "$smetrics" 'obm_serve_shards_completed_total' 1 'coordinator'
assert_ge "$smetrics" 'obm_serve_absorbed_records_total' 12 'coordinator'
assert_ge "$smetrics" 'obm_serve_jobs{state="done"}' 1 'coordinator'
leases_before=$(metric "$smetrics" 'obm_serve_leases_granted_total')
absorbed_before=$(metric "$smetrics" 'obm_serve_absorbed_records_total')

# Worker metrics: across the fleet, every lease and replayed request is
# accounted for (heartbeats may legitimately be zero — the first one fires
# at TTL/3, which a fast shard never reaches).
wleases=0
wrequests=0
for w in 1 2; do
	wm=$(curl -sf "http://127.0.0.1:$((port + 1 + w))/metrics")
	l=$(metric "$wm" 'obm_work_leases_total')
	r=$(metric "$wm" 'obm_grid_requests_total')
	wleases=$((wleases + ${l:-0}))
	wrequests=$((wrequests + ${r:-0}))
done
if [ "$wleases" -lt 1 ] || [ "$wrequests" -lt 1 ]; then
	echo "smoke_distributed: fleet metrics flat (leases=$wleases, grid requests=$wrequests)" >&2
	exit 1
fi

# Chaos leg: SIGINT a worker in the middle of a shard. The dying worker
# uploads its partial log so the coordinator requeues the shard at once;
# the surviving worker finishes it (resuming inside partially replayed
# jobs from the dead worker's uploaded outcomes plus its own checkpoints)
# and the merged summary must STILL be byte-identical to the direct run.
cat >"$tmp/specs2.json" <<'EOF'
[
  {
    "name": "chaos-uni",
    "family": "uniform",
    "racks": 16,
    "requests": 20000000,
    "seed": 21,
    "bs": [2],
    "reps": 1,
    "algs": ["r-bma", "bma"]
  }
]
EOF
"$tmp/experiments" grid -scenarios "$tmp/specs2.json" -store "$tmp/direct2" \
	-curve-points 10 -outdir "$tmp/direct2-out" -progress=false >/dev/null

submit=$(curl -sf -X POST --data-binary @"$tmp/specs2.json" "http://$addr/api/v1/jobs")
job2_id=$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' <<<"$submit")
if [ -z "$job2_id" ]; then
	echo "smoke_distributed: chaos submission returned no job id: $submit" >&2
	exit 1
fi

# Wait until a worker holds a leased chaos shard, then kill that worker
# mid-run.
victim=""
for _ in $(seq 1 200); do
	shards=$(curl -sf "http://$addr/api/v1/jobs/$job2_id/shards")
	if grep -q '"state": "leased"' <<<"$shards"; then
		victim=$(sed -n 's/.*"worker": "smoke-w\([0-9]*\)".*/\1/p' <<<"$shards" | head -1)
		[ -n "$victim" ] && break
	fi
	sleep 0.05
done
if [ -z "$victim" ]; then
	echo "smoke_distributed: no worker ever leased a chaos shard:" >&2
	curl -sf "http://$addr/api/v1/jobs/$job2_id/shards" >&2
	exit 1
fi
sleep 0.3 # let the replay get into the shard's interior
victim_pid="${worker_pids[$((victim - 1))]}"
kill -INT "$victim_pid"
wait "$victim_pid"
if ! grep -q 'handed off shard' "$tmp/worker$victim.log"; then
	echo "smoke_distributed: killed worker smoke-w$victim did not hand off its shard:" >&2
	cat "$tmp/worker$victim.log" >&2
	exit 1
fi

state=""
for _ in $(seq 1 1200); do
	status=$(curl -sf "http://$addr/api/v1/jobs/$job2_id")
	state=$(sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' <<<"$status")
	case "$state" in
	done) break ;;
	failed)
		echo "smoke_distributed: chaos job failed: $status" >&2
		cat "$tmp/serve.log" "$tmp"/worker*.log >&2
		exit 1
		;;
	esac
	sleep 0.1
done
if [ "$state" != "done" ]; then
	echo "smoke_distributed: chaos job never finished (state=$state)" >&2
	cat "$tmp/serve.log" "$tmp"/worker*.log >&2
	exit 1
fi

curl -sf "http://$addr/api/v1/jobs/$job2_id/summary.csv" >"$tmp/served2.csv"
if ! cmp -s "$tmp/served2.csv" "$tmp/direct2/summary.csv"; then
	echo "smoke_distributed: chaos summary.csv differs from direct RunGrid:" >&2
	diff "$tmp/served2.csv" "$tmp/direct2/summary.csv" >&2 || true
	exit 1
fi

# A post-chaos scrape must be monotone on the counters and show both jobs
# done; the handed-off shard's partial log counts as absorbed records.
smetrics2=$(curl -sf "http://$addr/metrics")
assert_ge "$smetrics2" 'obm_serve_leases_granted_total' "$leases_before" 'coordinator (post-chaos)'
assert_ge "$smetrics2" 'obm_serve_absorbed_records_total' "$absorbed_before" 'coordinator (post-chaos)'
assert_ge "$smetrics2" 'obm_serve_jobs{state="done"}' 2 'coordinator (post-chaos)'

# Coordinator-crash leg: submit a third grid, wait until the fleet holds
# a lease on it, then kill -9 the coordinator — no Shutdown, no flush
# beyond the per-append lease WAL. A fresh coordinator process on the
# same store-root must replay the WAL, re-arm the outstanding lease
# (the surviving worker's heartbeats and upload retries bridge the
# outage), drain the job, and still produce a byte-identical summary.
cat >"$tmp/specs3.json" <<'EOF'
[
  {
    "name": "crash-ps",
    "family": "phase-shift",
    "racks": 16,
    "requests": 20000000,
    "seed": 31,
    "bs": [2],
    "reps": 1,
    "algs": ["r-bma", "oblivious"]
  }
]
EOF
"$tmp/experiments" grid -scenarios "$tmp/specs3.json" -store "$tmp/direct3" \
	-curve-points 10 -outdir "$tmp/direct3-out" -progress=false >/dev/null

submit=$(curl -sf -X POST --data-binary @"$tmp/specs3.json" "http://$addr/api/v1/jobs")
job3_id=$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' <<<"$submit")
if [ -z "$job3_id" ]; then
	echo "smoke_distributed: crash submission returned no job id: $submit" >&2
	exit 1
fi

leased=""
for _ in $(seq 1 200); do
	shards=$(curl -sf "http://$addr/api/v1/jobs/$job3_id/shards" || true)
	if grep -q '"state": "leased"' <<<"$shards"; then
		leased=yes
		break
	fi
	sleep 0.05
done
if [ -z "$leased" ]; then
	echo "smoke_distributed: no worker ever leased a crash-leg shard:" >&2
	curl -sf "http://$addr/api/v1/jobs/$job3_id/shards" >&2 || true
	exit 1
fi
sleep 0.3 # let the replay get into the shard's interior

kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
echo "smoke_distributed: coordinator killed -9 mid-grid; restarting on the same store-root"

"$tmp/experiments" serve -addr "$addr" -store-root "$tmp/serve-root" \
	-workers 0 -shard-size 2 -lease-ttl 10s \
	>"$tmp/serve2.log" 2>&1 &
pids+=($!)
server_pid=$!
for _ in $(seq 1 100); do
	if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
		break
	fi
	if ! kill -0 "$server_pid" 2>/dev/null; then
		echo "smoke_distributed: restarted coordinator died on startup:" >&2
		cat "$tmp/serve2.log" >&2
		exit 1
	fi
	sleep 0.1
done
curl -sf "http://$addr/healthz" >/dev/null

# The restarted coordinator must have rebuilt the job from the lease WAL.
smetrics3=$(curl -sf "http://$addr/metrics")
assert_ge "$smetrics3" 'obm_serve_wal_replayed_records_total' 1 'coordinator (post-crash)'
if [ -n "$(metric "$smetrics3" 'obm_serve_wal_discarded_total')" ] &&
	[ "$(metric "$smetrics3" 'obm_serve_wal_discarded_total')" != "0" ]; then
	echo "smoke_distributed: restarted coordinator discarded a lease WAL:" >&2
	cat "$tmp/serve2.log" >&2
	exit 1
fi

state=""
for _ in $(seq 1 1200); do
	status=$(curl -sf "http://$addr/api/v1/jobs/$job3_id" || true)
	state=$(sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' <<<"$status")
	case "$state" in
	done) break ;;
	failed)
		echo "smoke_distributed: crash job failed: $status" >&2
		cat "$tmp"/serve*.log "$tmp"/worker*.log >&2
		exit 1
		;;
	esac
	sleep 0.1
done
if [ "$state" != "done" ]; then
	echo "smoke_distributed: crash job never finished (state=$state)" >&2
	cat "$tmp"/serve*.log "$tmp"/worker*.log >&2
	exit 1
fi

curl -sf "http://$addr/api/v1/jobs/$job3_id/summary.csv" >"$tmp/served3.csv"
if ! cmp -s "$tmp/served3.csv" "$tmp/direct3/summary.csv"; then
	echo "smoke_distributed: crash summary.csv differs from direct RunGrid:" >&2
	diff "$tmp/served3.csv" "$tmp/direct3/summary.csv" >&2 || true
	exit 1
fi

# Graceful fleet + coordinator shutdown must exit zero (the surviving
# worker and the coordinator; worker 1 was already SIGINTed by the chaos
# leg).
for ((i = ${#pids[@]} - 1; i >= 0; i--)); do
	pid="${pids[$i]}"
	if kill -0 "$pid" 2>/dev/null; then
		kill -INT "$pid"
		wait "$pid"
	fi
done
pids=()

echo "smoke_distributed: OK (job $job_id drained by 2 workers, summary byte-identical; chaos job $job2_id survived a mid-shard worker kill byte-identically; crash job $job3_id survived a kill -9 coordinator restart byte-identically)"
