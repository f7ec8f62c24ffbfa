#!/usr/bin/env bash
# Exposition lint for every /metrics endpoint in the system. Boots the
# three long-running binaries (engine, coordinator, fleet worker), pushes
# a little traffic through the engine so its dynamic per-session series
# exist, scrapes each exposition, and checks Prometheus text-format
# well-formedness:
#
#   - every non-empty line is a sample or a `# HELP` / `# TYPE` comment;
#   - `# TYPE` names one of counter|gauge|summary and appears exactly
#     once per family, before any of the family's samples;
#   - metric names match [a-zA-Z_:][a-zA-Z0-9_:]*;
#   - no series (name + label set) is emitted twice;
#   - every sample value is numeric.
#
# CI runs this as part of the engine smoke job; it is also a quick local
# sanity check after touching internal/obs or any metric registration.
#
# Usage: scripts/check_metrics.sh
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

lint() { # file label
	awk -v src="$2" '
		function fail(msg) { printf "check_metrics: %s:%d: %s: %s\n", src, NR, msg, $0; bad = 1 }
		/^# HELP / { next }
		/^# TYPE / {
			fam = $3; kind = $4
			if (fam !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) fail("bad family name in TYPE")
			if (kind != "counter" && kind != "gauge" && kind != "summary") fail("bad kind in TYPE")
			if (fam in typed) fail("duplicate TYPE for family")
			typed[fam] = kind
			next
		}
		/^#/ { fail("comment is neither HELP nor TYPE"); next }
		/^$/ { next }
		{
			if (!match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*/)) { fail("bad metric name"); next }
			name = substr($0, RSTART, RLENGTH)
			series = $0
			sub(/ [^ ]*$/, "", series)
			if (seen[series]++) fail("duplicate series")
			fam = name
			if (!(fam in typed) && typed[substr(fam, 1, length(fam) - 4)] == "summary" && fam ~ /_sum$/)
				fam = substr(fam, 1, length(fam) - 4)
			if (!(fam in typed) && typed[substr(fam, 1, length(fam) - 6)] == "summary" && fam ~ /_count$/)
				fam = substr(fam, 1, length(fam) - 6)
			if (!(fam in typed)) fail("sample precedes its TYPE (or family has none)")
			if ($NF !~ /^-?(0x)?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ && $NF != "NaN" && $NF !~ /^[+-]?Inf$/)
				fail("non-numeric sample value")
		}
		END { exit bad }
	' "$1"
}

. scripts/ports.sh
port=$(base_port 4)
addr="127.0.0.1:$port"
ingest="127.0.0.1:$((port + 1))"
serve_addr="127.0.0.1:$((port + 2))"
worker_metrics="127.0.0.1:$((port + 3))"

wait_healthz() { # url pid what log
	for _ in $(seq 1 100); do
		if curl -sf "$1/healthz" >/dev/null 2>&1; then
			return 0
		fi
		if ! kill -0 "$2" 2>/dev/null; then
			echo "check_metrics: $3 died on startup:" >&2
			cat "$4" >&2
			exit 1
		fi
		sleep 0.1
	done
	curl -sf "$1/healthz" >/dev/null
}

# Engine, with a sharded session fed real traffic so the per-session and
# per-plane series are live in the exposition.
"$tmp/experiments" engine -addr "$addr" -ingest "$ingest" -quiet \
	-create '{"id":"check","racks":32,"b":4,"shards":2}' >"$tmp/engine.log" 2>&1 &
pids+=($!)
wait_healthz "http://$addr" "${pids[-1]}" engine "$tmp/engine.log"
"$tmp/experiments" loadgen -ingest "$ingest" -control "" -session check \
	-family uniform -racks 32 -requests 20000 -b 4 -shards 2 -keep >/dev/null
curl -sf "http://$addr/metrics" >"$tmp/engine.metrics"

# Coordinator + one fleet worker (its own exposition is on -metrics).
"$tmp/experiments" serve -addr "$serve_addr" -store-root "$tmp/serve-root" \
	-workers 0 >"$tmp/serve.log" 2>&1 &
pids+=($!)
wait_healthz "http://$serve_addr" "${pids[-1]}" coordinator "$tmp/serve.log"
"$tmp/experiments" worker -coordinator "http://$serve_addr" \
	-workdir "$tmp/work" -metrics "$worker_metrics" -poll 100ms \
	>"$tmp/worker.log" 2>&1 &
pids+=($!)
wait_healthz "http://$worker_metrics" "${pids[-1]}" worker "$tmp/worker.log"
curl -sf "http://$serve_addr/metrics" >"$tmp/serve.metrics"
curl -sf "http://$worker_metrics/metrics" >"$tmp/worker.metrics"

for what in engine serve worker; do
	if ! lint "$tmp/$what.metrics" "$what"; then
		echo "check_metrics: $what exposition is malformed (full text below)" >&2
		cat "$tmp/$what.metrics" >&2
		exit 1
	fi
	# Each binary must expose its own namespace.
	case $what in
	engine) grep -q '^obm_engine_ingest_requests_total ' "$tmp/$what.metrics" ;;
	serve) grep -q '^obm_serve_submissions_total ' "$tmp/$what.metrics" &&
		grep -q '^obm_grid_requests_total ' "$tmp/$what.metrics" ;;
	worker) grep -q '^obm_work_leases_total ' "$tmp/$what.metrics" &&
		grep -q '^obm_grid_requests_total ' "$tmp/$what.metrics" ;;
	esac
done

echo "check_metrics: OK (engine, coordinator and worker expositions well-formed)"
