#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it is run
# in, then runs it with the given arguments (see obmbench/README.md).
# Run it from the repository root:
#
#   bash obmbench/run.sh --workload ingest-bulk --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, the run stores and the span dumps all live
# under .bench_build/ in the current directory. The first run in a fresh
# checkout compiles the standard library into that cache and takes a few
# minutes; later runs only re-link when a source file changed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/obmbench" && go build -o "$out/obmbench" .)
exec "$out/obmbench" "$@"
