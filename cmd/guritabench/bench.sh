#!/usr/bin/env bash
# Builds guritabench from the checkout's sources and runs it with the given
# flags. Run it from the root of a checkout:
#
#   bash cmd/guritabench/bench.sh --workload trace-k8 --seed 1 --seconds 20 --trace 0
#
# The toolchain's caches, the binary, and the benchmark's own scratch files
# all stay under .bench_build in the checkout; nothing is fetched.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"
go build -o "$out/bin/guritabench" ./cmd/guritabench
exec "$out/bin/guritabench" "$@"
