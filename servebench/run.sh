#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it with
# the given arguments. Run from anywhere inside a checkout; the build cache,
# temporary files, binary and span dumps all stay under .bench_build/ at the
# checkout root.
#
#   bash servebench/run.sh --workload fleet-stitch --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/gocache .bench_build/gomodcache .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache"
export GOTMPDIR="$root/.bench_build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C servebench build -o "$root/.bench_build/servebench" .
exec "$root/.bench_build/servebench" "$@"
