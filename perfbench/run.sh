#!/usr/bin/env bash
# Builds the benchmark and casino-server from the sources of the checkout
# it is run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload stall-heavy --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build product, cache and
# result file stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
out="$build/perfbench"
mkdir -p "$out"

# Keep the Go toolchain's caches and config inside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"

go -C "$root/perfbench" build -o "$out/perfbench" .
go -C "$root" build -o "$out/casino-server" ./cmd/casino-server

exec "$out/perfbench" -root "$root" -server-bin "$out/casino-server" -out "$out" "$@"
