#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload image-train --seed 1 --seconds 24 --trace 0
#
# Build outputs (binary, Go build cache, trace files) stay in
# .bench_build/ under the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOTELEMETRY=off GOPROXY=off
(cd perfbench && go build -o "$out/perfbench.new" .)
mv -f "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" "$@"
