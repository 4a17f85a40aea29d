#!/usr/bin/env bash
# Builds the perfbench benchmark from the checkout it is run in and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload xalanc-table3 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
