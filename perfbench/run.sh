#!/bin/sh
# Builds the benchmark from this checkout and runs it as a plain binary
# (never under `go run`, whose child would outlive an interrupted parent).
# Everything the build writes stays in .bench_build at the checkout root.
#
#	bash perfbench/run.sh --workload predict-hot --seed 1 --seconds 20 --trace 0
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
