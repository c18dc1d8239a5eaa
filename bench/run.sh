#!/bin/sh
# Builds the benchmark and the experiments binary it drives into
# .bench_build/, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   sh bench/run.sh --workload rewire_tree --seed 13 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/ too, so a
# run writes nothing outside the checkout; the first run fills the cache.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/experiments" ./cmd/experiments
go -C bench build -o "$out/gncgbench" .
exec "$out/gncgbench" "$@"
