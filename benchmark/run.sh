#!/usr/bin/env bash
# Entry point the driver runs from the root of a checkout (BENCHMARK.json's
# "command"): builds the benchmark from source into .bench_build/ — with the
# Go build cache, temporary files and the toolchain's telemetry counters there
# too, so nothing is written outside the checkout — and runs it with the
# arguments given.
#
#   bash benchmark/run.sh --workload query_live --seed 1 --seconds 10 --trace 0
set -euo pipefail
[ -f go.mod ] || { echo "benchmark/run.sh: run from the repository root (no go.mod here)" >&2; exit 1; }
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
XDG_CONFIG_HOME="$PWD/.bench_build/config" go build -o .bench_build/nous-benchmark ./benchmark
exec .bench_build/nous-benchmark -work-dir .bench_build "$@"
