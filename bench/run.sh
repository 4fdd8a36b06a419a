#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Plain form (what BENCHMARK.json's command is):
#
#   bash bench/run.sh --workload maint_flap --seed 1 --seconds 10 --trace 0
#
# Whole suite (every workload, untraced then traced, one child each):
#
#   bash bench/run.sh
#
# Noise check (two sets of N runs of the same code, medians compared
# against the bounds in BENCHMARK.json; exits non-zero on a breach):
#
#   bash bench/run.sh -repeat 3 -sets 2
#
# The binary and the Go build cache live under .bench_build/ in the
# checkout, so nothing outside the checkout is written by the build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS=
export GOTOOLCHAIN=local
(cd bench && go build -o "$root/.bench_build/nettrails-bench" .) >&2
exec "$root/.bench_build/nettrails-bench" "$@"
