#!/usr/bin/env bash
# One command for the whole benchmark. Builds offline, then:
#
#   benchmark/run.sh [--seed N] [--seconds S]   run-all, then traced
#   benchmark/run.sh run --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh run-all|traced|compare ...  that subcommand alone
#
# The driver named in BENCHMARK.json calls the `run` form. Everything is
# run from the repository root, because results and traces are written to
# benchmark/out/ relative to it.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

case "${1:-}" in
run | run-all | traced | compare)
    bench "$@"
    ;;
*)
    bench run-all "$@"
    bench traced "$@"
    ;;
esac
