#!/usr/bin/env bash
# The benchmark's single entry point: builds the package offline from the
# checked-in lock file, then runs it with the given arguments from the
# repository root (results land in benchmark/out/).
#
#   benchmark/run.sh                         all four workloads, tracing off
#   benchmark/run.sh --trace                 per-layer metrics + Chrome traces
#   benchmark/run.sh --workload serve-hot --seed 7 --seconds 12 --trace 0
#   benchmark/run.sh --quick                 smoke run, not comparable
#   benchmark/run.sh selfcheck               two sets of the same code agree
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# Cargo's own chatter goes to stderr; stdout is the benchmark's alone.
exec cargo run --quiet --release --offline --locked \
    --manifest-path benchmark/Cargo.toml -- "$@"
