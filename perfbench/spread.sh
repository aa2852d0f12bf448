#!/usr/bin/env bash
# Steadiness check, the way the driver does it: ten untraced runs of
# every workload, each with another seed, then for every end-to-end
# metric the interquartile range of the ten values as a share of their
# median, against the metric's bound (steady = below a third of it).
#
#   perfbench/spread.sh [OUT_DIR] [FIRST_SEED]
#
# Results go to OUT_DIR (default $CARGO_TARGET_DIR/benchmark-spread);
# run it twice into two directories and `--compare` them to see what
# two sets of the same commit disagree by.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export PERFBENCH_OUT="${1:-$CARGO_TARGET_DIR/benchmark-spread}"
first_seed="${2:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"

for workload in zab-pass raftjava-graph xraft-bugs xraft-campaign; do
    for ((seed = first_seed; seed < first_seed + 10; seed++)); do
        bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1
    done
done
exec "$CARGO_TARGET_DIR/release/mocket-perfbench" --spread "$PERFBENCH_OUT"
