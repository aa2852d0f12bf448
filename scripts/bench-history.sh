#!/usr/bin/env bash
# Appends the end-to-end medians of the last benchmark run to the
# repository's trajectory, BENCH_history.jsonl (ROADMAP item 2): one
# line per record under $CARGO_TARGET_DIR/benchmark/*/seed*-trace*.json,
#
#   {"commit":…,"workload":…,"wall_s":…,"setup_s":…,"cases_per_s":…,
#    "cpu_s":…,"peak_rss_mb":…,"states":…,"cases":…}
#
#   perfbench/run.sh && scripts/bench-history.sh            # label: git describe
#   scripts/bench-history.sh 8e652d8+issue22                # label given
#
# The file is append-only: scripts/lint.sh fails when a committed line
# changes or disappears. `--quick` records are never published numbers
# and are skipped. Needs jq.
set -euo pipefail
cd "$(dirname "$0")/.."

commit="${1:-$(git describe --always --dirty)}"
shopt -s nullglob
records=("${CARGO_TARGET_DIR:-target}"/benchmark/*/seed*-trace*.json)
if [ "${#records[@]}" -eq 0 ]; then
    echo "error: no benchmark records; run perfbench/run.sh first" >&2
    exit 1
fi

jq -c --arg commit "$commit" 'select(.quick == 0 and .correct == 1) | {
    commit: $commit,
    workload,
    wall_s: ."metric.wall_s",
    setup_s: ."metric.setup_s",
    cases_per_s: ."metric.cases_per_s",
    cpu_s: ."metric.cpu_s",
    peak_rss_mb: ."metric.peak_rss_mb",
    states: ."count.states",
    cases: ."count.cases"
}' "${records[@]}" >> BENCH_history.jsonl
