#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json). Builds the product's
# CLI and the benchmark in release mode — outside every timed region —
# then hands all arguments to the benchmark binary:
#
#   perfbench/run.sh --workload zab-pass --seed 42 --seconds 20 --trace 0
#   perfbench/run.sh                      # every workload, untraced + traced
#   perfbench/run.sh --quick              # < 60 s shrink of the above
#
# Run from the repository root. Everything is written under
# $CARGO_TARGET_DIR (default: target), which .gitignore covers.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# cargo's own progress goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet --bin mocket-cli
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

exec "$CARGO_TARGET_DIR/release/mocket-perfbench" "$@"
