#!/usr/bin/env bash
# Build `reproduce` and the benchmark, then run one workload.
#
#   bash examples/benchmark/bench.sh --workload NAME --seed N \
#       [--seconds S] [--trace 0|1] [--out DIR]
#
# Run from the repository root. Build output goes to stderr; standard
# output is the benchmark's, whose last line is the JSON result. Both
# builds share $CARGO_TARGET_DIR (default: target).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p tc-bench --bin reproduce >&2
cargo build --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
