#!/usr/bin/env bash
# Repo verification: tier-1 (release build + full test suite) plus the
# instrumentation determinism goldens, the parallel-runner golden, the
# paper-claims self-check and a fresh `reproduce --full` diffed against the
# committed results/. Run from anywhere; always executes against the
# repo root. The workspace has no external dependencies, so this needs no
# network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: workspace tests =="
cargo test -q

echo "== benchmark package: build + unit tests (its own workspace) =="
# examples/benchmark compiles against the public simulator API; nothing
# else builds it, so an API break would otherwise surface only in bench.sh.
cargo test --release -q --manifest-path examples/benchmark/Cargo.toml

echo "== lint: rustfmt (check only) =="
cargo fmt --check

echo "== lint: clippy (all targets, warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== lint: rustdoc (broken and private intra-doc links denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== determinism goldens (byte-identical traces, zero-perturbation) =="
cargo test -q --test trace_golden
cargo test -q --test determinism

echo "== spin-wait fast-forward goldens (parked spinners match the plain loop) =="
# tc-pcie's spin_ff also pins the executor's run merge to the plain loop:
# tied pollers, a fast poller between a slow one's steps, a store inside a
# whole-period jump, and seeded random pollers.
cargo test -q -p tc-pcie --test spin_ff
cargo test -q -p tc-gpu --test spin_ff
cargo test -q -p tc-extoll --test velo_end_to_end \
    mailbox_recv_matches_a_try_recv_loop_on_both_processors

echo "== parallel runner golden (--jobs N output byte-identical to serial) =="
cargo test -q --test parallel_golden

echo "== sharded-DES golden (sharded build byte-identical to serial) =="
cargo test -q --test shard_golden

echo "== backend + message-layer conformance (both fabrics, put/get rendezvous) =="
cargo test -q -p tc-putget --test conformance

echo "== examples (self-checking scenarios, both fabrics where they take --ib) =="
# cargo test compiles the examples but never runs them; each one asserts
# its own result, so a broken example fails here.
run_example() { cargo run --release -q --example "$@" > /dev/null; }
run_example quickstart
run_example allreduce
run_example allreduce -- --ib
run_example halo_exchange
run_example halo_exchange -- --ib
run_example velo_rpc
run_example ring_allreduce
run_example pingpong_scan

echo "== paper-claims self-check (reproduce check --quick; fails on any [FAIL]) =="
cargo run --release -p tc-bench --bin reproduce -- check --quick > /dev/null

echo "== metrics export + strict schema self-check (tc-metrics-v1) =="
metrics_dir="$(mktemp -d)"
trap 'rm -rf "$metrics_dir"' EXIT
cargo run --release -p tc-bench --bin reproduce -- \
    --ids pingpong --metrics "$metrics_dir" --trace pingpong > /dev/null
test -s "$metrics_dir/pingpong.trace.json"
# Fails on unknown or missing keys anywhere in the emitted JSON.
cargo run --release -p tc-bench --bin reproduce -- \
    --validate-metrics "$metrics_dir/pingpong.metrics.json"

echo "== committed results/ match a fresh reproduce --full (byte for byte) =="
fresh="$metrics_dir/results"
mkdir -p "$fresh"
cargo run --release -p tc-bench --bin reproduce -- \
    --full --jobs 2 --out "$fresh" > "$fresh/full_results.txt"
diff -r results "$fresh"

echo "== causal profile (latency attribution sums + tc-timeseries-v1) =="
# Exits 1 if any attribution claim reports [FAIL] (sum-vs-measured off by
# >5%, <95% named-layer coverage, wrong wire-crossing count, or a
# serial-vs-sharded attribution mismatch).
cargo run --release -p tc-bench --bin reproduce -- \
    --ids profile --metrics "$metrics_dir" > /dev/null
test -s "$metrics_dir/profile.timeseries.json"
cargo run --release -p tc-bench --bin reproduce -- \
    --validate-metrics "$metrics_dir/profile.timeseries.json"

echo "== crossover experiment (protocol grid + msg0.* metrics) =="
cargo run --release -p tc-bench --bin reproduce -- \
    --ids crossover --metrics "$metrics_dir" > /dev/null
grep -q '"msg0.rts"' "$metrics_dir/crossover.metrics.json"
cargo run --release -p tc-bench --bin reproduce -- \
    --validate-metrics "$metrics_dir/crossover.metrics.json"

echo "== DES-kernel microbenchmarks (tc-desim-bench-v1 -> BENCH_desim.json) =="
# Wheel-vs-reference-heap events/sec plus the sharded-ring sweep (1/2/4/8
# worker shards); the committed JSON tracks the trajectory PR over PR.
# Compare against the previous report first so a >25% wheel-throughput
# regression fails verification (the shard_ring series gates on its
# 1-shard point only — multi-shard points depend on host core count).
cargo run --release -p tc-bench --bin reproduce -- \
    --bench-desim "$metrics_dir/BENCH_desim.json"
cargo run --release -p tc-bench --bin reproduce -- \
    --validate-metrics "$metrics_dir/BENCH_desim.json"
# The baseline is committed; a missing file means a broken checkout, so
# the comparison is mandatory (it exits 1 on a >25% wheel regression,
# aborting before the refresh below under `set -e`).
test -s BENCH_desim.json
cargo run --release -p tc-bench --bin reproduce -- \
    --bench-compare BENCH_desim.json "$metrics_dir/BENCH_desim.json"
cp "$metrics_dir/BENCH_desim.json" BENCH_desim.json

echo "== Rust line count (information only, not a gate) =="
scripts/loc.sh || true

echo "verify: OK"
