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
# Timed deliveries run where the processes they replace would have run,
# and the bucket-indexed bus routes like a linear scan of its regions.
cargo test -q -p tc-desim --test deliveries
cargo test -q -p tc-mem --test proptest_mem indexed_bus_matches_a_linear_scan

echo "== spin-wait fast-forward goldens (parked spinners match the plain loop) =="
# tc-pcie's spin_ff also pins the executor's run merge to the plain loop:
# tied pollers, a fast poller between a slow one's steps, a store inside a
# whole-period jump, and seeded random pollers. Its idle-pass scenarios
# pin multi-segment passes with an idle delay and exit flags:
# a_two_segment_idle_pass_matches_the_plain_loop,
# an_exit_flag_set_at_any_instant_ends_the_spin_where_the_plain_loop_does,
# random_idle_spinners_among_pollers_match_the_plain_loop and
# a_parked_idle_spinner_names_its_exit_flag.
cargo test -q -p tc-pcie --test spin_ff
cargo test -q -p tc-gpu --test spin_ff
cargo test -q -p tc-extoll --test velo_end_to_end \
    mailbox_recv_matches_a_try_recv_loop_on_both_processors
# The assisted proxy and the raw-mix workload server park exactly as they
# poll (recorded runs take the plain loop), on both fabrics.
cargo test -q -p tc-putget --lib -- \
    an_idle_proxy_parks_exactly_as_it_polls idle_servers_park_exactly_as_they_poll

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
run_example halo_exchange
run_example halo_exchange -- --ib
run_example velo_rpc
run_example ring_allreduce
run_example ring_allreduce -- --ib 2
run_example pingpong_scan

echo "== paper-claims self-check (reproduce check --quick runs the quick figures; fails on any [FAIL]) =="
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
full_metrics="$metrics_dir/full"
mkdir -p "$fresh"
cargo run --release -p tc-bench --bin reproduce -- \
    --full --jobs 2 --out "$fresh" --metrics "$full_metrics" > "$fresh/full_results.txt"
diff -r results "$fresh"

echo "== committed BENCH_work.json matches the fresh run's executor work =="
# Each experiment's process polls, fast-forwarded spin steps and timer
# pops are deterministic. A change that alters the simulation's work
# regenerates the file (scripts/work.sh DIR > BENCH_work.json) and quotes
# the delta in CHANGES.md; a speed change must leave it as it is.
scripts/work.sh "$full_metrics" | diff BENCH_work.json -

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

echo "== message-layer server (workload --app rpc + tc-metrics-v1) =="
# App mode is the only caller of Messenger::idle_recv_desc and is not part
# of --full, so neither the results/ diff nor the work diff reaches it.
cargo run --release -p tc-bench --bin reproduce -- \
    workload --app rpc --metrics "$metrics_dir" > /dev/null
cargo run --release -p tc-bench --bin reproduce -- \
    --validate-metrics "$metrics_dir/workload.metrics.json"

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
