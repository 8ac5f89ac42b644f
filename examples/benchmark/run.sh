#!/usr/bin/env bash
# Run every benchmark workload untraced for each seed, then one traced
# run per workload on the first seed.
#
#   bash examples/benchmark/run.sh [SEED...]     # default seeds: 1 2
#
# Run from the repository root. Each run writes
# .bench_out/<workload>.seed<N>.trace<0|1>.json and prints its result
# line; the exit status is nonzero if any run failed.
set -uo pipefail

here=$(dirname "$0")
workloads=(paper-full pingpong-small open-loop ring-256)
seeds=("$@")
[ ${#seeds[@]} -eq 0 ] && seeds=(1 2)

status=0
run() {
    echo "== $*" >&2
    bash "$here/bench.sh" "$@" | tail -n 1 || status=1
}

for seed in "${seeds[@]}"; do
    for w in "${workloads[@]}"; do
        run --workload "$w" --seed "$seed" --trace 0
    done
done
for w in "${workloads[@]}"; do
    run --workload "$w" --seed "${seeds[0]}" --trace 1
done
exit $status
