#!/usr/bin/env bash
# Rust line count, measured the way CHANGES.md entries report it: every
# *.rs file under crates/, src/, tests/ and examples/, except the separate
# benchmark package in examples/benchmark.
#
#   scripts/loc.sh         print the count
#   scripts/loc.sh REV     also print the lines added and removed since REV
#                          (git diff --numstat of the working tree against
#                          REV; stage new files first so git sees them)
set -euo pipefail
cd "$(dirname "$0")/.."

lines=$(find crates src tests examples -name '*.rs' \
    -not -path 'examples/benchmark/*' -not -path '*/target/*' -print0 |
    xargs -0 cat | wc -l)
echo "rust lines: $lines"

if [ $# -ge 1 ]; then
    git diff --numstat "$1" -- \
        'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' \
        ':!examples/benchmark' |
        awk -v rev="$1" -v now="$lines" '
            { added += $1; removed += $2 }
            END {
                net = added - removed
                printf "since %s: %+d (+%d/\342\210\222%d; %d \342\206\222 %d)\n",
                    rev, net, added, removed, now - net, now
            }'
fi
