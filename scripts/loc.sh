#!/usr/bin/env bash
# Rust line count, measured the way CHANGES.md entries report it: every
# *.rs file under crates/, src/, tests/ and examples/, except the separate
# benchmark package in examples/benchmark. The non-test count leaves out
# every file under a tests/ directory and, in every other file, the lines
# from its first column-0 `#[cfg(test)]` to the end (where each test
# module of the tree sits).
#
#   scripts/loc.sh         print both counts
#   scripts/loc.sh REV     also print both deltas since REV: the total as
#                          git diff --numstat of the working tree against
#                          REV (stage new files first so git sees them),
#                          the non-test count against REV's tree from
#                          git archive
set -euo pipefail
cd "$(dirname "$0")/.."

# count DIR: print "TOTAL NON_TEST" for the Rust sources under DIR.
count() {
    (cd "$1" && find crates src tests examples -name '*.rs' \
        -not -path 'examples/benchmark/*' -not -path '*/target/*' -print0 |
        xargs -0 awk '
            FNR == 1 { in_test = FILENAME ~ /(^|\/)tests\// }
            /^#\[cfg\(test\)\]/ { in_test = 1 }
            { total++; if (!in_test) code++ }
            END { print total + 0, code + 0 }' |
        awk '{ total += $1; code += $2 } END { print total, code }')
}

read -r lines code < <(count .)
echo "rust lines: $lines (non-test: $code)"

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
    old=$(mktemp -d)
    trap 'rm -rf "$old"' EXIT
    git archive "$1" crates src tests examples | tar -x -C "$old"
    read -r _ old_code < <(count "$old")
    printf "non-test since %s: %+d (%d \342\206\222 %d)\n" \
        "$1" $((code - old_code)) "$old_code" "$code"
fi
