#!/usr/bin/env bash
# Per-experiment executor work of a `reproduce --metrics DIR` run: the
# `polls`, `ffwd_steps` and `timers` that close the `runner` section of
# each DIR/*.metrics.json, as the JSON committed in BENCH_work.json. The
# counts are deterministic, so two runs of the same code print the same
# bytes whatever the host or the `--jobs` width.
#
#   reproduce --full --jobs 2 --metrics DIR > /dev/null
#   scripts/work.sh DIR > BENCH_work.json
#
# scripts/verify.sh diffs a fresh run against the committed file.
set -euo pipefail
export LC_ALL=C

dir="${1:?usage: scripts/work.sh METRICS_DIR}"
files=("$dir"/*.metrics.json)
[ -e "${files[0]}" ] || { echo "no *.metrics.json in $dir" >&2; exit 1; }

echo '{'
echo '  "schema": "tc-work-v1",'
echo '  "run": "reproduce --full --jobs 2 --metrics DIR",'
echo '  "experiments": {'
for i in "${!files[@]}"; do
    f="${files[$i]}"
    id="$(basename "$f" .metrics.json)"
    sep=','
    [ "$i" -eq $((${#files[@]} - 1)) ] && sep=''
    awk -v id="$id" -v sep="$sep" '
        /^  "runner": \{/ { runner = 1 }
        runner && $1 ~ /^"(polls|ffwd_steps|timers)":$/ {
            k = $1
            gsub(/[":]/, "", k)
            n = $2
            sub(/,$/, "", n)
            v[k] = n
        }
        END {
            if (!("polls" in v && "ffwd_steps" in v && "timers" in v)) {
                print "no runner work in " FILENAME > "/dev/stderr"
                exit 1
            }
            printf "    \"%s\": { \"polls\": %s, \"ffwd_steps\": %s, \"timers\": %s }%s\n",
                id, v["polls"], v["ffwd_steps"], v["timers"], sep
        }' "$f"
done
echo '  }'
echo '}'
