#!/usr/bin/env bash
# Same-host A/B of the end-to-end benchmark against a base commit.
#
#   scripts/e2e-ab.sh <base-ref>
#
# Checks <base-ref> out into a temporary git worktree and builds `spotfi-e2e`
# there and in this checkout, each in its own target directory. Then, for
# every workload in BENCHMARK.json, it runs five pairs of runs at the
# benchmark's declared length (`--seed 1 --seconds <run_seconds>`),
# alternating which binary goes first, each from its own tree's root. Every
# run must report `"correct": true`. For each `end_to_end` metric, each
# pair gives the ratio head/base; the script fails if the median of those
# per-pair ratios is worse than 1 by more than the metric's relative
# `bound`. Pairing cancels load that hits both runs of a
# pair; the median drops a pair where it hit one run. Workloads, metrics,
# directions, bounds and the run length all come from this checkout's
# BENCHMARK.json.
#
# Every run's JSON line, tagged with its side, workload, pair and wall time,
# is written to e2e-ab.jsonl at the repository root. Needs bash, git, jq and
# cargo; builds with --offline --locked.
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/e2e-ab.sh <base-ref>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "e2e-ab: $1 is not a commit" >&2
    exit 2
}
pairs=5
seconds=$(jq -r .run_seconds BENCHMARK.json)
log="$root/e2e-ab.jsonl"

work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "e2e-ab: base $base, head $(git rev-parse HEAD) plus any uncommitted changes"
echo "e2e-ab: nproc $(nproc), $pairs pairs of ${seconds}-s runs per workload"
git worktree add --detach --quiet "$work/base" "$base"
declare -A tree=([base]="$work/base" [head]="$root")
for side in base head; do
    echo "e2e-ab: building spotfi-e2e ($side)"
    (cd "${tree[$side]}" && CARGO_TARGET_DIR="$work/target-$side" cargo build \
        --release --offline --locked --quiet --manifest-path e2ebench/Cargo.toml \
        --bin spotfi-e2e)
done

# One short run; appends its JSON line, tagged, to the log.
run() {
    local side=$1 workload=$2 pair=$3 start line wall
    start=$EPOCHREALTIME
    line=$(cd "${tree[$side]}" && "$work/target-$side/release/spotfi-e2e" \
        --workload "$workload" --seed 1 --seconds "$seconds" | tail -n 1) || {
        echo "e2e-ab: FAIL $workload: $side run $pair exited non-zero" >&2
        exit 1
    }
    wall=$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.2f", b - a }')
    jq -nce --arg side "$side" --arg workload "$workload" --argjson pair "$pair" \
        --argjson wall "$wall" 'input | select(.correct == true)
        | {side: $side, workload: $workload, pair: $pair, wall_s: $wall} + .' \
        <<<"$line" >>"$log" 2>/dev/null || {
        echo "e2e-ab: FAIL $workload: $side run $pair is not correct: $line" >&2
        exit 1
    }
    echo "e2e-ab: $workload pair $pair $side ${wall}s"
}

: >"$log"
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    for pair in $(seq 1 "$pairs"); do
        if ((pair % 2)); then order="base head"; else order="head base"; fi
        for side in $order; do
            run "$side" "$workload" "$pair"
        done
    done
done

# Per (workload, metric): the median over pairs of head/base, compared with
# the bound. A positive `worse` is that median's relative change in the
# metric's bad direction. The per-side medians are printed for context only.
jq -rn --slurpfile bench BENCHMARK.json --slurpfile runs "$log" '
    def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                       else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    def value($w; $side; $pair; $m): [$runs[] | select(.workload == $w
        and .side == $side and .pair == $pair) | .metrics[$m].value][0];
    def med($w; $side; $m): [$runs[] | select(.workload == $w and .side == $side)
                             | .metrics[$m].value] | median;
    def ratio($base; $head): if $base != 0 then $head / $base
                             elif $head == 0 then 1 else infinite end;
    def pct: 100 * . * 1000 | round / 1000;
    $bench[0] as $b
    | $b.workloads[].name as $w
    | ([$runs[] | select(.workload == $w) | .pair] | unique) as $pairs
    | $b.end_to_end[]
    | .name as $m
    | ([$pairs[] as $p | ratio(value($w; "base"; $p; $m); value($w; "head"; $p; $m))]
       | median) as $r
    | (if .better == "lower" then $r - 1 else 1 - $r end) as $worse
    | "e2e-ab: \(if $worse > .bound then "FAIL" else "ok  " end) \($w) \($m): median pair ratio \($r) (worse by \($worse | pct)%, bound \(.bound | pct)%; medians base \(med($w; "base"; $m)) head \(med($w; "head"; $m)) \(.unit))"
    ' | tee "$work/verdicts"
if grep -q '^e2e-ab: FAIL' "$work/verdicts"; then
    echo "e2e-ab: a median pair ratio is worse than its bound" >&2
    exit 1
fi
echo "e2e-ab: every median pair ratio is within its bound"
