#!/usr/bin/env bash
# Paired perfbench runs: a base revision against this checkout.
#
#   ./bench-ab.sh <base-rev> <workload> <pairs> [seed]
#
# Extracts <base-rev> with `git archive` under target/bench-ab/, builds
# perfbench (release, offline) on both sides into their own target
# directories, then runs <pairs> pairs of untraced runs of <workload>,
# alternating which side goes first. Each run lasts BENCHMARK.json's
# run_seconds. Writes BENCH_perfbench_ab_<workload>_seed<seed>.json (one
# file per workload and seed, so each paired set is kept): for every
# end-to-end metric in BENCHMARK.json, each side's runs, median and
# quartiles, and how many pairs each side won (ties count for neither),
# plus `nproc`. A metric's `gain` is true when this checkout won at least
# nine tenths of the pairs and the medians differ by more than the base's
# interquartile range.
#
# Fails if a run reports an incorrect output, or if `mpc_rounds` or
# `mpc_words` differ between the two sides: a change that moves the
# ledger is not a like-for-like comparison.
set -euo pipefail
cd "$(dirname "$0")"

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <base-rev> <workload> <pairs> [seed]" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=$3
seed=${4:-1}
case $pairs in
'' | *[!0-9]* | 0)
    echo "pairs must be a positive integer, got '$pairs'" >&2
    exit 2
    ;;
esac

base_sha=$(git rev-parse --verify "$base_rev^{commit}")
head_sha=$(git rev-parse HEAD)
dirty=false
git diff --quiet HEAD -- crates perfbench vendor Cargo.toml Cargo.lock || dirty=true
seconds=$(jq '.run_seconds' BENCHMARK.json)
out=BENCH_perfbench_ab_${workload}_seed${seed}.json
work=target/bench-ab
tree=$work/base-src
mkdir -p "$work/runs"

# A plain extracted tree, not a worktree: nothing is registered in .git,
# so an interrupted run leaves nothing behind but files under target/.
rm -rf "$tree"
mkdir -p "$tree"
git archive "$base_sha" | tar -x -C "$tree"
trap 'rm -rf "$tree"' EXIT

build() { # <source root> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml"
}
echo "building base ($base_sha) and head ($head_sha, dirty=$dirty)" >&2
build "$tree" "$PWD/$work/base-target"
# An offline build may rewrite perfbench/Cargo.lock (dropping stale
# entries); put the committed file back so the checkout stays clean.
cp perfbench/Cargo.lock "$work/perfbench-Cargo.lock"
trap 'cp "$work/perfbench-Cargo.lock" perfbench/Cargo.lock; rm -rf "$tree"' EXIT
build . "$PWD/$work/head-target"
cp "$work/perfbench-Cargo.lock" perfbench/Cargo.lock
declare -A bin=(
    [base]=$PWD/$work/base-target/release/csmpc-perfbench
    [head]=$PWD/$work/head-target/release/csmpc-perfbench
)

runs=$work/runs/$workload-$seed
rm -f "$runs".*.jsonl
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
    for side in $order; do
        line=$("${bin[$side]}" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 | tail -n 1)
        echo "$line" >>"$runs.$side.jsonl"
        echo "pair $((i + 1))/$pairs $side: $(jq -c '{correct, failed,
            peak_rss_mb: .metrics.peak_rss_mb.value}' <<<"$line")" >&2
    done
done

jq -n \
    --slurpfile base "$runs.base.jsonl" \
    --slurpfile head "$runs.head.jsonl" \
    --slurpfile spec BENCHMARK.json \
    --arg command "./bench-ab.sh $base_rev $workload $pairs $seed" \
    --arg base_sha "$base_sha" --arg head_sha "$head_sha" \
    --argjson dirty "$dirty" --arg workload "$workload" \
    --argjson seed "$seed" --argjson seconds "$seconds" \
    --argjson nproc "$(nproc)" '
def q($p): sort as $s | ((($s | length) - 1) * $p) as $i
    | ($i | floor) as $lo | ($i | ceil) as $hi
    | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
def summary: {runs: ., median: q(0.5), q1: q(0.25), q3: q(0.75)};
{
  command: $command,
  workload: $workload,
  seed: $seed,
  pairs: ($base | length),
  run_seconds: $seconds,
  nproc: $nproc,
  base: $base_sha,
  head: $head_sha,
  head_has_uncommitted_changes: $dirty,
  correct: {base: ([$base[] | select(.correct)] | length),
            head: ([$head[] | select(.correct)] | length)},
  metrics: ($spec[0].end_to_end | map(
    .name as $m | .better as $better
    | ([$base[] | .metrics[$m].value]) as $b
    | ([$head[] | .metrics[$m].value]) as $h
    | ([range(0; $b | length)] | map(
        if $h[.] == $b[.] then 0
        elif ($h[.] < $b[.]) == ($better == "lower") then 1
        else -1 end)) as $cmp
    | ($b | summary) as $bs | ($h | summary) as $hs
    | {key: $m, value: {
        unit, better, bound,
        base: $bs, head: $hs,
        head_wins: ([$cmp[] | select(. == 1)] | length),
        base_wins: ([$cmp[] | select(. == -1)] | length),
        gain: (([$cmp[] | select(. == 1)] | length) * 10 >= 9 * ($cmp | length)
               and (if $better == "lower" then $bs.median - $hs.median
                    else $hs.median - $bs.median end) > ($bs.q3 - $bs.q1))
      }}) | from_entries)
}' >"$out"
echo "wrote $out" >&2

jq -e '.correct.base == .pairs and .correct.head == .pairs' \
    "$out" >/dev/null || {
    echo "a run reported an incorrect output" >&2
    exit 1
}
for m in mpc_rounds mpc_words; do
    jq -e --arg m "$m" '.metrics[$m] | (.base.runs | sort) == (.head.runs | sort)' \
        "$out" >/dev/null || {
        echo "$m differs between the sides: $(jq -c --arg m "$m" \
            '.metrics[$m] | {base: .base.runs, head: .head.runs}' "$out")" >&2
        exit 1
    }
done
