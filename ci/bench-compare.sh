#!/usr/bin/env bash
# Time HEAD against BASE on the sweep benchmark and judge the difference.
#
#   bash ci/bench-compare.sh BASE HEAD
#
# Builds each revision in its own git worktree with its own
# CARGO_TARGET_DIR and writes each side's simulated outputs once into
# results/compare/: the sequential paper grid ({base,head}.csv), the
# latency figures and pause tables ({base,head}-latency.txt), and the
# outputs that read the workload profiles directly, the characterisation
# table, the suite summary and Table 2 ({base,head}-characterize.txt,
# -suite.txt, -table2.txt), the LBO tables with the reason of every
# infeasible cell ({base,head}-lbo.txt), the hard-fault chaos summary
# of `artifact chaos --isolation process --hard-faults kill`: cell counts,
# retries, quarantines and crash-report count ({base,head}-chaos.txt),
# the sorted lines of the journal that `runbms -b all --isolation
# thread --journal J` writes ({base,head}-journal.txt), and the
# single-run outputs of `gclog -b h2 --collector shenandoah --heap-factor
# 2`, `heaptrace -b fop` and `artifact kick-the-tires`
# ({base,head}-gclog.txt, -heaptrace.txt, -kick.txt). It then runs
# interleaved BASE/HEAD pairs of
# `sweepbench/run.sh` over all five workloads, appends each run's result
# line to results/compare/runs.jsonl and hands the runs to
# ci/bench_judge.py, which applies sweepbench/README.md's rules and
# writes results/compare/report.md, with a section per simulated output
# on the lines that differ (a report only: it sets no exit code).
#
# Exit codes: 0 no regression, 1 a regressed metric or a failed HEAD run,
# 2 a usage, checkout or build error. When the benchmark itself differs
# between BASE and HEAD the comparison is skipped (exit 0): a benchmark
# change measures its own new baseline.
set -euo pipefail

# Ten pairs: the fewest the README's 9-of-10 gain rule is defined on.
readonly PAIRS=10
# Seed 1 is the development seed; seed 2 stays held out for gain claims.
readonly SEED=1
# sweepbench's 3-round floor: a regression tripwire; gain claims still
# use the benchmark's 10 s runs.
readonly RUN_SECONDS=2

fail() {
    echo "bench-compare: $*" >&2
    exit 2
}

[ $# -eq 2 ] || fail "usage: bash ci/bench-compare.sh BASE HEAD"
judge="$(cd "$(dirname "$0")" && pwd)/bench_judge.py"
root=$(git rev-parse --show-toplevel) || fail "not inside a git checkout"
cd "$root"
base=$(git rev-parse --verify --quiet "$1^{commit}") || fail "unknown revision $1"
head=$(git rev-parse --verify --quiet "$2^{commit}") || fail "unknown revision $2"

if ! git diff --quiet "$base" "$head" -- sweepbench BENCHMARK.json; then
    echo "skipped: the benchmark differs between BASE and HEAD"
    exit 0
fi

out="$root/results/compare"
remove_worktrees() {
    for side in base head; do
        git worktree remove --force "$out/$side" 2>/dev/null || true
    done
    git worktree prune
}
remove_worktrees
rm -rf "$out"
mkdir -p "$out/logs"
trap remove_worktrees EXIT

for side in base head; do
    rev=$base
    [ "$side" = head ] && rev=$head
    git worktree add --quiet --detach "$out/$side" "$rev" || fail "cannot check out $rev"
    echo "bench-compare: building $side ($rev)" >&2
    (
        cd "$out/$side"
        export CARGO_TARGET_DIR="$out/$side/target"
        cargo build --release --quiet --offline -p chopin-harness --bin runbms --bin latency \
            --bin characterize --bin suite --bin nominal --bin lbo --bin artifact --bin gclog \
            --bin heaptrace
        cargo bench --no-run --quiet --offline --manifest-path sweepbench/Cargo.toml --bench sweep
    ) > "$out/logs/build-$side.log" 2>&1 || fail "cannot build $side; see $out/logs/build-$side.log"
done

# Write one side's simulated output: SIDE FILE-SUFFIX BINARY [ARGS...].
# A failed run leaves no file, which the report names as missing.
simulate() {
    local side=$1 suffix=$2 bin=$3
    shift 3
    "$out/$side/target/release/$bin" "$@" > "$out/$side$suffix" \
        2> "$out/logs/$bin-$side.err" || {
        echo "bench-compare: the $side $bin run failed; see $out/logs/$bin-$side.err" >&2
        rm -f "$out/$side$suffix"
    }
}

# Write one side's journal lines, sorted: scheduler threads append them
# in completion order. A failed run leaves no file.
journal() {
    local side=$1 journal="$out/logs/$side.journal"
    if "$out/$side/target/release/runbms" -b all --isolation thread --journal "$journal" \
        > /dev/null 2> "$out/logs/journal-$side.err"; then
        sort "$journal" > "$out/$side-journal.txt"
    else
        echo "bench-compare: the $side journalled runbms run failed; see $out/logs/journal-$side.err" >&2
    fi
}

for side in base head; do
    simulate "$side" .csv runbms -b all --invocations 10
    # Batching arms only at 1.0x, so the minimum heap is the one to show.
    simulate "$side" -latency.txt latency -b all --heaps 1,2,6
    simulate "$side" -characterize.txt characterize
    simulate "$side" -suite.txt suite
    simulate "$side" -table2.txt nominal --table2
    simulate "$side" -lbo.txt lbo
    simulate "$side" -chaos.txt artifact chaos --isolation process --hard-faults kill
    simulate "$side" -gclog.txt gclog -b h2 --collector shenandoah --heap-factor 2
    simulate "$side" -heaptrace.txt heaptrace -b fop
    simulate "$side" -kick.txt artifact kick-the-tires
    journal "$side"
done

for ((pair = 0; pair < PAIRS; pair++)); do
    order="base head"
    ((pair % 2 == 0)) || order="head base"
    for side in $order; do
        log="$out/logs/$side-$pair"
        started=$SECONDS
        status=0
        (
            cd "$out/$side"
            CARGO_TARGET_DIR="$out/$side/target" bash sweepbench/run.sh \
                --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0
        ) > "$log.out" 2> "$log.err" || status=$?
        result=$(tail -n 1 "$log.out")
        [[ $result == "{"* ]] || result=null
        printf '{"side":"%s","pair":%d,"result":%s}\n' "$side" "$pair" "$result" >> "$out/runs.jsonl"
        echo "bench-compare: pair $pair $side exit $status in $((SECONDS - started)) s" >&2
    done
done

cp "$out/head/results/bench.json" "$out/bench.json" 2>/dev/null || true
echo "bench-compare: $PAIRS pairs in $SECONDS s" >&2
status=0
python3 "$judge" "$out" "$out/head/BENCHMARK.json" "$base" "$head" || status=$?
exit "$status"
