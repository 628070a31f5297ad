#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark workloads: the procedure
# benchmark/README.md prescribes for every claimed gain.
#
#   scripts/bench_pairs.sh <workload[,workload...]> <parent-ref> [pairs=10] [seconds=15]
#
# Builds the benchmark binary of <parent-ref> (from a `git archive` of it)
# and of the working tree once each, then for seeds 1..pairs and every
# listed workload in turn runs
#   benchmark run --workload W --seed i --seconds S --trace 0
# on both, alternating which side goes first. Prints, per workload, every
# run, then per end-to-end metric each side's median and quartiles, the
# pairs the change won (ties count for neither), and the verdict: "claim
# met" needs at least ten pairs, nine tenths of them won, and medians apart
# by more than the distance between the parent's quartiles — anything else
# is "no claim". A gain never counts when a run is incorrect or the change
# fails a larger share of operations than the parent. Beside every run,
# and as each side's median, it prints the host's steal time during the
# run (the `steal` column of /proc/stat's `cpu` line, in ticks/s; n/a where
# /proc/stat is absent): on a virtual machine a spell of steal slows both
# sides and can swallow a gain. The steal figures do not enter the verdict.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,21p' "$0" >&2
    exit 2
fi
workloads=${1//,/ } ref=$2 pairs=${3:-10} seconds=${4:-15}

root=$(git rev-parse --show-toplevel)
cd "$root"
if env | grep -q '^SAFETX_'; then
    echo "refusing to run with SAFETX_* set: the benchmark measures the defaults" >&2
    exit 2
fi

work="$root/.bench_build/pairs"
rm -rf "$work"
mkdir -p "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"

cargo build --release --offline --manifest-path "$work/parent/benchmark/Cargo.toml" \
    --target-dir "$work/target-parent" >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "$work/target-change" >&2

# The host's steal ticks so far (empty where /proc/stat is absent).
steal() { awk '$1 == "cpu" { print $9; exit }' /proc/stat 2>/dev/null || true; }

# One run of one side from that side's own tree; its result line is kept,
# and the steal ticks/s during it.
run() {
    local side=$1 dir=$2 workload=$3 seed=$4 before after start
    before=$(steal) start=$(date +%s.%N)
    (cd "$dir" && "$work/target-$side/release/benchmark" run --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) \
        >>"$work/$side.$workload.jsonl"
    after=$(steal)
    if [ -n "$before" ] && [ -n "$after" ]; then
        awk -v d="$((after - before))" -v s="$start" -v e="$(date +%s.%N)" \
            'BEGIN { printf "%.1f\n", d / (e - s) }'
    else
        echo n/a
    fi >>"$work/$side.$workload.steal"
}

for seed in $(seq 1 "$pairs"); do
    for workload in $workloads; do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$work/parent" "$workload" "$seed"
            run change "$root" "$workload" "$seed"
        else
            run change "$root" "$workload" "$seed"
            run parent "$work/parent" "$workload" "$seed"
        fi
    done
    echo "pair $seed/$pairs done" >&2
done

python3 - "$work" "$ref" $workloads <<'PY'
import json, statistics, sys

work, ref, *workloads = sys.argv[1:]
metrics = [(m["name"], m["unit"], m["better"]) for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
value = lambda run, name: run["metrics"][name]["value"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def report(workload):
    load = lambda side: [json.loads(line) for line in open(f"{work}/{side}.{workload}.jsonl")]
    parent, change = load("parent"), load("change")
    pairs = len(parent)
    print(f"{workload}: {pairs} pair(s), parent = {ref}, change = working tree; odd seeds ran the parent first")
    steal = lambda side: [line.strip() for line in open(f"{work}/{side}.{workload}.steal")]
    psteal, csteal = steal("parent"), steal("change")
    print(f"{'seed':>4}  " + "  ".join(f"{name + ' (parent change)':>34}" for name, _, _ in metrics)
          + f"  {'steal/s (parent change)':>25}")
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        print(f"{i:>4}  " + "  ".join(f"{value(p, n):>16.6g} {value(c, n):>17.6g}" for n, _, _ in metrics)
              + f"  {psteal[i - 1]:>12} {csteal[i - 1]:>12}")
    median = lambda xs: (f"{statistics.median(float(x) for x in xs if x != 'n/a'):.1f}"
                         if any(x != "n/a" for x in xs) else "n/a")
    print(f"steal ticks/s median: parent {median(psteal)}, change {median(csteal)}")

    share = lambda runs: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
    correct = all(r["correct"] for r in parent + change)
    sound = correct and share(change) <= share(parent)
    print(f"correct: {'every run' if correct else 'NOT every run'}; "
          f"failed share parent {share(parent):.4%}, change {share(change):.4%}")

    print(f"\n{'metric':<22} {'parent med [q1, q3]':>34} {'change med [q1, q3]':>34} {'ratio':>7} {'wins':>6}  verdict")
    for name, unit, better in metrics:
        a, b = [value(r, name) for r in parent], [value(r, name) for r in change]
        wins = sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))
        (aq1, amed, aq3), (bq1, bmed, bq3) = quartiles(a), quartiles(b)
        gain = (bmed - amed) if better == "higher" else (amed - bmed)
        met = sound and pairs >= 10 and wins * 10 >= pairs * 9 and gain > aq3 - aq1
        print(f"{name:<22} {f'{amed:.6g} [{aq1:.6g}, {aq3:.6g}]':>34} {f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':>34} "
              f"{bmed / amed if amed else float('nan'):>7.3f} {f'{wins}/{pairs}':>6}  "
              f"{'claim met' if met else 'no claim'} ({unit}, {better} is better)")
    if pairs < 10:
        print("fewer than ten pairs: no claim can rest on this run")

for i, workload in enumerate(workloads):
    if i:
        print()
    report(workload)
PY
