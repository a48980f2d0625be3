#!/bin/sh
# Alternating parent/change pairs of stackbench, summarised as the table the
# perf sections of EXPERIMENTS.md use.
#
#   scripts/stack_ab.sh <parent-rev> <change-rev> [--workload <name> | --all]
#                       [--pairs N] [--seeds FIRST] [--quick] [--seconds N]
#
# Each revision is checked out as a detached `git worktree` in a temporary
# directory and its `benchmarks/stack` is built there, offline, so both
# sides run the stackbench of their own commit. Pair i (0-based) runs both
# binaries with `--seed FIRST+i`: the parent first when i is even, the
# change first when it is odd. For every workload × end-to-end metric the
# script prints the median with the quartiles of either side, the relative
# change of the median, and the pairs the change won / lost / tied, with
# the direction ("better") taken from BENCHMARK.json. `answer_spread` is
# compared per seed and reported as equal or not. Defaults: `--all`, ten
# pairs, seeds from 1.
#
#   scripts/stack_ab.sh HEAD~1 HEAD --workload index_plus --seeds 701
#   scripts/stack_ab.sh HEAD HEAD --quick --pairs 1 --workload index_plus
set -eu

usage() {
    sed -n '5,6p' "$0" | sed 's/^# *//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent_rev=$1
change_rev=$2
shift 2
workloads="online_lazy index_plus live_repair serve_hit routed_miss"
pairs=10
first_seed=1
extra=""
while [ $# -gt 0 ]; do
    case $1 in
        --workload) [ $# -ge 2 ] || usage; workloads=$2; shift ;;
        --all) ;;
        --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift ;;
        --seeds) [ $# -ge 2 ] || usage; first_seed=$2; shift ;;
        --quick) extra="$extra --quick" ;;
        --seconds) [ $# -ge 2 ] || usage; extra="$extra --seconds $2"; shift ;;
        *) usage ;;
    esac
    shift
done

root=$(git rev-parse --show-toplevel)
parent=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
change=$(git -C "$root" rev-parse --verify "$change_rev^{commit}")
work=$(mktemp -d)
cleanup() {
    for side in parent change; do
        [ -d "$work/$side" ] && git -C "$root" worktree remove --force "$work/$side"
    done
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

for side in parent change; do
    eval rev=\$$side
    git -C "$root" worktree add --detach --quiet "$work/$side" "$rev"
    echo "building $side ($rev)" >&2
    CARGO_TARGET_DIR="$work/$side/benchmarks/stack/target" cargo build --release --offline \
        --quiet --manifest-path "$work/$side/benchmarks/stack/Cargo.toml"
done

# One line per run: workload, pair, side, then the run's last line (JSON).
runs="$work/runs.tsv"
: > "$runs"
for workload in $workloads; do
    i=0
    while [ "$i" -lt "$pairs" ]; do
        seed=$((first_seed + i))
        if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            bin="$work/$side/benchmarks/stack/target/release/stackbench"
            # A run with a failed op exits non-zero; its JSON still counts.
            json=$("$bin" --workload "$workload" --seed "$seed" $extra | tail -n 1) || true
            printf '%s\t%s\t%s\t%s\n' "$workload" "$i" "$side" "$json" >> "$runs"
            echo "$workload pair $i seed $seed: $side done" >&2
        done
        i=$((i + 1))
    done
done

python3 - "$runs" "$root/BENCHMARK.json" "$parent" "$change" <<'EOF'
import json
import statistics
import sys

runs_path, spec_path, parent, change = sys.argv[1:5]
spec = json.load(open(spec_path))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
runs = {}
failed = {"parent": 0, "change": 0}
attempted = {"parent": 0, "change": 0}
for line in open(runs_path):
    workload, pair, side, blob = line.rstrip("\n").split("\t", 3)
    try:
        doc = json.loads(blob)
    except json.JSONDecodeError:
        sys.exit(f"{workload} pair {pair} {side}: no JSON result line")
    failed[side] += doc["failed"]
    attempted[side] += doc["attempted"]
    for name, metric in doc["metrics"].items():
        runs.setdefault((workload, name), {}).setdefault(side, {})[int(pair)] = metric["value"]


def fmt(x):
    """Four significant digits, thousands grouped by spaces."""
    if x == 0:
        return "0"
    digits = max(0, 3 - int(f"{abs(x):e}".split("e")[1]))
    text = f"{x:,.{digits}f}".replace(",", " ")
    return text.rstrip("0").rstrip(".") if "." in text else text


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


print(f"parent {parent[:7]} vs change {change[:7]}")
print()
print("| workload · metric | parent (q1 – q3) | change (q1 – q3) | Δ median | won / lost / tied |")
print("|---|---|---|---|---|")
for (workload, name), sides in runs.items():
    if name not in better or set(sides) != {"parent", "change"}:
        continue
    p, c = sides["parent"], sides["change"]
    common = sorted(set(p) & set(c))
    pv, cv = [p[i] for i in common], [c[i] for i in common]
    if name == "answer_spread":
        same = all(p[i] == c[i] for i in common)
        verdict, counts = ("equal per seed", f"0 / 0 / {len(common)}") if same else ("**differs**", "–")
        print(f"| `{workload}` · `{name}` | {fmt(statistics.median(pv))} | "
              f"{fmt(statistics.median(cv))} | {verdict} | {counts} |")
        continue
    sign = -1 if better[name] == "lower" else 1
    won = sum(sign * (c[i] - p[i]) > 0 for i in common)
    lost = sum(sign * (c[i] - p[i]) < 0 for i in common)
    tied = len(common) - won - lost
    pm, cm = statistics.median(pv), statistics.median(cv)
    (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
    delta = f"{(cm / pm - 1) * 100:+.1f} %".replace("-", "−") if pm else "–"
    print(f"| `{workload}` · `{name}` | {fmt(pm)} ({fmt(p1)} – {fmt(p3)}) | "
          f"{fmt(cm)} ({fmt(c1)} – {fmt(c3)}) | {delta} | {won} / {lost} / {tied} |")
print()
print(f"ops failed: parent {failed['parent']} of {attempted['parent']}, "
      f"change {failed['change']} of {attempted['change']}")
EOF
