#!/usr/bin/env python3
"""Measures the benchmark's own noise and writes NOISE.md.

Runs `stackbench --all` 2 x RUNS times at the current commit, alternating
between two sets (A, B); run i of either set uses `--seed i`, as the driver
that accepts the benchmark does. For every end-to-end metric on every
workload it reports both sets' medians and quartiles, the spread
(inter-quartile range / median, `statistics.quantiles(values, n=4)`), the
relative difference of the two medians, and the bound of BENCHMARK.json —
with the raw-clock counterparts of the timed metrics side by side.

usage: noise.py <path to the stackbench binary> [RUNS=10] [extra stackbench args...]
"""
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE / ".." / ".." / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = SPEC["end_to_end"]
RAW_OF = {"setup_s": "raw.setup_s", "ops_per_s": "raw.ops_per_s", "op_p50_us": "raw.op_p50_us"}


def run_all(exe, seed, extra):
    """One `--all` run: {workload: {metric: value}}, raw.* rows included."""
    out = subprocess.run(
        [exe, "--all", "--seed", str(seed)] + extra, capture_output=True, text=True, check=True
    ).stdout
    results, current = {}, None
    for line in out.splitlines():
        if line.startswith("# stackbench "):
            current = results.setdefault(line.split()[2], {})
        elif line.startswith("# raw.") or line.startswith("# cal."):
            _, name, value = line.split()
            current[name] = float(value)
        elif line.startswith("{"):
            result = json.loads(line)
            assert result["correct"] and result["failed"] == 0, line
            for name, metric in result["metrics"].items():
                current[name] = metric["value"]
    assert sorted(results) == sorted(WORKLOADS), sorted(results)
    return results


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def worse_by(better, a, b):
    """How much worse median b is than median a, as a share of a."""
    return (a - b) / a if better == "higher" else (b - a) / a


def main():
    exe = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    extra = sys.argv[3:]
    sets = {"A": [], "B": []}
    started = time.time()
    for seed in range(1, runs + 1):
        for name in ("A", "B"):
            sets[name].append(run_all(exe, seed, extra))
            print(f"set {name} seed {seed} done at {time.time() - started:.0f} s", file=sys.stderr)

    lines = [
        "# NOISE — what the benchmark measures when nothing changed",
        "",
        f"Written by `noise.py`: {runs} `--all` runs per set, sets A and B alternating",
        "(A1 B1 A2 B2 ...), run *i* of either set with `--seed i`, all at one commit on",
        f"the reference container ({time.strftime('%Y-%m-%d')}, {time.time() - started:.0f} s in total).",
        "`spread` is the inter-quartile range over the median; `B vs A` is how much",
        "worse set B's median is than set A's (negative: better), to be held against",
        "`bound`. Rows named `raw.*` are the same quantity on the raw clock, before the",
        "reference-speed normalisation: they are what the host does to an unnormalised",
        "benchmark. `answer_spread` and `peak_rss_mb` do not depend on a clock.",
        "",
    ]
    worst = []
    for workload in WORKLOADS:
        lines += [
            f"## {workload}",
            "",
            "| metric | A median | A q1 – q3 | A spread | B median | B q1 – q3 | B spread | B vs A | bound |",
            "|---|---:|---:|---:|---:|---:|---:|---:|---:|",
        ]
        for spec in END_TO_END:
            rows = [(spec["name"], spec["bound"])]
            if spec["name"] in RAW_OF:
                rows.append((RAW_OF[spec["name"]], None))
            for name, bound in rows:
                a = summary([r[workload][name] for r in sets["A"]])
                b = summary([r[workload][name] for r in sets["B"]])
                drift = worse_by(spec["better"], a[0], b[0])
                lines.append(
                    f"| `{name}` | {a[0]:.6g} | {a[1]:.6g} – {a[2]:.6g} | {a[3]:.2%} "
                    f"| {b[0]:.6g} | {b[1]:.6g} – {b[2]:.6g} | {b[3]:.2%} | {drift:+.2%} "
                    f"| {'' if bound is None else format(bound, '.0%')} |"
                )
                if bound is not None and spec["name"] != "setup_s":
                    worst.append((max(a[3], b[3]) / bound, workload, name, max(a[3], b[3]), bound))
        lines.append("")
    worst.sort(reverse=True)
    lines += [
        "## Spread against bound",
        "",
        "The five pairs whose spread uses most of their bound (`setup_s` is judged on",
        "`B vs A` alone):",
        "",
        "| workload | metric | spread | bound | spread / bound |",
        "|---|---|---:|---:|---:|",
    ]
    for ratio, workload, name, spread, bound in worst[:5]:
        lines.append(f"| {workload} | `{name}` | {spread:.2%} | {bound:.0%} | {ratio:.2f} |")
    lines.append("")
    (HERE / "NOISE.md").write_text("\n".join(lines))
    print(f"wrote {HERE / 'NOISE.md'}", file=sys.stderr)


if __name__ == "__main__":
    main()
