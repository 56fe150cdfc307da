#!/usr/bin/env python3
"""Judge a base-vs-head sweepbench comparison.

usage: python3 ci/bench_judge.py DIR BENCHMARK_JSON BASE_REV HEAD_REV

Reads DIR/runs.jsonl, one {"side", "pair", "result"} record per run,
where "result" is the run's sweepbench result line (null when the run
printed none), and DIR/bench.json for the host record. BENCHMARK_JSON
names the workloads and each end-to-end metric's `better` direction and
`bound`. Every workload x metric row gets the first verdict that
applies, following sweepbench/README.md ("Comparing two commits"):

1. regressed: HEAD's median is worse than BASE's by more than the bound,
   and either both sides' IQR/median is within the bound or every HEAD
   run is worse than every BASE run;
2. unresolved: either side's IQR/median is above the bound, unless
   every HEAD run beats every BASE run;
3. gain: HEAD wins at least 9 in 10 pairs (ties count for neither) and
   the medians differ by more than BASE's IQR;
4. within bound.

Writes DIR/report.md (host record and thresholds table) and prints it.
When `resume`'s `sweep_s` is not a gain and its median moved by less
than LAYOUT_MOVE, the report notes that a move of that size has come
from code layout alone. For each simulated output in DRIFT_OUTPUTS
(each side's sequential paper grid in DIR/{base,head}.csv, its latency
figures and pause tables in DIR/{base,head}-latency.txt, the
characterisation table, suite summary and Table 2 in
DIR/{base,head}-characterize.txt, -suite.txt and -table2.txt, the
LBO tables with each infeasible cell's reason in DIR/{base,head}-lbo.txt,
and the hard-fault chaos summary in DIR/{base,head}-chaos.txt)
the report also counts the lines that differ and shows up to ten as
BASE -> HEAD;
those sections never change the exit code. Exits 1 on any regressed row
or any HEAD run that failed, 2 when the inputs cannot be read, and 0
otherwise.
"""

import itertools
import json
import statistics
import sys
import time
from pathlib import Path

SIDES = ("base", "head")
# Differing lines the report shows in full, per output.
DRIFT_SHOWN = 10
# The simulated outputs each side writes once: (file name after the side,
# the command that wrote it, what its lines are, what the file is).
DRIFT_OUTPUTS = (
    (".csv", "runbms -b all --invocations 10", "CSV", "grid CSV"),
    ("-latency.txt", "latency -b all --heaps 1,2,6", "output", "latency output"),
    ("-characterize.txt", "characterize", "output", "characterize output"),
    ("-suite.txt", "suite", "output", "suite output"),
    ("-table2.txt", "nominal --table2", "output", "Table 2 output"),
    ("-lbo.txt", "lbo", "output", "lbo output"),
    (
        "-chaos.txt",
        "artifact chaos --isolation process --hard-faults kill",
        "output",
        "hard-fault chaos output",
    ),
)
# A `resume` `sweep_s` move below this share of BASE's median has come
# from code layout alone: one added call that a resume never executes
# moved it from 137 to 154 ms (CHANGES.md).
LAYOUT_MOVE = 0.15


def quartiles(values):
    """Median and quartiles as sweepbench/README.md defines them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def run_failed(result):
    return result is None or result.get("failed", 1) > 0 or result.get("correct") is not True


def judge_row(base, head, better, bound):
    """Verdict and summary for one workload x metric.

    `base` and `head` map pair number to the run's value.
    """
    sign = 1.0 if better == "lower" else -1.0
    row = {"base": None, "head": None, "wins": 0, "pairs": 0}
    if len(base) < 2 or len(head) < 2:
        row["verdict"] = "unresolved"
        return row
    row["base"] = quartiles(list(base.values()))
    row["head"] = quartiles(list(head.values()))
    (b_med, b_q1, b_q3), (h_med, h_q1, h_q3) = row["base"], row["head"]
    paired = sorted(set(base) & set(head))
    row["pairs"] = len(paired)
    row["wins"] = sum(1 for p in paired if sign * (base[p] - head[p]) > 0)
    worse = sign * (h_med - b_med) / b_med
    tight = (b_q3 - b_q1) / b_med <= bound and (h_q3 - h_q1) / h_med <= bound
    head_all_worse = all(sign * (h - b) > 0 for h in head.values() for b in base.values())
    head_all_better = all(sign * (b - h) > 0 for h in head.values() for b in base.values())
    if worse > bound and (tight or head_all_worse):
        row["verdict"] = "regressed"
    elif not tight and not head_all_better:
        row["verdict"] = "unresolved"
    elif 10 * row["wins"] >= 9 * row["pairs"] and -sign * (h_med - b_med) > b_q3 - b_q1:
        row["verdict"] = "gain"
    else:
        row["verdict"] = "within bound"
    return row


def judge(runs, benchmark):
    """Rows of (workload, metric, unit, bound, row) and the failed HEAD runs."""
    values = {side: {} for side in SIDES}
    failed = []
    for run in runs:
        result = run["result"]
        if run["side"] == "head" and run_failed(result):
            failed.append(run["pair"])
        for name, metric in ((result or {}).get("metrics") or {}).items():
            if metric.get("value") is not None:
                values[run["side"]].setdefault(name, {})[run["pair"]] = metric["value"]
    rows = []
    for workload in benchmark["workloads"]:
        for metric in benchmark["end_to_end"]:
            key = f"{workload['name']}.{metric['name']}"
            row = judge_row(
                values["base"].get(key, {}),
                values["head"].get(key, {}),
                metric["better"],
                metric["bound"],
            )
            rows.append((workload["name"], metric["name"], metric["unit"], metric["bound"], row))
    return rows, failed


def number(x):
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"


def quartile_cell(summary, unit):
    if summary is None:
        return "n/a"
    median, q1, q3 = summary
    return f"{number(median)} [{number(q1)}–{number(q3)}] {unit}"


def render_report(rows, failed, host, base_rev, head_rev, pairs):
    stamp = host.get("timestamp_unix_s")
    date = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime(stamp)) if stamp else "unknown"
    lines = [
        "# sweepbench: HEAD against BASE",
        "",
        "| host record | |",
        "|---|---|",
        f"| BASE | `{base_rev}` |",
        f"| HEAD | `{head_rev}` |",
        f"| nproc | {host.get('nproc', 'unknown')} |",
        f"| kernel | {host.get('kernel', 'unknown')} |",
        f"| filesystem of `results/` | {host.get('results_fs', 'unknown')} |",
        f"| seed | {host.get('seed', 'unknown')} |",
        f"| run length | {host.get('seconds', 'unknown')} s per workload |",
        f"| pairs | {pairs} |",
        f"| date | {date} |",
        "",
        "| workload | metric | bound | BASE median [q1–q3] | HEAD median [q1–q3] | HEAD wins | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, metric, unit, bound, row in rows:
        lines.append(
            f"| {workload} | {metric} | {bound:.0%} | {quartile_cell(row['base'], unit)} "
            f"| {quartile_cell(row['head'], unit)} | {row['wins']}/{row['pairs']} | {row['verdict']} |"
        )
    lines.append("")
    if failed:
        lines.append(f"Failed HEAD runs (pair): {', '.join(str(p) for p in failed)}.")
    else:
        lines.append("Every HEAD run was correct (`failed` = 0).")
    for workload, metric, _, _, row in rows:
        # judge_row sets both sides' quartiles or neither.
        if (workload, metric) != ("resume", "sweep_s") or row["verdict"] == "gain" or not row["base"]:
            continue
        move = (row["head"][0] - row["base"][0]) / row["base"][0]
        if abs(move) < LAYOUT_MOVE:
            lines += [
                "",
                f"`resume` `sweep_s` moved by {move:+.1%} in the median and is not a gain. "
                "A move of this size has come from code layout alone (see CHANGES.md), "
                "so it need not come from the journal path.",
            ]
    return "\n".join(lines) + "\n"


def render_drift(out, suffix, command, lines_are, file_is):
    """Report section on one simulated output, BASE -> HEAD."""
    lines = ["", f"## Simulated output of `{command}`", ""]
    try:
        base, head = ((out / f"{side}{suffix}").read_text().splitlines() for side in SIDES)
    except OSError:
        return "\n".join(lines + [f"Not compared: a side's {file_is} is missing."]) + "\n"
    pairs = list(itertools.zip_longest(base, head, fillvalue="(no line)"))
    changed = [(b, h) for b, h in pairs if b != h]
    lines.append(f"{len(changed)} of {len(pairs)} {lines_are} lines differ between BASE and HEAD.")
    if changed:
        lines.append("")
        lines += [f"- `{b}` → `{h}`" for b, h in changed[:DRIFT_SHOWN]]
        if len(changed) > DRIFT_SHOWN:
            lines.append(f"- … and {len(changed) - DRIFT_SHOWN} more")
    return "\n".join(lines) + "\n"


def main(argv):
    if len(argv) != 4:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out, benchmark_path, base_rev, head_rev = Path(argv[0]), Path(argv[1]), argv[2], argv[3]
    try:
        benchmark = json.loads(benchmark_path.read_text())
        runs = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines() if line]
    except (OSError, ValueError) as e:
        print(f"bench_judge: {e}", file=sys.stderr)
        return 2
    if {run["side"] for run in runs} != set(SIDES):
        print("bench_judge: runs.jsonl needs runs of both sides", file=sys.stderr)
        return 2
    try:
        host = json.loads((out / "bench.json").read_text())["host"]
    except (OSError, ValueError, KeyError):
        host = {}
    rows, failed = judge(runs, benchmark)
    pairs = len({run["pair"] for run in runs})
    report = render_report(rows, failed, host, base_rev, head_rev, pairs)
    report += "".join(render_drift(out, *output) for output in DRIFT_OUTPUTS)
    (out / "report.md").write_text(report)
    print(report, end="")
    return 1 if failed or any(row["verdict"] == "regressed" for *_, row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
