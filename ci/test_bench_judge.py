"""One case per rule of ci/bench_judge.py; run with
`python3 -m unittest discover -s ci`."""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import bench_judge

BENCHMARK = {
    "workloads": [{"name": "sweep-journal"}],
    "end_to_end": [
        {"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "cells_per_s", "unit": "cells/s", "better": "higher", "bound": 0.25},
    ],
}

# The same metrics on `resume`, whose small moves the report annotates.
RESUME = {"workloads": [{"name": "resume"}], "end_to_end": BENCHMARK["end_to_end"]}

# Ten runs with IQR/median 0.04.
STEADY = [3.6, 3.62, 3.64, 3.66, 3.68, 3.7, 3.72, 3.74, 3.76, 3.78]
# Ten runs with IQR/median above 0.25.
NOISY = [2.4, 4.6, 2.9, 4.2, 3.1, 4.4, 2.6, 3.9, 3.3, 4.8]


def result(sweep_s, failed=0, workload="sweep-journal"):
    metrics = {
        f"{workload}.sweep_s": {"value": sweep_s, "unit": "s"},
        f"{workload}.cells_per_s": {"value": 1210 / sweep_s, "unit": "cells/s"},
    }
    return {"correct": failed == 0, "attempted": 9000, "failed": failed, "metrics": metrics}


def runs(base, head, failed_pair=None, workload="sweep-journal"):
    out = []
    for pair, (b, h) in enumerate(zip(base, head)):
        out.append({"side": "base", "pair": pair, "result": result(b, 0, workload)})
        failed = int(pair == failed_pair)
        out.append({"side": "head", "pair": pair, "result": result(h, failed, workload)})
    return out


def verdicts(base, head):
    rows, _ = bench_judge.judge(runs(base, head), BENCHMARK)
    return {metric: row["verdict"] for _, metric, _, _, row in rows}


# judged()'s keyword for each simulated output's file suffix.
OUTPUT_SUFFIXES = {
    "grids": ".csv",
    "latency": "-latency.txt",
    "characterize": "-characterize.txt",
    "suite": "-suite.txt",
    "table2": "-table2.txt",
    "lbo": "-lbo.txt",
    "chaos": "-chaos.txt",
    "journal": "-journal.txt",
    "gclog": "-gclog.txt",
    "heaptrace": "-heaptrace.txt",
    "kick": "-kick.txt",
}


def judged(records, benchmark=BENCHMARK, **outputs):
    """Exit code and report.md of the judge over `records`, with each
    keyword of OUTPUT_SUFFIXES = (BASE lines, HEAD lines) written as the
    sides' files of that simulated output."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "runs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (out / "benchmark.json").write_text(json.dumps(benchmark))
        for name, sides in outputs.items():
            for side, lines in zip(bench_judge.SIDES, sides):
                path = out / f"{side}{OUTPUT_SUFFIXES[name]}"
                path.write_text("".join(line + "\n" for line in lines))
        with contextlib.redirect_stdout(io.StringIO()):
            code = bench_judge.main([str(out), str(out / "benchmark.json"), "base", "head"])
        return code, (out / "report.md").read_text()


def exit_code(records):
    return judged(records)[0]


class Rules(unittest.TestCase):
    def test_identical_sides_are_within_bound(self):
        self.assertEqual(verdicts(STEADY, STEADY)["sweep_s"], "within bound")
        self.assertEqual(exit_code(runs(STEADY, STEADY)), 0)

    def test_forty_percent_slower_with_tight_spread_regresses(self):
        slower = [v * 1.4 for v in reversed(STEADY)]
        self.assertEqual(verdicts(STEADY, slower)["sweep_s"], "regressed")
        self.assertEqual(exit_code(runs(STEADY, slower)), 1)

    def test_wide_overlapping_spread_is_unresolved(self):
        head = [v * 1.3 for v in reversed(NOISY)]
        self.assertEqual(verdicts(NOISY, head)["sweep_s"], "unresolved")
        self.assertEqual(exit_code(runs(NOISY, head)), 0)

    def test_wide_spread_with_every_head_run_worse_regresses(self):
        head = [v + 3.0 for v in NOISY]
        self.assertEqual(verdicts(NOISY, head)["sweep_s"], "regressed")

    def test_ten_wins_beyond_base_iqr_is_a_gain(self):
        faster = [v * 0.8 for v in STEADY]
        self.assertEqual(verdicts(STEADY, faster)["sweep_s"], "gain")

    def test_a_failed_head_run_fails_the_gate(self):
        self.assertEqual(exit_code(runs(STEADY, STEADY, failed_pair=3)), 1)

    def test_grid_drift_is_reported_but_never_fails_the_gate(self):
        header = "benchmark,collector,heap_factor,wall_s,task_s,wall_distillable_s,task_distillable_s"
        base = [header] + [f"lusearch,G1,1,32.0,{200 + i},1.0,70.0" for i in range(12)] + ["fop,G1,2,1,2,1,1"]
        head = [header] + [f"lusearch,G1,1,32.0,{150 + i},1.0,20.0" for i in range(12)] + ["fop,G1,2,1,2,1,1"]
        code, report = judged(runs(STEADY, STEADY), grids=(base, head))
        self.assertEqual(code, 0)
        self.assertIn("12 of 14 CSV lines differ", report)
        self.assertEqual(report.count(" → "), bench_judge.DRIFT_SHOWN)
        self.assertIn("`lusearch,G1,1,32.0,200,1.0,70.0` → `lusearch,G1,1,32.0,150,1.0,20.0`", report)
        self.assertIn("and 2 more", report)
        code, report = judged(runs(STEADY, [v * 1.4 for v in STEADY]), grids=(base, base))
        self.assertEqual(code, 1, "an identical grid does not forgive a regression")
        self.assertIn("0 of 14 CSV lines differ", report)
        self.assertIn("grid CSV is missing", judged(runs(STEADY, STEADY))[1])

    def test_latency_drift_is_reported_beside_the_grid_but_never_fails_the_gate(self):
        header = "collector  heap  pauses  pause p50  pause p99  pause p99.9  pause max"
        g1_2x = "G1         2.0   263     1.55ms     11.04ms    11.04ms      11.04ms"
        base = [header, "G1         1.0   59857   764.5us    1.02ms     1.02ms       1.47ms", g1_2x]
        head = [header, "G1         1.0   59857   388.1us    1.47ms     1.47ms       1.47ms", g1_2x]
        code, report = judged(runs(STEADY, STEADY), latency=(base, head))
        self.assertEqual(code, 0)
        self.assertIn("## Simulated output of `latency -b all --heaps 1,2,6`", report)
        self.assertIn("1 of 3 output lines differ", report)
        self.assertIn(f"- `{base[1]}` → `{head[1]}`", report)
        self.assertEqual(report.count(" → "), 1)
        self.assertIn("grid CSV is missing", report)
        code, report = judged(runs(STEADY, [v * 1.4 for v in STEADY]), latency=(base, base))
        self.assertEqual(code, 1, "an identical latency output does not forgive a regression")
        self.assertIn("0 of 3 output lines differ", report)
        self.assertIn("latency output is missing", judged(runs(STEADY, STEADY))[1])

    def test_profile_reading_outputs_are_reported_but_never_fail_the_gate(self):
        header = "benchmark   GLK  GMU  PET"
        base = [header, "avrora      0    7    5", "zxing       120  24   1"]
        head = [header, "avrora      0    7    5", "zxing       121  24   1"]
        same = (base, base)
        code, report = judged(runs(STEADY, STEADY), characterize=same, suite=same, table2=(base, head))
        self.assertEqual(code, 0)
        for command in ("characterize", "suite", "nominal --table2"):
            self.assertIn(f"## Simulated output of `{command}`", report)
        self.assertEqual(report.count("0 of 3 output lines differ"), 2)
        self.assertIn("1 of 3 output lines differ", report)
        self.assertIn(f"- `{base[2]}` → `{head[2]}`", report)
        missing = judged(runs(STEADY, STEADY))[1]
        for output in ("characterize output", "suite output", "Table 2 output"):
            self.assertIn(f"{output} is missing", missing)

    def test_lbo_reason_drift_is_reported_but_never_fails_the_gate(self):
        header = "unplotted points (collector cannot run at this heap):"
        oom = "  Shen. @ 1.00x: out of memory at {}s: {} live bytes in a 5242880-byte heap"
        zgc = "  ZGC* @ 1.00x: collector cannot run"
        base = [header, oom.format("0.213703", 4420636), zgc]
        head = [header, oom.format("0.209804", 4369335), zgc]
        code, report = judged(runs(STEADY, STEADY), lbo=(base, head))
        self.assertEqual(code, 0)
        self.assertIn("## Simulated output of `lbo`", report)
        self.assertIn("1 of 3 output lines differ", report)
        self.assertIn(f"- `{base[1]}` → `{head[1]}`", report)
        code, report = judged(runs(STEADY, [v * 1.4 for v in STEADY]), lbo=(base, base))
        self.assertEqual(code, 1, "an identical lbo output does not forgive a regression")
        self.assertIn("lbo output is missing", judged(runs(STEADY, STEADY))[1])

    def test_hard_fault_chaos_drift_is_reported_but_never_fails_the_gate(self):
        cells = "20 cell(s): 9 completed, 0 infeasible at small heaps, 11 quarantined, {} retries"
        victim = "  fop / Serial / 4.00x after 3 attempt(s): killed by signal 9 (SIGKILL)"
        base = [cells.format(22), "11 cell(s) quarantined:", victim, "33 crash report(s) collected"]
        head = [cells.format(20), "11 cell(s) quarantined:", victim, "33 crash report(s) collected"]
        code, report = judged(runs(STEADY, STEADY), chaos=(base, head))
        self.assertEqual(code, 0)
        command = "artifact chaos --isolation process --hard-faults kill"
        self.assertIn(f"## Simulated output of `{command}`", report)
        self.assertIn("1 of 4 output lines differ", report)
        self.assertIn(f"- `{base[0]}` → `{head[0]}`", report)
        code, report = judged(runs(STEADY, [v * 1.4 for v in STEADY]), chaos=(base, base))
        self.assertEqual(code, 1, "an identical chaos output does not forgive a regression")
        self.assertIn("0 of 4 output lines differ", report)
        self.assertIn("hard-fault chaos output is missing", judged(runs(STEADY, STEADY))[1])

    def test_journal_drift_is_reported_but_never_fails_the_gate(self):
        header = '{"journal":"chopin-sweep","version":1.0,"fingerprint":"5a1d0c8e0f6b2e41"}'
        cell = '{{"benchmark":"fop","collector":"G1","heap_factor":{},"samples":[],"infeasible":null}}'
        base = [cell.format("1.0"), cell.format("2.0"), header]
        head = [cell.format("1.0"), cell.format("2.5"), header]
        code, report = judged(runs(STEADY, STEADY), journal=(base, head))
        self.assertEqual(code, 0)
        self.assertIn("## Simulated output of `runbms -b all --isolation thread --journal J`", report)
        self.assertIn("1 of 3 sorted journal lines differ", report)
        self.assertIn(f"- `{base[1]}` → `{head[1]}`", report)
        code, report = judged(runs(STEADY, [v * 1.4 for v in STEADY]), journal=(base, base))
        self.assertEqual(code, 1, "an identical journal does not forgive a regression")
        self.assertIn("0 of 3 sorted journal lines differ", report)
        self.assertIn("sorted journal is missing", judged(runs(STEADY, STEADY))[1])

    def test_single_run_outputs_are_reported_but_never_fail_the_gate(self):
        base = ["kick-the-tires: fop on G1 and ZGC at 2x and 6x heap",
                "  fop G1 @ 2.0x: wall 637.608ms task 1.564s gcs 83"]
        head = [base[0], "  fop G1 @ 2.0x: wall 637.609ms task 1.564s gcs 83"]
        same = (base, base)
        code, report = judged(runs(STEADY, STEADY), gclog=same, heaptrace=same, kick=(base, head))
        self.assertEqual(code, 0)
        for command in ("gclog -b h2 --collector shenandoah --heap-factor 2",
                        "heaptrace -b fop", "artifact kick-the-tires"):
            self.assertIn(f"## Simulated output of `{command}`", report)
        self.assertEqual(report.count("0 of 2 output lines differ"), 2)
        self.assertIn("1 of 2 output lines differ", report)
        self.assertIn(f"- `{base[1]}` → `{head[1]}`", report)
        code, report = judged(runs(STEADY, [v * 1.4 for v in STEADY]), kick=same)
        self.assertEqual(code, 1, "an identical output does not forgive a regression")
        missing = judged(runs(STEADY, STEADY))[1]
        for output in ("gclog output", "heaptrace output", "kick-the-tires output"):
            self.assertIn(f"{output} is missing", missing)

    def test_a_small_resume_move_that_is_no_gain_is_noted_as_possibly_layout(self):
        def report(head, workload="resume", base=STEADY):
            benchmark = RESUME if workload == "resume" else BENCHMARK
            return judged(runs(base, head, workload=workload), benchmark)

        code, text = report([v * 1.1 for v in STEADY])
        self.assertEqual(code, 0)
        self.assertIn("`resume` `sweep_s` moved by +10.0% in the median and is not a gain.", text)
        self.assertIn("code layout alone", text)
        unresolved = report([v * 0.9 for v in reversed(NOISY)], base=NOISY)[1]
        self.assertIn("moved by -10.0%", unresolved)
        for head, workload in (
            ([v * 0.8 for v in STEADY], "resume"),  # a gain
            ([v * 1.2 for v in STEADY], "resume"),  # a move of 15% or more
            ([v * 1.1 for v in STEADY], "sweep-journal"),
        ):
            self.assertNotIn("code layout", report(head, workload)[1])

    def test_cells_per_s_is_better_when_higher(self):
        slower = [v * 1.4 for v in STEADY]
        self.assertEqual(verdicts(STEADY, slower)["cells_per_s"], "regressed")
        faster = [v * 0.8 for v in STEADY]
        self.assertEqual(verdicts(STEADY, faster)["cells_per_s"], "gain")


if __name__ == "__main__":
    unittest.main()
