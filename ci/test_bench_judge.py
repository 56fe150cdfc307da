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

# Ten runs with IQR/median 0.04.
STEADY = [3.6, 3.62, 3.64, 3.66, 3.68, 3.7, 3.72, 3.74, 3.76, 3.78]
# Ten runs with IQR/median above 0.25.
NOISY = [2.4, 4.6, 2.9, 4.2, 3.1, 4.4, 2.6, 3.9, 3.3, 4.8]


def result(sweep_s, failed=0):
    metrics = {
        "sweep-journal.sweep_s": {"value": sweep_s, "unit": "s"},
        "sweep-journal.cells_per_s": {"value": 1210 / sweep_s, "unit": "cells/s"},
    }
    return {"correct": failed == 0, "attempted": 9000, "failed": failed, "metrics": metrics}


def runs(base, head, failed_pair=None):
    out = []
    for pair, (b, h) in enumerate(zip(base, head)):
        out.append({"side": "base", "pair": pair, "result": result(b)})
        out.append({"side": "head", "pair": pair, "result": result(h, int(pair == failed_pair))})
    return out


def verdicts(base, head):
    rows, _ = bench_judge.judge(runs(base, head), BENCHMARK)
    return {metric: row["verdict"] for _, metric, _, _, row in rows}


def exit_code(records):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "runs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (out / "benchmark.json").write_text(json.dumps(BENCHMARK))
        with contextlib.redirect_stdout(io.StringIO()):
            code = bench_judge.main([str(out), str(out / "benchmark.json"), "base", "head"])
        assert (out / "report.md").is_file()
        return code


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

    def test_cells_per_s_is_better_when_higher(self):
        slower = [v * 1.4 for v in STEADY]
        self.assertEqual(verdicts(STEADY, slower)["cells_per_s"], "regressed")
        faster = [v * 0.8 for v in STEADY]
        self.assertEqual(verdicts(STEADY, faster)["cells_per_s"], "gain")


if __name__ == "__main__":
    unittest.main()
