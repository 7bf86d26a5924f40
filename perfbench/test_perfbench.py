"""Tests of the benchmark itself: its checker, its failure path, its output.

    python3 -m pytest perfbench/test_perfbench.py -q
    python3 perfbench/test_perfbench.py

The end-to-end cases run perfbench/run.py for about a second of
measurement each, against this checkout or against a copy of its source
with one deliberate defect, in a scratch directory inside the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int = 0) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class CheckerTest(unittest.TestCase):
    def test_known_outputs_pass(self):
        self.assertIsNone(checker.check_row_plain(9, "1 9 36 84 126 126 84 36 9 1\n"))
        self.assertIsNone(
            checker.check_power_annotated(9, "1|009|036|084|126|126|084|036|009|001\n")
        )
        self.assertIsNone(
            checker.check_theta(51, "n=51 central_digits=15 theta=14 base=1000000000000001\n")
        )
        self.assertIsNone(
            checker.check_row_json(
                3, '{"n": 3, "method": "power_partition", "coefficients": ["1", "3", "3", "1"]}\n'
            )
        )

    def test_corrupted_outputs_fail(self):
        self.assertIsNotNone(checker.check_row_plain(9, "1 9 36 84 126 127 84 36 9 1\n"))
        self.assertIsNotNone(checker.check_row_plain(9, "1 9 36 84 126 126 84 36 9\n"))
        self.assertIsNotNone(
            checker.check_power_annotated(9, "1|009|036|084|126126|084|036|009|001\n")
        )
        self.assertIsNotNone(
            checker.check_row_json(
                3, '{"n": 3, "method": "multiplicative", "coefficients": ["1", "3", "3", "1"]}\n'
            )
        )
        self.assertIsNotNone(checker.check_theta(51, "n=51 central_digits=15 theta=15 base=1000000000000001\n"))

    def test_corrupted_report_fails(self):
        good = checker.verify_report_text(0, 5)
        self.assertIsNone(checker.check_verify_report(0, 5, good))
        lines = good.splitlines(keepends=True)
        self.assertIsNotNone(checker.check_verify_report(0, 5, "".join(lines[:-1])))
        record = json.loads(lines[3])
        record["checks"]["lemma1_bound"] = False
        lines[3] = json.dumps(record) + "\n"
        self.assertIsNotNone(checker.check_verify_report(0, 5, "".join(lines)))


# Each mutant keeps the exit code 0. The first three break one output kind,
# so only the independent check can catch them; the last does one more
# scalar multiplication in each process than in the one before, so only
# the repeated-count check of a traced run can catch it.
MUTANTS = {
    "row": (
        "rowgen.py",
        "        out.append(x)\n",
        "        out.append(x + _ONE if len(out) == 1 else x)\n",
        "small_cli",
        0,
    ),
    "block": (
        "cli.py",
        'text = "|".join(reversed(blocks))',
        'text = "|".join(reversed(blocks)).replace("|", "", 1)',
        "small_cli",
        0,
    ),
    "report": (
        "verify_bench.py",
        '"theta": result.theta,',
        '"theta": result.theta + (result.n == 7),',
        "verify_sweep",
        0,
    ),
    "counts": (
        "cli.py",
        "    parser = build_parser()\n",
        "    import pathlib\n"
        "    marker = pathlib.Path('run-count')\n"
        "    runs = int(marker.read_text()) if marker.exists() else 0\n"
        "    marker.write_text(str(runs + 1))\n"
        "    for _ in range(runs):\n"
        "        bignat.BigNat(3).mul_small(2)\n"
        "    parser = build_parser()\n",
        "small_cli",
        1,
    ),
}


class EndToEndTest(unittest.TestCase):
    def setUp(self):
        scratch = tempfile.TemporaryDirectory(prefix=".perfbench-test-", dir=ROOT)
        self.addCleanup(scratch.cleanup)
        self.scratch = Path(scratch.name)

    def mutant_checkout(self, filename: str, old: str, new: str) -> Path:
        shutil.copytree(ROOT / "src", self.scratch / "src", ignore=shutil.ignore_patterns("__pycache__"))
        target = self.scratch / "src" / "pascalrow" / filename
        text = target.read_text()
        self.assertEqual(text.count(old), 1, f"mutation site gone from {filename}")
        target.write_text(text.replace(old, new))
        return self.scratch

    def test_defects_are_counted_and_fail_the_run(self):
        for label, (filename, old, new, workload, trace) in MUTANTS.items():
            with self.subTest(label):
                shutil.rmtree(self.scratch / "src", ignore_errors=True)
                code, stdout = run_bench(self.mutant_checkout(filename, old, new), workload, trace)
                result = last_json(stdout)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("# failed_ratio = ", stdout)
                self.assertNotIn("# failed_ratio = 0 ", stdout)

    def test_no_source_means_no_result(self):
        code, stdout = run_bench(self.scratch, "small_cli")
        self.assertNotEqual(code, 0)
        self.assertEqual(stdout, "")

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(key):
                code, stdout = run_bench(ROOT, "small_cli", trace)
                result = last_json(stdout)
                self.assertEqual(code, 0, stdout)
                self.assertEqual((result["correct"], result["failed"]), (True, 0))
                wanted = {m["name"]: m["unit"] for m in spec[key]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, wanted)

    def test_wrappers_keep_the_lru_cache_interface(self):
        script = (
            "import traced_child as t\n"
            "t.install(t.Recorder())\n"
            "from pascalrow import rowgen\n"
            "rowgen.theta(5); rowgen.theta(5)\n"
            "assert rowgen.theta.cache_info().hits == 1\n"
            "rowgen.clear_caches()\n"
            "assert rowgen.theta.cache_info().currsize == 0\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
