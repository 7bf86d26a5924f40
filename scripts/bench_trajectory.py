"""Print the perfbench trajectory recorded in the BENCH_<k>.json files.

Each BENCH_<k>.json holds the alternating parent/change perfbench pairs of
one change. This script reads every such file in a directory (the
repository root by default), in order of k, and prints one table per
workload: the file, its parent commit, and for each end-to-end metric of
BENCHMARK.json the change/parent ratio of the medians and the pairs the
change won, both recomputed from the pairs.

A file fails the run (exit 1, the file and the fault on stderr) if it
lacks a workload's pairs, a pair lacks a metric that its summary lists,
or the summary's ratio or pair count disagrees with the pairs. Keys other
than `workloads` and `parent_commit` (`earlier_sets`, `setup_probe`,
`aborted_first_set`, ...) and summary entries that are not metrics
(`correct_and_failed`) are ignored.

Usage: python scripts/bench_trajectory.py [DIRECTORY]
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Malformed(Exception):
    pass


def bench_files(directory: Path) -> list[Path]:
    numbered = []
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            numbered.append((int(match.group(1)), path))
    return [path for _, path in sorted(numbered)]


def metric_cell(pairs: list, summary: dict, metric: str, better: str) -> str:
    # "ratio won/pairs" from the pairs, checked against the summary; "-" for
    # a metric the file does not record.
    if metric not in summary:
        return "-"
    parent = [pair["parent"]["result"]["metrics"][metric]["value"] for pair in pairs]
    change = [pair["change"]["result"]["metrics"][metric]["value"] for pair in pairs]
    ratio = statistics.median(change) / statistics.median(parent)
    won = sum(
        (c < p) if better == "lower" else (c > p) for p, c in zip(parent, change)
    )
    recorded = summary[metric]
    if abs(ratio - recorded["change_over_parent_median"]) > 0.0005 + 1e-9:
        raise Malformed(
            f"{metric}: summary ratio {recorded['change_over_parent_median']}, "
            f"pairs give {ratio:.4f}"
        )
    if recorded["change_better_pairs"] != f"{won}/{len(pairs)}":
        raise Malformed(
            f"{metric}: summary says {recorded['change_better_pairs']} pairs won, "
            f"pairs give {won}/{len(pairs)}"
        )
    return f"{ratio:.3f} {won}/{len(pairs)}"


def file_rows(path: Path, better: dict) -> dict:
    # {workload: [file, parent commit, one cell per metric]}
    record = json.loads(path.read_text())
    rows = {}
    for workload, body in record["workloads"].items():
        pairs, summary = body["pairs"], body["summary"]
        if not pairs:
            raise Malformed(f"{workload} has no pairs")
        try:
            cells = [
                metric_cell(pairs, summary, metric, direction)
                for metric, direction in better.items()
            ]
        except Malformed as error:
            raise Malformed(f"{workload}: {error}") from None
        rows[workload] = [path.name, record["parent_commit"][:7], *cells]
    return rows


def table(header: list, rows: list) -> str:
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in [header, *rows]
    )


def main(argv: list) -> int:
    directory = Path(argv[0]) if argv else ROOT
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    paths = bench_files(directory)
    if not paths:
        print(f"no BENCH_<k>.json in {directory}", file=sys.stderr)
        return 1
    by_workload = {}
    for path in paths:
        try:
            rows = file_rows(path, better)
        except (Malformed, KeyError, TypeError, ValueError) as error:
            print(f"{path.name}: malformed: {error!r}", file=sys.stderr)
            return 1
        for workload, row in rows.items():
            by_workload.setdefault(workload, []).append(row)
    print("change/parent median ratio and pairs the change won, per end-to-end metric")
    for workload, rows in by_workload.items():
        print(f"\n{workload}")
        print(table(["file", "parent", *better], rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
