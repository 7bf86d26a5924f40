"""Range verification sweeps and method benchmarks with CSV/JSONL reports.

verify_range runs every enabled check family for each n in a range and
returns structured pass/fail data; failures are data, not exceptions, and
carry enough detail to reproduce the failing case standalone.
verify_range_parallel gives the same report with the rows dealt
round-robin to forked worker processes, one per CPU; verify_range and the
workers run the same row loop.
bench_methods times the three row generators against each other with an
instrumented multiplication counter. emit_report serializes either result
to CSV or JSON lines.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from os import PathLike
from pathlib import Path
from typing import IO, Sequence

from . import bignat, oracle, rowgen
from .bignat import BigNat, pow10
from .row import Method, Row

#: Canonical check order, used for report columns and JSON key order.
CHECK_NAMES = (
    "row_equality",
    "digit_length",
    "residue_identity",
    "leading_block",
    "lemma1_bound",
    "symmetry",
    "row_sum",
    "weighted_sum_11",
)

#: Fixed benchmark CSV header.
BENCH_CSV_HEADER = "method,n,theta,result_digits,big_mul_count,median_wall_time_ns"


@dataclass(frozen=True)
class CheckFailure:
    """One reproducible failing case; r is None for checks without a block index."""

    check: str
    n: int
    r: int | None
    expected: str
    actual: str


@dataclass
class RowVerification:
    n: int
    theta: int
    checks: dict[str, bool]
    failures: list[CheckFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass
class VerifyReport:
    n_from: int
    n_to: int
    seed: int
    residue_samples: int
    checks: tuple[str, ...]
    results: list[RowVerification] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)


@dataclass(frozen=True)
class BenchRecord:
    method: Method
    n: int
    theta: int
    result_digits: int
    big_mul_count: int
    median_wall_time_ns: int
    repetitions: int


def verify_range(
    n_from: int,
    n_to: int,
    checks: Sequence[str] | None = None,
    residue_samples: int = 1,
    seed: int = 0,
) -> VerifyReport:
    """Run the selected check families for every n in [n_from, n_to].

    Block-indexed checks run at r = 1, r = n + 1 and `residue_samples`
    seeded random r per n. The report is deterministic for a given seed;
    timings play no part in it.
    """
    selected = _validated_sweep(n_from, n_to, checks, residue_samples)
    results = _check_rows(n_from, n_to, 1, selected, residue_samples, seed)
    return VerifyReport(n_from, n_to, seed, residue_samples, selected, results)


def verify_range_parallel(
    n_from: int,
    n_to: int,
    checks: Sequence[str] | None = None,
    residue_samples: int = 1,
    seed: int = 0,
) -> VerifyReport:
    """verify_range(n_from, n_to, ...), with the rows checked in parallel.

    Row n depends on n alone, so the rows are dealt round-robin to k
    forked worker processes, k = min(CPUs this process may run on, rows):
    worker i checks rows n_from + i, n_from + i + k, ... as one task. The
    parent merges their results by n, so the report is the one
    verify_range returns, whatever k is. Arguments are validated before
    any process starts. Workers inherit the parent's module state through
    the fork, the multiplication threshold included. A worker that dies
    raises ChildProcessError: no report is written, so the message names
    the whole range.
    """
    # Imported here: the pool costs start-up time no other command needs.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    selected = _validated_sweep(n_from, n_to, checks, residue_samples)
    workers = min(len(os.sched_getaffinity(0)), n_to - n_from + 1)
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        tasks = [
            pool.submit(
                _check_rows, first, n_to, workers, selected, residue_samples, seed
            )
            for first in range(n_from, n_from + workers)
        ]
        try:
            parts = [task.result() for task in tasks]
        except BrokenProcessPool:
            raise ChildProcessError(
                f"a verify worker process died; rows {n_from}..{n_to} were not checked"
            ) from None

    results = sorted((row for part in parts for row in part), key=lambda row: row.n)
    return VerifyReport(n_from, n_to, seed, residue_samples, selected, results)


def bench_methods(
    n_from: int,
    n_to: int,
    step: int = 1,
    repetitions: int = 1,
) -> list[BenchRecord]:
    """Time each generation method on every sampled n.

    Caches and the multiplication counter are reset before every repetition
    so each run pays full cost; the reported time is the median over
    repetitions and the multiplication count must be identical across them.
    result_digits is the largest integer a method materializes: the full
    power for power_partition, the central coefficient otherwise.
    """
    if n_from < 0 or n_from > n_to:
        raise ValueError(f"need 0 <= n_from <= n_to, got {n_from}..{n_to}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")

    records = []
    for n in range(n_from, n_to + 1, step):
        rows: dict[Method, Row] = {}
        for method in Method:
            times = []
            mul_counts = set()
            row = None
            for _ in range(repetitions):
                rowgen.clear_caches()
                bignat.reset_mul_counter()
                started = time.perf_counter_ns()
                row = rowgen.generate_row(method, n)
                times.append(time.perf_counter_ns() - started)
                mul_counts.add(bignat.mul_counter())
            if len(mul_counts) != 1:
                raise RuntimeError(
                    f"multiplication count varied across repetitions for "
                    f"{method.value} at n={n}: {sorted(mul_counts)}"
                )
            rows[method] = row
            records.append(
                BenchRecord(
                    method=method,
                    n=n,
                    theta=rowgen.theta(n).theta,
                    result_digits=_result_digits(method, row),
                    big_mul_count=mul_counts.pop(),
                    median_wall_time_ns=int(statistics.median(times)),
                    repetitions=repetitions,
                )
            )
        reference = rows[Method.POWER_PARTITION]
        for method, row in rows.items():
            if row.coefficients != reference.coefficients:
                raise RuntimeError(f"method disagreement at n={n}: {method.value}")
    return records


def emit_report(
    payload: VerifyReport | Sequence[BenchRecord],
    fmt: str = "csv",
    destination: str | PathLike | IO[str] | None = None,
) -> None:
    """Write a verify report or benchmark records as CSV or JSON lines.

    destination may be a path or an open text stream; I/O failures on a
    path are re-raised with the path named. Big values are emitted as
    decimal strings.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown report format {fmt!r}")
    if isinstance(payload, VerifyReport):
        lines = _verify_lines(payload, fmt)
    else:
        lines = _bench_lines(list(payload), fmt)
    text = "".join(line + "\n" for line in lines)

    if destination is None or hasattr(destination, "write"):
        stream = destination if destination is not None else sys.stdout
        stream.write(text)
        return
    path = Path(destination)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def _validated_sweep(
    n_from: int, n_to: int, checks: Sequence[str] | None, residue_samples: int
) -> tuple[str, ...]:
    if n_from < 0 or n_from > n_to:
        raise ValueError(f"need 0 <= n_from <= n_to, got {n_from}..{n_to}")
    if residue_samples < 1:
        raise ValueError(f"residue_samples must be >= 1, got {residue_samples}")
    return _validated_checks(checks)


def _check_rows(
    first: int,
    last: int,
    step: int,
    selected: tuple[str, ...],
    residue_samples: int,
    seed: int,
) -> list[RowVerification]:
    """Check rows first, first + step, ... up to last, with validated arguments."""
    row_checks = [name for name in selected if name in _ROW_CHECKS]
    block_checks = [name for name in selected if name in _BLOCK_CHECKS]
    additive_rows = None
    if "row_equality" in selected:
        additive_rows = oracle.iter_recurrence_rows(first, step)

    results = []
    for n in range(first, last + 1, step):
        facts = _RowFacts(n, next(additive_rows) if additive_rows else None)
        found: dict[str, list] = {name: [] for name in selected}
        for name in row_checks:
            found[name] += _ROW_CHECKS[name](facts)
        if block_checks:
            rs = _sample_r_values(n, residue_samples, seed)
            for residue in rowgen.residues(facts.oracle_row, rs):
                for name in block_checks:
                    found[name] += _BLOCK_CHECKS[name](facts, residue)
        results.append(
            RowVerification(
                n=n,
                theta=facts.geometry.theta,
                checks={name: not found[name] for name in selected},
                failures=[
                    CheckFailure(check=name, n=n, r=r, expected=expected, actual=actual)
                    for name in selected
                    for r, expected, actual in found[name]
                ],
            )
        )
    return results


def _validated_checks(checks: Sequence[str] | None) -> tuple[str, ...]:
    if checks is None:
        return CHECK_NAMES
    if isinstance(checks, str):
        raise TypeError(
            f"checks must be a sequence of check names, not the string {checks!r}"
        )
    if not checks:
        raise ValueError(f"no checks selected; choose from {CHECK_NAMES}")
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(
            f"unknown check name(s) {sorted(unknown)}; choose from {CHECK_NAMES}"
        )
    return tuple(name for name in CHECK_NAMES if name in set(checks))


def _sample_r_values(n: int, residue_samples: int, seed: int) -> list[int]:
    # Per-n generator keeps the draw independent of sweep order and of
    # which checks are enabled. It is discarded after this row, so the draw
    # stops once every block count is in: more draws cannot change the set.
    rng = random.Random(seed * 1_000_003 + n)
    values = {1, n + 1}
    for _ in range(residue_samples):
        if len(values) == n + 1:
            break
        values.add(rng.randint(1, n + 1))
    return sorted(values)


class _RowFacts:
    """What the checks read about row n; each fact is built on first use, once.

    The facts live as long as the row. Nothing built for row n outlives
    it except the one-row caches of rowgen.theta and rowgen.power_integer,
    which the next row replaces.
    """

    def __init__(self, n: int, additive_row: Row | None):
        self.n = n
        self.geometry = rowgen.theta(n)
        self.additive_row = additive_row

    @cached_property
    def power_row(self) -> Row:
        return rowgen.row_via_power(self.n)

    @cached_property
    def oracle_row(self) -> Row:
        return oracle.row_multiplicative(self.n)


# Each check yields (r, expected, actual) per failing case and nothing when
# it passes; r is None for checks without a block index. Block checks also
# take the residue of one block count r.


def _row_equality(facts):
    got = facts.power_row.coefficients
    for label, other in (
        ("multiplicative", facts.oracle_row),
        ("recurrence", facts.additive_row),
    ):
        for k, (mine, want) in enumerate(zip(got, other.coefficients)):
            if mine != want:
                yield k, f"{label}:{want}", str(mine)
                break


def _digit_length(facts):
    expected = facts.n * facts.geometry.block_width + 1
    actual = rowgen.power_integer(facts.n).digit_count()
    if actual != expected:
        yield None, str(expected), str(actual)


def _residue_identity(facts, residue):
    if mismatch := residue.mismatch:
        yield residue.r, *mismatch


def _leading_block(facts, residue):
    if mismatch := residue.mismatch:
        yield residue.r, *mismatch
        return
    got = residue.leading_block
    want = facts.oracle_row.coefficients[residue.r - 1]
    if got != want:
        yield residue.r, str(want), str(got)


def _lemma1_bound(facts, residue):
    if not residue.within_bound:
        yield (
            residue.r,
            f"at most {residue.r * residue.width} digits",
            f"{residue.truncated_sum.digit_count()} digits",
        )


def _symmetry(facts):
    coefficients = facts.power_row.coefficients
    for k in range(len(coefficients) // 2):
        if coefficients[k] != coefficients[facts.n - k]:
            yield k, str(coefficients[facts.n - k]), str(coefficients[k])
            return


def _evaluation(row: str, width: int):
    """Check that `row` of the facts, read at x = 10**width, is (x + 1)**n.

    The construction's identity at one point: x = 1 (width 0) is the row
    sum 2**n, x = 10 (width 1) the weighted sum 11**n.
    """

    def check(facts):
        value = BigNat.from_blocks(getattr(facts, row).coefficients, width)
        expected = (pow10(width) + BigNat(1)).pow(facts.n)
        if value != expected:
            yield None, str(expected), str(value)

    return check


_ROW_CHECKS = {
    "row_equality": _row_equality,
    "digit_length": _digit_length,
    "symmetry": _symmetry,
    "row_sum": _evaluation("power_row", 0),
    "weighted_sum_11": _evaluation("oracle_row", 1),
}
_BLOCK_CHECKS = {
    "residue_identity": _residue_identity,
    "leading_block": _leading_block,
    "lemma1_bound": _lemma1_bound,
}


def _result_digits(method: Method, row: Row) -> int:
    if method is Method.POWER_PARTITION:
        return rowgen.power_integer(row.n).digit_count()
    return row.coefficients[len(row.coefficients) // 2].digit_count()


def _verify_lines(report: VerifyReport, fmt: str) -> list[str]:
    if fmt == "jsonl":
        return [json.dumps(asdict(result)) for result in report.results]
    header = ["n", "theta", *report.checks]
    lines = [",".join(header)]
    for result in report.results:
        cells = [str(result.n), str(result.theta)]
        cells += [
            "true" if result.checks[name] else "false" for name in report.checks
        ]
        lines.append(",".join(cells))
    return lines


def _bench_lines(records: list[BenchRecord], fmt: str) -> list[str]:
    if fmt == "jsonl":
        return [
            json.dumps({**asdict(record), "method": record.method.value})
            for record in records
        ]
    lines = [BENCH_CSV_HEADER]
    for record in records:
        lines.append(
            f"{record.method.value},{record.n},{record.theta},"
            f"{record.result_digits},{record.big_mul_count},"
            f"{record.median_wall_time_ns}"
        )
    return lines
