"""Range verification sweeps and method benchmarks with CSV/JSONL reports.

verify_range runs every enabled check family for each n in a range and
returns structured pass/fail data; failures are data, not exceptions, and
carry enough detail to reproduce the failing case standalone. Its row
loop builds each row's power with one product from the previous row's
while the block width holds, steps both oracles' rows from the row
before as limb matrices, one coefficient per matrix row, and compares,
mirrors, sums and lays down rows in that form. A range whose last row is
past the oracles' scalar steps (row.row_index) is refused before any row
is checked. verify_range_parallel gives the
same report with the range cut into contiguous runs of about equal work,
one per forked worker process and CPU; each worker runs the same row loop
over its run.
bench_methods times the three row generators against each other with an
instrumented multiplication counter. emit_report serializes either result
to CSV or JSON lines.
"""

from __future__ import annotations

import json
import operator
import os
import random
import statistics
import sys
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import accumulate
from os import PathLike
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import bignat, oracle, rowgen
from .bignat import RADIX_DIGITS, BigNat, _int_at_least, pow10
from .row import Method, Row, row_index

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
    n_from, n_to, selected = _validated_sweep(n_from, n_to, checks, residue_samples)
    results = _check_rows(n_from, n_to, selected, residue_samples, seed)
    return VerifyReport(n_from, n_to, seed, residue_samples, selected, results)


def verify_range_parallel(
    n_from: int,
    n_to: int,
    checks: Sequence[str] | None = None,
    residue_samples: int = 1,
    seed: int = 0,
) -> VerifyReport:
    """verify_range(n_from, n_to, ...), with the rows checked in parallel.

    Row n depends on n alone, so n_from..n_to is cut into k contiguous
    runs, one per forked worker process, k = min(CPUs this process may run
    on, rows). The cuts come from n alone and give each run about equal
    work (see _runs); each worker checks its run as verify_range would,
    stepping each power from the row before. The parent joins the runs in
    order, so the report is the one verify_range returns, whatever k is.
    Arguments are validated before any process starts. Workers inherit the
    parent's module state through the fork, the multiplication threshold
    included. A worker that dies raises ChildProcessError: no report is
    written, so the message names the whole range.
    """
    # Imported here: the pool costs start-up time no other command needs.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    n_from, n_to, selected = _validated_sweep(n_from, n_to, checks, residue_samples)
    workers = min(len(os.sched_getaffinity(0)), n_to - n_from + 1)
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        tasks = [
            pool.submit(_check_rows, first, last, selected, residue_samples, seed)
            for first, last in _runs(n_from, n_to, workers)
        ]
        try:
            parts = [task.result() for task in tasks]
        except BrokenProcessPool:
            raise ChildProcessError(
                f"a verify worker process died; rows {n_from}..{n_to} were not checked"
            ) from None

    results = [row for part in parts for row in part]
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
    n_from, n_to = _validated_range(n_from, n_to)
    step = _int_at_least(step, 1, "step")
    repetitions = _int_at_least(repetitions, 1, "repetitions")

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


def _validated_range(n_from: int, n_to: int) -> tuple[int, int]:
    # Both ends as Python ints, and the last row within the scalar steps'
    # reach (row.row_index), so a range past it is refused before any row
    # is checked.
    n_from, n_to = operator.index(n_from), operator.index(n_to)
    if n_from < 0 or n_from > n_to:
        raise ValueError(f"need 0 <= n_from <= n_to, got {n_from}..{n_to}")
    return n_from, row_index(n_to)


def _validated_sweep(
    n_from: int, n_to: int, checks: Sequence[str] | None, residue_samples: int
) -> tuple[int, int, tuple[str, ...]]:
    n_from, n_to = _validated_range(n_from, n_to)
    _int_at_least(residue_samples, 1, "residue_samples")
    return n_from, n_to, _validated_checks(checks)


def _check_rows(
    first: int,
    last: int,
    selected: tuple[str, ...],
    residue_samples: int,
    seed: int,
) -> list[RowVerification]:
    """Check rows first..last, one contiguous run, with validated arguments."""
    row_checks, block_checks = [], []
    for name in selected:
        check, per_block = _CHECKS[name]
        (block_checks if per_block else row_checks).append((name, check))
    additive_matrices = multiplicative_matrices = None
    if "row_equality" in selected:
        additive_matrices = oracle.iter_recurrence_matrices(first)
    # Every check but these two reads the multiplicative oracle's row.
    if not set(selected) <= {"symmetry", "row_sum"}:
        multiplicative_matrices = oracle.iter_multiplicative_matrices(first)
    # The construction's own power, and by width the values (10**width +
    # 1)**n that the row read at x = 10**width must equal.
    ladders = {
        "power": _Ladder(lambda base, n: rowgen.power_integer(n)),
        0: _Ladder(BigNat.pow),
        1: _Ladder(BigNat.pow),
    }

    results = []
    for n in range(first, last + 1):
        facts = _RowFacts(
            n,
            ladders,
            next(additive_matrices) if additive_matrices else None,
            next(multiplicative_matrices) if multiplicative_matrices else None,
        )
        found: dict[str, list] = {name: [] for name in selected}
        for name, check in row_checks:
            found[name] += check(facts)
        if block_checks:
            rs = _sample_r_values(n, residue_samples, seed)
            for residue in rowgen.unsettled_residues(
                facts.power, facts.multiplicative_matrix, rs
            ):
                for name, check in block_checks:
                    found[name] += check(facts, residue)
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


def _runs(n_from: int, n_to: int, k: int) -> list[tuple[int, int]]:
    # n_from..n_to cut into k contiguous (first, last) runs, 1 <= k <= rows,
    # each holding about a k-th of the rows' summed work, taken as
    # (n + 1) * (n + 200) for row n: a part per coefficient and a part per
    # digit of the power (about 0.3 * n**2 digits), which overtakes it near
    # n = 200. Two runs of 0..300 then split at 228, and measured 0.13 and
    # 0.12 s of CPU (best of 5, one process, Python 3.11, numpy 2.4, a
    # shared 2-CPU x86 host); weights of (n + 1)**2 split at 239, 0.14 and
    # 0.11 s. Each cut is moved, if it must be, so that every run keeps at
    # least one row.
    totals = list(
        accumulate((n + 1) * (n + 200) for n in range(n_from, n_to + 1))
    )
    edges = [0]
    for i in range(1, k):
        edge = bisect_left(totals, totals[-1] * i / k) + 1
        edges.append(min(max(edge, edges[-1] + 1), len(totals) - k + i))
    edges.append(len(totals))
    return [
        (n_from + start, n_from + stop - 1) for start, stop in zip(edges, edges[1:])
    ]


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


class _Ladder:
    """(10**w + 1)**n for the rows of one run, each by one product from the last.

    Row n steps from row n - 1's value when that row was asked for at the
    same w; any other row starts over with start(10**w + 1, n). Both go
    through BigNat's counted products.
    """

    def __init__(self, start):
        self._start = start
        self._key = self._base = self._value = None

    def at(self, n: int, w: int) -> BigNat:
        if self._key == (n - 1, w):
            self._value = self._value * self._base
        else:
            self._base = pow10(w) + BigNat(1)
            self._value = self._start(self._base, n)
        self._key = (n, w)
        return self._value


class _RowFacts:
    """What the checks read about row n; each fact is built on first use, once.

    The power and the values of the row read at x = 1 and x = 10 come from
    the run's ladders, so each is one product from the row before while
    the block width holds. The rows the checks compare are limb matrices,
    one coefficient per matrix row: the power's block cut, and both
    oracles' matrices as stepped from the row before. Every oracle-side
    fact is read off the multiplicative matrix: its rows are compared with
    the power's and with the residues' leading blocks, and it is laid down
    once at the block width for the residues and once at width 1 for the
    row read at x = 10. A BigNat or a string is built from a row only for
    a failure's detail. The facts live as long as the row. Nothing built
    for row n outlives it except the ladders' last values, the oracles'
    last matrices and the one-row caches of rowgen.theta and
    rowgen.power_integer.
    """

    def __init__(
        self,
        n: int,
        ladders: dict,
        additive_matrix: np.ndarray | None,
        multiplicative_matrix: np.ndarray | None,
    ):
        self.n = n
        self.geometry = rowgen.theta(n)
        self._ladders = ladders
        self.additive_matrix = additive_matrix
        self.multiplicative_matrix = multiplicative_matrix

    @cached_property
    def power(self) -> BigNat:
        return self._ladders["power"].at(self.n, self.geometry.block_width)

    def eleven_power(self, width: int) -> BigNat:
        """(10**width + 1)**n, the row read at x = 10**width."""
        return self._ladders[width].at(self.n, width)

    @cached_property
    def power_matrix(self) -> np.ndarray:
        # n + 1 rows: the cut gives none to the zero blocks above a short
        # power's leading digit.
        return _padded(
            self.power.block_matrix(self.geometry.block_width, self.n + 1), self.n + 1
        )


def _padded(matrix: np.ndarray, rows: int, limbs: int = 0) -> np.ndarray:
    # matrix with zero rows and limb columns added up to rows x limbs.
    limbs = max(limbs, matrix.shape[1])
    if matrix.shape == (rows, limbs):
        return matrix
    out = np.zeros((rows, limbs), matrix.dtype)
    out[: matrix.shape[0], : matrix.shape[1]] = matrix
    return out


def _first_unequal(a: np.ndarray, b: np.ndarray) -> int | None:
    # The first row at which limb matrices of equally many rows hold
    # different numbers, or None.
    limbs = max(a.shape[1], b.shape[1])
    a, b = _padded(a, len(a), limbs), _padded(b, len(b), limbs)
    unequal = np.flatnonzero((a != b).any(axis=1))
    return int(unequal[0]) if unequal.size else None


def _number(matrix: np.ndarray, k: int) -> BigNat:
    return BigNat.from_limb_rows(matrix[k : k + 1])[0]


def _digit_count(limbs: np.ndarray) -> int:
    # Decimal digits of the number with these little-endian limbs; 1 for 0.
    nonzero = np.flatnonzero(limbs)
    if not nonzero.size:
        return 1
    top = int(nonzero[-1])
    return RADIX_DIGITS * top + len(str(limbs[top]))


# Each check yields (r, expected, actual) per failing case and nothing when
# it passes; r is None for checks without a block index. Block checks also
# take the residue of one block count r.


def _row_equality(facts):
    got = facts.power_matrix
    for label, other in (
        ("multiplicative", facts.multiplicative_matrix),
        ("recurrence", facts.additive_matrix),
    ):
        k = _first_unequal(got, other)
        if k is not None:
            yield k, f"{label}:{_number(other, k)}", str(_number(got, k))


def _digit_length(facts):
    # The block width must be the digit count of the oracle's central
    # coefficient (theta builds it from prime factors, not from this row),
    # and the power must have n * width + 1 digits.
    width = facts.geometry.block_width
    central = _digit_count(facts.multiplicative_matrix[facts.n // 2])
    if width != central:
        yield None, f"block width {central}", f"block width {width}"
    expected = facts.n * width + 1
    actual = facts.power.digit_count()
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
    k = residue.r - 1
    want = facts.multiplicative_matrix[k].tolist()
    if list(got.limbs) + [0] * (len(want) - len(got.limbs)) != want:
        yield residue.r, str(_number(facts.multiplicative_matrix, k)), str(got)


def _lemma1_bound(facts, residue):
    if not residue.within_bound:
        yield (
            residue.r,
            f"at most {residue.r * residue.width} digits",
            f"{residue.truncated_sum.digit_count()} digits",
        )


def _symmetry(facts):
    coefficients = facts.power_matrix
    half = len(coefficients) // 2
    k = _first_unequal(coefficients[:half], coefficients[::-1][:half])
    if k is not None:
        yield k, str(_number(coefficients, facts.n - k)), str(_number(coefficients, k))


def _evaluation(value, width: int):
    """Check that value(facts), a row read at x = 10**width, is (x + 1)**n.

    The construction's identity at one point: x = 1 (width 0) is the row
    sum 2**n, x = 10 (width 1) the weighted sum 11**n.
    """

    def check(facts):
        got = value(facts)
        expected = facts.eleven_power(width)
        if got != expected:
            yield None, str(expected), str(got)

    return check


def _power_row_sum(facts):
    # The power row laid down at width 0: its coefficients' sum.
    return BigNat.from_block_matrix(facts.power_matrix, 0)


def _oracle_row_at_ten(facts):
    return BigNat.from_block_matrix(facts.multiplicative_matrix, 1)


# Every check family in canonical order, name -> (check, per_block): a
# per-block check runs once for each sampled block count r.
_CHECKS = {
    "row_equality": (_row_equality, False),
    "digit_length": (_digit_length, False),
    "residue_identity": (_residue_identity, True),
    "leading_block": (_leading_block, True),
    "lemma1_bound": (_lemma1_bound, True),
    "symmetry": (_symmetry, False),
    "row_sum": (_evaluation(_power_row_sum, 0), False),
    "weighted_sum_11": (_evaluation(_oracle_row_at_ten, 1), False),
}

#: Canonical check order, used for report columns and JSON key order.
CHECK_NAMES = tuple(_CHECKS)


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
