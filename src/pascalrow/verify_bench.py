"""Range verification sweeps and method benchmarks with CSV/JSONL reports.

verify_range runs every enabled check family for each n in a range and
returns structured pass/fail data; failures are data, not exceptions, and
carry enough detail to reproduce the failing case standalone.
verify_range_parallel gives the same report with contiguous sub-ranges
checked by verify_range in forked worker processes, one per CPU.
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
from .bignat import BigNat
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
    report = VerifyReport(
        n_from=n_from,
        n_to=n_to,
        seed=seed,
        residue_samples=residue_samples,
        checks=selected,
    )
    row_checks = [name for name in selected if name in _ROW_CHECKS]
    block_checks = [name for name in selected if name in _BLOCK_CHECKS]
    additive_rows = None
    if "row_equality" in selected:
        additive_rows = oracle.iter_recurrence_rows(n_from)

    for n in range(n_from, n_to + 1):
        facts = _RowFacts(n, next(additive_rows) if additive_rows else None)
        found: dict[str, list] = {name: [] for name in selected}
        for name in row_checks:
            found[name] += _ROW_CHECKS[name](facts)
        if block_checks:
            rs = _sample_r_values(n, residue_samples, seed)
            for residue in rowgen.residues(n, rs):
                for name in block_checks:
                    found[name] += _BLOCK_CHECKS[name](facts, residue)
        report.results.append(
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
    return report


def verify_range_parallel(
    n_from: int,
    n_to: int,
    checks: Sequence[str] | None = None,
    residue_samples: int = 1,
    seed: int = 0,
) -> VerifyReport:
    """verify_range(n_from, n_to, ...), with the rows checked in parallel.

    Row n depends on n alone, so [n_from, n_to] is cut into contiguous
    sub-ranges of about equal estimated work, more of them than workers.
    verify_range checks them in a pool of forked processes, one per CPU
    this process may run on, largest n first; their results are
    concatenated in n order. The report is the one verify_range returns,
    whatever the number of CPUs. Arguments are validated before any
    process starts. Workers inherit the parent's module state through the
    fork, the multiplication threshold included. A worker that dies
    raises ChildProcessError naming the rows left unchecked.
    """
    # Imported here: the pool costs start-up time no other command needs.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    selected = _validated_sweep(n_from, n_to, checks, residue_samples)
    cpus = len(os.sched_getaffinity(0))
    spans = _balanced_spans(n_from, n_to, _SPANS_PER_WORKER * cpus)
    pool = ProcessPoolExecutor(
        max_workers=min(cpus, len(spans)),
        mp_context=multiprocessing.get_context("fork"),
    )
    try:
        futures = {
            span: pool.submit(verify_range, *span, selected, residue_samples, seed)
            for span in reversed(spans)
        }
        try:
            parts = [futures[span].result() for span in spans]
        except BrokenProcessPool:
            wait(futures.values())
            lost = [span for span, future in futures.items() if future.exception()]
            raise ChildProcessError(
                "a verify worker process died; rows "
                + ", ".join(f"{lo}..{hi}" for lo, hi in _merged(sorted(lost)))
                + " were not checked"
            ) from None
    finally:
        pool.shutdown(cancel_futures=True)

    return VerifyReport(
        n_from=n_from,
        n_to=n_to,
        seed=seed,
        residue_samples=residue_samples,
        checks=selected,
        results=[result for part in parts for result in part.results],
    )


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
    fmt = {"jsonlines": "jsonl"}.get(fmt, fmt)
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


#: Sub-ranges per worker: with more spans than workers, a span that runs
#: slower than estimated does not leave the other workers idle at the end.
_SPANS_PER_WORKER = 4


def _balanced_spans(n_from: int, n_to: int, count: int) -> list[tuple[int, int]]:
    """Cut [n_from, n_to] into at most `count` contiguous (lo, hi) spans.

    Each carries about the same estimated work, taking a row's cost as
    (n + 1)**2: on a 0..300 sweep that gave more even span times than
    exponents 1.5 and 2.5. Only the speed depends on the cut.
    """
    total = sum((n + 1) ** 2 for n in range(n_from, n_to + 1))
    spans = []
    lo, done = n_from, 0
    for n in range(n_from, n_to):
        done += (n + 1) ** 2
        if done * count >= total * (len(spans) + 1):
            spans.append((lo, n))
            lo = n + 1
    spans.append((lo, n_to))
    return spans


def _merged(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Join sorted (lo, hi) spans that touch into one."""
    out = [spans[0]]
    for lo, hi in spans[1:]:
        if lo == out[-1][1] + 1:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _validated_checks(checks: Sequence[str] | None) -> tuple[str, ...]:
    if checks is None:
        return CHECK_NAMES
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
    # which checks are enabled.
    rng = random.Random(seed * 1_000_003 + n)
    values = {1, n + 1}
    for _ in range(residue_samples):
        values.add(rng.randint(1, n + 1))
    return sorted(values)


class _RowFacts:
    """What the checks read about row n; each fact is built on first use, once."""

    def __init__(self, n: int, additive_row: Row | None):
        self.n = n
        self.geometry = rowgen.theta(n)
        self.additive_row = additive_row

    @cached_property
    def power_row(self) -> Row:
        return rowgen.row_via_power(self.n)

    @cached_property
    def oracle_row(self) -> Row:
        return rowgen.oracle_row(self.n)


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
    if residue.remainder != residue.truncated_sum:
        yield residue.r, str(residue.truncated_sum), str(residue.remainder)


def _leading_block(facts, residue):
    if residue.remainder != residue.truncated_sum:
        yield residue.r, str(residue.truncated_sum), str(residue.remainder)
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


def _row_sum(facts):
    total = BigNat(0)
    for coefficient in facts.power_row.coefficients:
        total = total + coefficient
    expected = BigNat(2).pow(facts.n)
    if total != expected:
        yield None, str(expected), str(total)


def _weighted_sum_11(facts):
    # sum(C(n, k) * 10**k): the row's blocks at width 1, carries and all.
    value = BigNat.from_blocks(facts.oracle_row.coefficients, 1)
    expected = BigNat(11).pow(facts.n)
    if value != expected:
        yield None, str(expected), str(value)


_ROW_CHECKS = {
    "row_equality": _row_equality,
    "digit_length": _digit_length,
    "symmetry": _symmetry,
    "row_sum": _row_sum,
    "weighted_sum_11": _weighted_sum_11,
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
