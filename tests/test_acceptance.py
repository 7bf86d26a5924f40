"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance here is exact (integer equality).
"""

import hashlib
import io
import random
import time

import pytest

from pascalrow import bignat, oracle, rowgen, verify_bench
from pascalrow.bignat import BigNat, mul_quadratic, mul_subquadratic, pow10
from pascalrow.row import Method

POWER_GOLDENS = [
    (11, 4, "14641"),
    (11, 5, "161051"),
    (11, 6, "1771561"),
    (101, 5, "10510100501"),
    (101, 9, "1093685272684360901"),
    (1001, 9, "1009036084126126084036009001"),
    (1001, 10, "1010045120210252210120045010001"),
    (
        10001,
        15,
        "1001501050455136530035005643564355005300313650455010500150001",
    ),
    (
        100001,
        16,
        "100016001200056001820043680800811440128701144008008043680182000560001200001600001",
    ),
]

THETA_GOLDENS = [(9, 2), (10, 2), (15, 3), (16, 4), (51, 14)]

ROW_15 = [1, 15, 105, 455, 1365, 3003, 5005, 6435,
          6435, 5005, 3003, 1365, 455, 105, 15, 1]


def _report(index: int, text: str) -> None:
    print(f"\nACCEPTANCE {index}: PASS - {text}")


@pytest.fixture(scope="module")
def full_sweep():
    """The 0..300 sweep shared by criteria 5 and 6, with its wall time."""
    started = time.perf_counter()
    report = verify_bench.verify_range(0, 300, residue_samples=5, seed=0)
    elapsed = time.perf_counter() - started
    return report, elapsed


def test_criterion_1_golden_powers():
    started = time.perf_counter()
    for base, exponent, expected in POWER_GOLDENS:
        assert BigNat(base).pow(exponent).to_decimal() == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"9 golden powers byte-exact in {elapsed:.3f}s")


def test_criterion_2_golden_theta():
    started = time.perf_counter()
    for n, expected in THETA_GOLDENS:
        assert rowgen.theta(n).theta == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, f"theta(9,10,15,16,51) = 2,2,3,4,14 in {elapsed:.3f}s")


def test_criterion_3_row_15_listing():
    row = rowgen.row_via_power(15)
    assert row.method is Method.POWER_PARTITION
    assert [c.to_int() for c in row.coefficients] == ROW_15
    _report(3, "row 15 matches the published listing via power partition")


def test_criterion_4_row_51_showcase():
    started = time.perf_counter()
    power = rowgen.power_integer(51)
    assert power.digit_count() == 766 == 51 * 15 + 1
    blocks = rowgen.partition_blocks(power, 15, 52)
    assert blocks[25] == BigNat(247959266474052)
    assert blocks[26] == BigNat(247959266474052)
    assert rowgen.row_via_power(51) == oracle.row_multiplicative(51)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(4, f"766-digit power, twin central blocks, oracle row equal in {elapsed:.3f}s")


def test_criterion_5_full_range_sweep(full_sweep):
    report, elapsed = full_sweep
    assert [result.n for result in report.results] == list(range(301))
    for name in ("row_equality", "digit_length", "residue_identity",
                 "leading_block", "lemma1_bound"):
        failed = [r.n for r in report.results if not r.checks[name]]
        assert not failed, f"{name} failed at n={failed}"
    # spot-check the literal three-way API on a few rows
    for n in (0, 1, 2, 17, 64):
        assert (
            rowgen.row_via_power(n).coefficients
            == oracle.row_multiplicative(n).coefficients
            == oracle.row_recurrence(n).coefficients
        )
    # The seeded reports are pinned byte for byte.
    for fmt, digest in (
        ("jsonl", "5ce6c6ce5bbe01d7f3f5db94ba1eb3c0"),
        ("csv", "64e7f69cbd702c975fee9c648b50b927"),
    ):
        buffer = io.StringIO()
        verify_bench.emit_report(report, fmt, buffer)
        assert hashlib.md5(buffer.getvalue().encode()).hexdigest() == digest, fmt
    assert elapsed < 60.0
    _report(5, f"0..300 sweep (equality, digit law, residues, leading blocks, "
               f"bound) in {elapsed:.1f}s")


def test_criterion_6_property_suites(full_sweep):
    report, _ = full_sweep
    for name in ("symmetry", "row_sum", "weighted_sum_11"):
        failed = [r.n for r in report.results if not r.checks[name]]
        assert not failed, f"{name} failed at n={failed}"
    _report(6, "symmetry, row sum 2^n and weighted sum 11^n hold for n in 0..300")


def test_criterion_7_arithmetic_engine():
    rng = random.Random(20260810)
    started = time.perf_counter()

    for _ in range(1000):
        length = rng.randint(1, 500)
        text = "".join(rng.choice("0123456789") for _ in range(length))
        assert BigNat.from_decimal(text).to_decimal() == (text.lstrip("0") or "0")

    threshold_digits = bignat.karatsuba_threshold() * bignat.RADIX_DIGITS
    for _ in range(500):
        a = rng.randrange(10 ** rng.randint(1, 3 * threshold_digits))
        b = rng.randrange(10 ** rng.randint(1, 3 * threshold_digits))
        assert mul_quadratic(BigNat(a), BigNat(b)) == mul_subquadratic(
            BigNat(a), BigNat(b)
        )

    for _ in range(500):
        x = BigNat(rng.randrange(10 ** rng.randint(1, 600)))
        k = rng.randint(0, 700)
        quotient, remainder = x.split_pow10(k)
        assert quotient * pow10(k) + remainder == x
        assert remainder.compare(pow10(k)) == -1

    elapsed = time.perf_counter() - started
    _report(7, f"1000 round trips, 500 path-agreement pairs, 500 splits "
               f"in {elapsed:.1f}s")


def test_criterion_8_benchmark_report():
    started = time.perf_counter()
    records = verify_bench.bench_methods(100, 1000, step=100, repetitions=5)
    elapsed = time.perf_counter() - started

    assert len(records) == 30
    assert {r.method for r in records} == set(Method)
    assert sorted({r.n for r in records}) == list(range(100, 1001, 100))

    buffer = io.StringIO()
    verify_bench.emit_report(records, "csv", buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == verify_bench.BENCH_CSV_HEADER
    assert len(lines) == 31
    assert all(len(line.split(",")) == 6 for line in lines[1:])
    # Exact operation counts, in CSV order (power, multiplicative, recurrence
    # per n): the powering order may change, the number of products may not.
    # The power method counts one mul_small per packed prime factor of
    # C(n, n//2) (theta) plus the pow products, bit_length - 1 squarings
    # and popcount - 1 products by the base: at n=100, 5 factors plus 8.
    assert [r.big_mul_count for r in records] == [
        13, 100, 0,
        18, 200, 0,
        27, 300, 0,
        32, 400, 0,
        41, 500, 0,
        45, 600, 0,
        52, 700, 0,
        54, 800, 0,
        60, 900, 0,
        66, 1000, 0,
    ]

    # bench_methods raises on cross-method disagreement, so reaching here
    # means rows agreed; the additive method should also grow with n.
    # Adjacent sizes can sit within host noise of each other, so each n is
    # compared with 2n, where the true gap is about three times or more.
    additive = {
        r.n: r.median_wall_time_ns for r in records if r.method is Method.RECURRENCE
    }
    assert all(additive[n] < additive[2 * n] for n in range(100, 501, 100))
    assert elapsed < 120.0
    _report(8, f"30-record benchmark CSV, methods agree, in {elapsed:.1f}s")
