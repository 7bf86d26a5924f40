"""Every integer-argument guard, with the exact message it raises.

Each entry point states its bound the same way, "<what> must be >= <least>,
got <value>", and a row index above the scalar steps' reach names itself.
Generators are advanced once, so the message is pinned wherever the check
runs.
"""

import numpy as np
import pytest

from pascalrow import oracle, rowgen
from pascalrow.bignat import RADIX, BigNat, pow10
from pascalrow.verify_bench import bench_methods, verify_range, verify_range_parallel

TOO_LARGE = "row index 10000000 too large for scalar recurrence steps"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: BigNat(5).to_blocks(0, 1), "block width must be >= 1, got 0"),
        (lambda: BigNat(5).to_blocks(1, 0), "block count must be >= 1, got 0"),
        (lambda: BigNat.from_block_matrix([[1]], -1), "block width must be >= 0, got -1"),
        (lambda: BigNat(2).pow(-1), "exponent must be >= 0, got -1"),
        (lambda: pow10(np.int64(-3)), "exponent must be >= 0, got -3"),
        (lambda: BigNat(5).low_digits(-1), "split point must be >= 0, got -1"),
        (lambda: BigNat(5).high_digits(np.int64(-2)), "split point must be >= 0, got -2"),
        (lambda: next(oracle.iter_recurrence_rows(-1)), "row index must be >= 0, got -1"),
        (lambda: oracle.iter_multiplicative_matrices(-1), "row index must be >= 0, got -1"),
        (lambda: oracle.iter_multiplicative_matrices(RADIX), TOO_LARGE),
        (lambda: oracle.row_multiplicative(-1), "row index must be >= 0, got -1"),
        (lambda: oracle.row_multiplicative(RADIX), TOO_LARGE),
        (lambda: oracle.central_digit_count(-1), "row index must be >= 0, got -1"),
        (lambda: oracle.central_digit_count(RADIX), TOO_LARGE),
        (lambda: oracle.binomial(RADIX, 1), TOO_LARGE),
        (lambda: rowgen.theta(-1), "row index must be >= 0, got -1"),
        (lambda: rowgen.theta(RADIX), TOO_LARGE),
        (lambda: rowgen.central_coefficient(-1), "row index must be >= 0, got -1"),
        (lambda: rowgen.central_coefficient(RADIX), TOO_LARGE),
        (lambda: rowgen.row_via_power(-1), "row index must be >= 0, got -1"),
        (lambda: rowgen.row_via_power(RADIX), TOO_LARGE),
        (lambda: bench_methods(-1, 3), "need 0 <= n_from <= n_to, got -1..3"),
        (lambda: bench_methods(3, 2), "need 0 <= n_from <= n_to, got 3..2"),
        (lambda: bench_methods(0, 1, step=0), "step must be >= 1, got 0"),
        (lambda: bench_methods(0, 1, repetitions=0), "repetitions must be >= 1, got 0"),
        (lambda: verify_range(-1, 3), "need 0 <= n_from <= n_to, got -1..3"),
        (lambda: verify_range_parallel(3, 2), "need 0 <= n_from <= n_to, got 3..2"),
        (lambda: verify_range(0, 3, residue_samples=0), "residue_samples must be >= 1, got 0"),
        (lambda: verify_range(RADIX - 1, RADIX), TOO_LARGE),
        (lambda: verify_range_parallel(0, RADIX), TOO_LARGE),
        (lambda: bench_methods(RADIX - 1, RADIX), TOO_LARGE),
    ],
    ids=[
        "to_blocks-width", "to_blocks-count", "from_block_matrix-width", "pow",
        "pow10", "low_digits", "high_digits", "iter_recurrence_rows-start",
        "iter_multiplicative_matrices-negative",
        "iter_multiplicative_matrices-too-large", "row_multiplicative-negative",
        "row_multiplicative-too-large", "central_digit_count-negative",
        "central_digit_count-too-large", "binomial-too-large", "theta-negative",
        "theta-too-large", "central_coefficient-negative",
        "central_coefficient-too-large", "row_via_power-negative",
        "row_via_power-too-large", "bench_methods-negative-from",
        "bench_methods-reversed", "bench_methods-step", "bench_methods-repetitions",
        "verify_range-negative-from", "verify_range_parallel-reversed",
        "verify_range-residue_samples", "verify_range-too-large",
        "verify_range_parallel-too-large", "bench_methods-too-large",
    ],
)  # fmt: skip
def test_guard_messages(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
