"""Any row of Pascal's triangle from one big power, with its own arithmetic.

The central coefficient of row n has w = theta + 1 decimal digits; the
integer (10**w + 1)**n then spells out the whole row in w-digit blocks.
This package provides the arbitrary-precision arithmetic, the block
construction, two independent oracles, a verification sweep and a
benchmark harness around that fact.
"""

import os as _os
import sys as _sys

# pascalrow makes no BLAS call: its numpy work is int64 convolve, integer
# divmod and uint32 limb shifts, all numpy's own loops. Yet numpy's
# bundled OpenBLAS starts a helper thread per extra CPU at import, and each
# spins for its default 2**28 cycles before it sleeps: about a third of a
# small request's CPU. The shortest timeout removes the spin and, unlike
# OPENBLAS_NUM_THREADS=1, leaves a library caller's BLAS multithreaded. The
# variable is read once, when numpy loads OpenBLAS, so it is removed again
# at once, and a caller's own value or earlier numpy import is left alone.
if "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .bignat import (
    BigNat,
    DEFAULT_KARATSUBA_THRESHOLD,
    karatsuba_threshold,
    mul_counter,
    mul_quadratic,
    mul_subquadratic,
    pow10,
    reset_mul_counter,
    set_karatsuba_threshold,
)
from .oracle import (
    binomial,
    central_digit_count,
    iter_recurrence_rows,
    row_multiplicative,
    row_recurrence,
)
from .row import Method, Row
from .rowgen import (
    ResidueMismatchError,
    ThetaResult,
    eleven_variant,
    lemma1_bound_check,
    leading_block_of_residue,
    partition_blocks,
    power_integer,
    residue_partial_sum,
    row_via_power,
    theta,
)
from .verify_bench import (
    BENCH_CSV_HEADER,
    BenchRecord,
    CHECK_NAMES,
    CheckFailure,
    RowVerification,
    VerifyReport,
    bench_methods,
    emit_report,
    verify_range,
)

__version__ = "0.1.0"

__all__ = [
    "BENCH_CSV_HEADER",
    "BenchRecord",
    "BigNat",
    "CHECK_NAMES",
    "CheckFailure",
    "DEFAULT_KARATSUBA_THRESHOLD",
    "Method",
    "ResidueMismatchError",
    "Row",
    "RowVerification",
    "ThetaResult",
    "VerifyReport",
    "bench_methods",
    "binomial",
    "central_digit_count",
    "eleven_variant",
    "emit_report",
    "iter_recurrence_rows",
    "karatsuba_threshold",
    "leading_block_of_residue",
    "lemma1_bound_check",
    "mul_counter",
    "mul_quadratic",
    "mul_subquadratic",
    "partition_blocks",
    "pow10",
    "power_integer",
    "reset_mul_counter",
    "residue_partial_sum",
    "row_multiplicative",
    "row_recurrence",
    "row_via_power",
    "set_karatsuba_threshold",
    "theta",
    "verify_range",
]
