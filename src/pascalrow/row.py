"""Row record and row-index rule shared by the generator and the oracles."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .bignat import RADIX, BigNat, _int_at_least


class Method(enum.Enum):
    """How a row was produced."""

    POWER_PARTITION = "power_partition"
    MULTIPLICATIVE = "multiplicative"
    RECURRENCE = "recurrence"


@dataclass(frozen=True)
class Row:
    """Coefficients C(n, 0) .. C(n, n) of one row, in natural order.

    ``n`` is the exponent convention: ``row 9`` is the ten coefficients of
    (x + y)**9. The method tag records provenance and is excluded from
    equality so rows from different generators compare by value.
    """

    n: int
    coefficients: tuple[BigNat, ...]
    method: Method = field(compare=False)

    def __post_init__(self):
        if len(self.coefficients) != self.n + 1:
            raise ValueError(
                f"row {self.n} needs {self.n + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )


def row_index(n: int) -> int:
    """n as a Python int, refused unless 0 <= n < RADIX.

    The integer-argument guard (a float raises TypeError) plus the reach of
    the scalar steps: the oracle's mul_small and divmod_small by n - j and
    j + 1, and theta's prime factors up to n, are single limbs only below
    RADIX.
    """
    n = _int_at_least(n, 0, "row index")
    if n >= RADIX:
        raise ValueError(f"row index {n} too large for scalar recurrence steps")
    return n
