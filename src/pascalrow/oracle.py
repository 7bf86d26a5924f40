"""Ground-truth binomial coefficients, independent of the power pipeline.

Two derivations that share no code with the power-partition generator:
the multiplicative recurrence C(n, j+1) = C(n, j) * (n-j) / (j+1) with
exact division at every step, and the additive rule that builds each row
from the previous one. They validate each other and the generator.

Both also step a whole row as one int64 matrix of base-10**7 limbs, one
coefficient per matrix row, and share no code in doing so. The additive
rule uses vectorised additions and carries only: it multiplies nothing
and calls none of the product code. The multiplicative rule steps row n
to row n + 1 by C(n+1, k) = C(n, k) * (n+1) / (n+1-k): a scalar product
of every coefficient at once, then an exact long division of each by its
own divisor, every remainder checked. row_multiplicative and binomial
(and so ``pascalrow row --method mult``) keep the within-row recurrence
on BigNat.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

from .bignat import RADIX, BigNat, _int_at_least
from .row import Method, Row, row_index

_ONE = BigNat(1)


def binomial(n: int, k: int) -> BigNat:
    """Exact C(n, k) via the multiplicative recurrence."""
    n = operator.index(n)
    if not 0 <= k <= n:
        raise ValueError(f"binomial needs 0 <= k <= n, got n={n} k={k}")
    for value in _multiplicative(row_index(n), min(k, n - k)):
        pass
    return value


def row_multiplicative(n: int) -> Row:
    """Whole row in one left-to-right pass of the multiplicative recurrence."""
    n = row_index(n)
    return Row(
        n=n, coefficients=tuple(_multiplicative(n, n)), method=Method.MULTIPLICATIVE
    )


def iter_recurrence_rows(start: int = 0, step: int = 1) -> Iterator[Row]:
    """Yield rows start, start + step, start + 2*step, ... by the additive rule.

    The rows of iter_recurrence_matrices(start, step), each turned into
    BigNat coefficients only when it is yielded, so rows before `start`
    and between yields are never converted. Sweeps over many rows should
    consume this iterator rather than call row_recurrence per index, which
    restarts from the apex. The arguments are checked at the call, before
    the first row is asked for.
    """
    return (
        Row(
            n=len(matrix) - 1,
            coefficients=tuple(BigNat.from_limb_rows(matrix)),
            method=Method.RECURRENCE,
        )
        for matrix in iter_recurrence_matrices(start, step)
    )


def iter_recurrence_matrices(start: int = 0, step: int = 1) -> Iterator[np.ndarray]:
    """Yield rows start, start + step, ... by the additive rule, as limb matrices.

    Row n is an (n+1) x L int64 matrix, one coefficient per matrix row as
    little-endian base-RADIX limbs, L the central coefficient's limb
    count. Every row from the apex on is stepped (see _next_limb_matrix)
    with additions and carries only. The arguments are checked at the
    call, before the first row is asked for.
    """
    start = _int_at_least(start, 0, "row index")
    return _recurrence_matrices(start, _int_at_least(step, 1, "step"))


def _recurrence_matrices(start: int, step: int) -> Iterator[np.ndarray]:
    matrix = np.ones((1, 1), dtype=np.int64)
    for _ in range(start):
        matrix = _next_limb_matrix(matrix)
    while True:
        yield matrix
        for _ in range(step):
            matrix = _next_limb_matrix(matrix)


def iter_multiplicative_matrices(start: int = 0) -> Iterator[np.ndarray]:
    """Yield rows start, start + 1, ... by the multiplicative rule, as limb matrices.

    The same layout as iter_recurrence_matrices. Row `start` is the
    within-row recurrence's numbers, packed once by BigNat.to_limb_rows;
    each later row is stepped from the one before (see
    _next_multiplicative_matrix), so a sweep pays one vectorised step per
    row instead of n scalar steps. `start` is checked at the call, and
    each row index as it is reached, against row.row_index.
    """
    return _multiplicative_matrices(row_index(start))


def _multiplicative_matrices(n: int) -> Iterator[np.ndarray]:
    matrix = BigNat.to_limb_rows(tuple(_multiplicative(n, n))).astype(np.int64)
    while True:
        yield matrix
        n = row_index(n + 1)
        matrix = _next_multiplicative_matrix(matrix, n)


def row_recurrence(n: int) -> Row:
    """Row n by the additive rule, built from row 0 upward."""
    return next(iter_recurrence_rows(n))


def central_digit_count(n: int) -> int:
    """Decimal digits of the largest coefficient in row n, C(n, n//2)."""
    n = row_index(n)
    return binomial(n, n // 2).digit_count()


def _multiplicative(n: int, k: int) -> Iterator[BigNat]:
    # C(n, 0), C(n, 1), ..., C(n, k) by C(n, j+1) = C(n, j) * (n-j) / (j+1),
    # every division exact. binomial and row_multiplicative are this one
    # recurrence run to k and to n; both pass n through row_index first.
    value = _ONE
    yield value
    for j in range(k):
        value, remainder = value.mul_small(n - j).divmod_small(j + 1)
        if remainder:
            raise ArithmeticError(
                f"inexact division by {j + 1} in binomial recurrence"
            )
        yield value


def _next_limb_matrix(matrix: np.ndarray) -> np.ndarray:
    # The matrix added to itself shifted one row down (C(n+1, k) =
    # C(n, k-1) + C(n, k)), with one spare limb column; then, until no limb
    # is >= RADIX, every such limb gives RADIX to the limb above. A sum of
    # two limbs plus a carry is below 2 * RADIX, so each pass leaves only
    # carries of one, and no limb ever leaves int64. The spare column is
    # dropped while it is zero.
    rows, limbs = matrix.shape
    following = np.zeros((rows + 1, limbs + 1), dtype=np.int64)
    following[:-1, :-1] = matrix
    following[1:, :-1] += matrix
    while True:
        over = following >= RADIX
        if not over.any():
            break
        following -= over * RADIX
        following[:, 1:] += over[:, :-1]
    return following if following[:, -1].any() else following[:, :-1]


def _next_multiplicative_matrix(matrix: np.ndarray, n: int) -> np.ndarray:
    # Row n from row n - 1: C(n, k) = C(n-1, k) * n / (n - k) for k < n, and
    # C(n, n) = 1, with one spare limb column, dropped while it is zero.
    # Both passes run over the limb columns, each column one numpy step for
    # every coefficient at once, and stay in int64 because n < RADIX:
    # bottom up, a limb times n plus a carry below n is below RADIX**2;
    # top down, a remainder below its divisor n - k times RADIX, plus a
    # limb, is too, and each quotient limb is below RADIX.
    rows, limbs = matrix.shape
    following = np.zeros((rows + 1, limbs + 1), dtype=np.int64)
    carry = np.zeros(rows, dtype=np.int64)
    for j in range(limbs):
        carry, following[:-1, j] = np.divmod(matrix[:, j] * n + carry, RADIX)
    following[:-1, limbs] = carry
    divisors = n - np.arange(rows, dtype=np.int64)
    remainder = np.zeros(rows, dtype=np.int64)
    for j in range(limbs, -1, -1):
        following[:-1, j], remainder = np.divmod(
            remainder * RADIX + following[:-1, j], divisors
        )
    if remainder.any():
        k = int(np.flatnonzero(remainder)[0])
        raise ArithmeticError(
            f"inexact division by {n - k} in multiplicative step to row {n}"
        )
    following[-1, 0] = 1
    return following if following[:, -1].any() else following[:, :-1]
