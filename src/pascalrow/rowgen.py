"""Row generation by digit-partitioning powers of 10**(theta+1) + 1.

Write w = theta + 1 for the digit count of the central coefficient
C(n, n // 2). The integer (10**w + 1)**n then carries the entire row n in
its decimal digits: the r-th block of w digits from the right is exactly
C(n, r-1), because every coefficient fits in w digits so no block ever
carries into its neighbour. This module computes theta exactly, from the
prime factorisation of C(n, n // 2) and never via floating logarithms,
raises the base to the n-th power, slices blocks,
and exposes the no-carry bound and the truncated-sum residue identity as
executable checks.

The truncated sums come from one lay-down, BigNat.from_block_matrix of
the oracle's coefficients at the block width. Lemma 1's proof is what
makes one lay-down serve every block count: each coefficient is at most
10**w - 1, so the sum of the first r blocks is at most
sum((10**w - 1) * 10**(i * w) for i < r) = 10**(r * w) - 1. It never
reaches the next block, so it is the low r * w digits of the whole row
laid down, which for a right row is the power itself. One digit
comparison of the lay-down with the power (BigNat.first_unequal_digit)
therefore settles the identity for every r (see unsettled_residues).
Width 0 of the lay-down is the plain sum of the rows, the row read at
x = 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import oracle
from .bignat import RADIX, RADIX_DIGITS, BigNat, pow10
from .row import Method, Row, row_index

_ONE = BigNat(1)


@dataclass(frozen=True)
class ThetaResult:
    """Block geometry for one row index."""

    n: int
    theta: int
    block_width: int


class ResidueMismatchError(ArithmeticError):
    """The low digit blocks of the power stopped matching the binomial sum.

    Cannot happen while the block width equals the central coefficient's
    digit count; raised only if a block overflowed into its neighbour.
    """

    def __init__(self, n: int, r: int, expected: str, actual: str):
        self.n = n
        self.r = r
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"residue of {r} block(s) for row {n}: "
            f"expected {expected}, got {actual}"
        )


@lru_cache(maxsize=1)
def theta(n: int) -> ThetaResult:
    """Zeros to insert between the ones of eleven so row n fits its blocks.

    Exactly one less than the digit count of C(n, n // 2), computed from
    the coefficient itself so there is no rounding boundary to guard. The
    coefficient comes from its prime factorisation (central_coefficient),
    not from the oracle's recurrence, so the verify sweep's oracle row is
    an independent check of it. n is taken through row.row_index
    (operator.index and the bounds 0 <= n < RADIX), so the result's n is a
    Python int.
    """
    n = row_index(n)
    width = central_coefficient(n).digit_count()
    return ThetaResult(n=n, theta=width - 1, block_width=width)


def central_coefficient(n: int) -> BigNat:
    """C(n, n // 2) as the product of its prime factorisation.

    One mul_small per packed factor (see _central_factors); no division.
    Every factor is a single-limb scalar only while every prime is, so n
    must stay below RADIX, the same bound as the oracle's scalar steps
    (row.row_index).
    """
    value = _ONE
    for factor in _central_factors(row_index(n)):
        value = value.mul_small(factor)
    return value


def _central_factors(n: int) -> list[int]:
    # The primes of C(n, k), k = n // 2, packed greedily, primes ascending,
    # into factors below RADIX. Prime p enters e_p times, where by
    # Legendre's formula e_p = sum over i of
    # n // p**i - k // p**i - (n - k) // p**i.
    k = n // 2
    factors = []
    factor = 1
    for p in _primes_to(n):
        exponent = 0
        power = p
        while power <= n:
            exponent += n // power - k // power - (n - k) // power
            power *= p
        for _ in range(exponent):
            if factor * p >= RADIX:
                factors.append(factor)
                factor = 1
            factor *= p
    if factor > 1:
        factors.append(factor)
    return factors


def _primes_to(n: int) -> list[int]:
    # The primes p <= n, by the sieve of Eratosthenes.
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, prime in enumerate(sieve) if prime]


def eleven_variant(geometry: ThetaResult) -> BigNat:
    """The base 10**(theta+1) + 1: a one, theta zeros, a one."""
    return pow10(geometry.block_width) + _ONE


@lru_cache(maxsize=1)
def power_integer(n: int) -> BigNat:
    """(10**(theta+1) + 1)**n, the integer whose digit blocks hold row n."""
    return eleven_variant(theta(n)).pow(n)


def partition_blocks(x: BigNat, width: int, expected: int) -> list[BigNat]:
    """Slice x into `expected` blocks of `width` digits, rightmost first.

    Blocks above the leading digit come out as zero. Raises ValueError for
    a width or count below 1, or when x has more than expected * width
    digits.
    """
    return x.to_blocks(width, expected)


def row_via_power(n: int) -> Row:
    """Row n read off the digit blocks of the power integer: C(n, k) is block k."""
    # One int key for both caches: theta(np.int64(6)) and theta(6) differ.
    n = row_index(n)
    geometry = theta(n)
    blocks = partition_blocks(power_integer(n), geometry.block_width, n + 1)
    return Row(n=n, coefficients=tuple(blocks), method=Method.POWER_PARTITION)


def generate_row(method: Method, n: int) -> Row:
    """Row n by the given method: the power partition or one of the oracles."""
    if method is Method.POWER_PARTITION:
        return row_via_power(n)
    if method is Method.MULTIPLICATIVE:
        return oracle.row_multiplicative(n)
    return oracle.row_recurrence(n)


@dataclass(frozen=True)
class Residue:
    """The r lowest digit blocks of row n's power beside the sum they must equal.

    `remainder` is the power modulo 10**(r * width), a slice of its low digits;
    `truncated_sum` is sum(C(n, i) * 10**(i * width) for i < r), assembled
    independently from oracle coefficients. The residue identity, the
    leading block and the no-carry bound are all read off these two.
    """

    n: int
    r: int
    width: int
    remainder: BigNat
    truncated_sum: BigNat

    @property
    def leading_block(self) -> BigNat:
        """Top block of the sum; equals C(n, r-1) by the no-carry bound."""
        return self.truncated_sum.high_digits((self.r - 1) * self.width)

    @property
    def within_bound(self) -> bool:
        """Lemma 1: the sum stays strictly below 10**(r * width).

        Judged on the oracle-built sum, not on the remainder (which is below
        the modulus by construction), so a broken width reports false.
        """
        return self.truncated_sum.digit_count() <= self.r * self.width

    def checked(self) -> "Residue":
        """Self, or ResidueMismatchError if the remainder differs from the sum."""
        if mismatch := self.mismatch:
            raise ResidueMismatchError(self.n, self.r, *mismatch)
        return self

    @property
    def mismatch(self) -> tuple[str, str] | None:
        """(expected, actual) as decimal text if the remainder is not the sum."""
        if self.remainder == self.truncated_sum:
            return None
        return str(self.truncated_sum), str(self.remainder)


def unsettled_residues(
    power: BigNat, matrix: np.ndarray, rs: Sequence[int]
) -> list[Residue]:
    """The residues of row n that a check must look at, for the block counts rs.

    `power` is row n's power and `matrix` the multiplicative oracle's row n
    as a limb matrix, one coefficient per matrix row (as
    oracle.iter_multiplicative_matrices yields it). Every r in `rs` must
    lie in 1..n + 1; `rs` is checked before anything is built.

    While every coefficient is below 10**width (checked on the matrix), the
    row laid down once at the block width settles every r with one digit
    comparison. By Lemma 1's proof each block is at most 10**width - 1, so
    the sum of the first r blocks is at most 10**(r * width) - 1: no block
    carries, the bound holds, and that truncated sum is the low r * width
    digits of the one lay-down. So the identity holds for r exactly when
    r * width is at most the number of low digits the lay-down and the
    power share (BigNat.first_unequal_digit), and only the r past that get
    a Residue, both sides read off the two numbers. A row with a wider
    coefficient gets a Residue for every r, its truncated sum laid down
    exactly from the matrix's first r rows, so the bound and the details
    report what the blocks really sum to.
    """
    n = len(matrix) - 1
    width = theta(n).block_width
    for r in rs:
        _check_block_count(n, r)
    if not _below_pow10(matrix, width):
        return [_residue(n, r, width, power, matrix) for r in rs]
    laid = BigNat.from_block_matrix(matrix, width)
    shared = power.first_unequal_digit(laid)
    if shared is None:
        return []
    return [
        Residue(n, r, width, power.low_digits(r * width), laid.low_digits(r * width))
        for r in rs
        if r * width > shared
    ]


def _residue(n: int, r: int, width: int, power: BigNat, matrix: np.ndarray) -> Residue:
    # The r lowest blocks of the power beside the matrix's first r rows laid
    # down at the width: exact, carries included.
    return Residue(
        n, r, width, power.low_digits(r * width), BigNat.from_block_matrix(matrix[:r], width)
    )


def _check_block_count(n: int, r: int) -> None:
    if not 1 <= r <= n + 1:
        raise ValueError(f"block count r={r} outside 1..{n + 1} for row {n}")


def _below_pow10(matrix: np.ndarray, digits: int) -> bool:
    # Every row of a limb matrix holds a number below 10**digits.
    whole, part = divmod(digits, RADIX_DIGITS)
    if whole >= matrix.shape[1]:
        return True
    return not matrix[:, whole + 1 :].any() and bool((matrix[:, whole] < 10**part).all())


def residue(n: int, r: int) -> Residue:
    """Both sides of the r-block residue identity for row n.

    The oracle side runs the within-row recurrence only up to C(n, r-1)
    and lays those r coefficients down once, exact at any width; the
    power's side is its low r * width digits.
    """
    n, r = row_index(n), operator.index(r)
    _check_block_count(n, r)
    matrix = BigNat.to_limb_rows(tuple(oracle._multiplicative(n, r - 1)))
    return _residue(n, r, theta(n).block_width, power_integer(n), matrix)


def residue_partial_sum(n: int, r: int) -> BigNat:
    """The r lowest digit blocks of the power, cross-checked both ways.

    Raises ResidueMismatchError unless the power's remainder modulo
    10**(r * (theta+1)) equals the truncated binomial sum.
    """
    return residue(n, r).checked().remainder


def leading_block_of_residue(n: int, r: int) -> BigNat:
    """Top block of the r-block residue; equals C(n, r-1) by the no-carry bound."""
    return residue(n, r).checked().leading_block


def lemma1_bound_check(n: int, r: int) -> bool:
    """True when the r lowest binomial terms sum strictly below 10**(r*(theta+1)).

    This is the no-carry condition that keeps the digit blocks disjoint.
    """
    return residue(n, r).within_bound


def clear_caches() -> None:
    """Drop the memoized geometry and power (used by benchmarks and tests).

    Each cache holds one row, the last one asked for: it serves the several
    reads of the row in hand and nothing older. Clearing makes the next
    call pay full cost.
    """
    theta.cache_clear()
    power_integer.cache_clear()

