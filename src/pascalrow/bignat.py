"""Arbitrary-precision natural numbers with decimal-friendly limbs.

Values are immutable tuples of base-10**7 limbs, least significant limb
first, with no leading zero limbs (zero is the empty tuple). Keeping the
radix a power of ten makes splitting at a power of ten a digit slice
instead of a division loop, which is the hot operation downstream.
``to_blocks`` cuts a number into fixed-width digit blocks and
``from_blocks`` is its inverse, so callers work in digits and blocks and
never in limbs. ``block_matrix`` is the cut itself: ``high_digits``'s
limb shift applied to every block at once in numpy, one limb column of
all blocks per step, with no digit or text in between, giving one row of
limbs per block. ``to_blocks`` is ``from_limb_rows`` of that matrix, the
matrix counterpart of ``from_limbs``: one range check over a whole limb
matrix, then one number per row. ``to_limb_rows`` is its inverse.

There is one lay-down, ``from_block_matrix``: it lays the rows of a limb
matrix at their digit offsets and adds them, carries included, so a row
of blocks is summed without a number per block; ``from_blocks`` is that
of the blocks' limb rows. At width 0 every row sits at offset 0, and the
lay-down is the plain sum of the rows, taken from the matrix's column
sums. ``first_unequal_digit`` finds the lowest digit at which two numbers
differ, so one comparison tells at which digit offsets their low digits
stop agreeing.

Column sums become limbs in one place: a single exact carry pass over
Python-int columns, ``_carried``. It finishes addition, the schoolbook
product and the width-0 lay-down. The int64 columns of the Karatsuba
product and of every lay-down pass at a width above 0 reach it through
one exit, ``_column_limbs``: three vectorised carry steps, then the exact
pass from the first limb still out of range.
The scalar steps ``mul_small`` and ``divmod_small`` keep their own loops:
they are the independent steps of the multiplicative oracle.
Values, limbs, scalars, digit offsets, block widths and counts, and
exponents are all taken through ``operator.index``: a float raises
TypeError, and a numpy integer becomes a Python int. ``BigNat(True)`` is
refused. Digit offsets, block widths and counts, exponents, and the
other modules' steps, counts and row indices go through one guard,
``_int_at_least``: ``operator.index``, then "<what> must be >= <least>,
got <value>" below the bound. ``row.row_index`` adds n < RADIX for a row
index.

Multiplication has two paths that must agree bit-exactly. ``*``,
``mul_quadratic`` and ``mul_subquadratic`` share one entry that counts
the product, returns zero for a zero factor and runs the chosen path:

* a plain schoolbook loop in Python (the quadratic path), used while
  the limb counts of the factors multiply to less than the threshold
  squared (a square switches at the threshold's limb count); the shorter
  factor runs the outer loop, so the zero limbs of a sparse factor such
  as ``10**w + 1`` cost nothing;
* Karatsuba recursion over numpy int64 arrays whose base case is a single
  integer convolution (the subquadratic path), used from that much work
  on. A product whose shorter factor has at most 512 limbs is one such
  convolution, however long the other factor. When both factors are the
  same limb tuple (``x * x``, most of the products in ``pow``) one array
  and one operand sum per node serve both factors; the convolutions are
  the same as for a general product.

``pow`` is left-to-right binary powering: starting from the base, each
remaining exponent bit squares the result and, for a set bit, multiplies
it by the base. That is ``bit_length - 1`` squarings and ``popcount - 1``
products, each of the latter with the small base as one factor: once the
power is long enough, and while the base has at most 512 limbs, that is
one convolution leaf. The number of products is the same as for
right-to-left powering.

Carries in the Karatsuba recursion follow one rule: every node and every
operand sum ends in exactly one vectorised carry step (a floor ``divmod``
by the radix, the quotients added one limb up), a leaf ends in none, and
the top takes three. Limbs may therefore be signed or above the radix;
the middle term ``zm - z0 - z2`` is formed on columns. The int64 bound:
operand limbs lie in ``[0, RADIX + 1]`` (an operand sum ``a0 + a1`` is at
most ``2 * RADIX + 2`` before its carry step and back in that range after
it), so a leaf's raw convolution column of at most 512 products is at
most ``512 * (RADIX + 1)**2 < 5.2e16``. A node writes at most five child
columns, raw leaf or carried node, into one, so its columns stay below
``2.6e17 < 2**63``, and after its carry step it holds limbs in
``[-2.6e10, RADIX + 2.6e10]``. Three carry steps at the top bring either
a single leaf or a node to within one of ``[0, RADIX)``; then the exact
carry pass starts at the first limb still outside that range. No product
of a 0..300 verify sweep has one, but the large squares of ``pow`` at
n=1810 do, near limb 5,300, which leaves the exact pass two thirds of
the limbs of that power's products (figures at ``_column_limbs``). That
pass is linear, so long runs of ``9999999`` limbs cost one sweep, not one
numpy pass per limb of ripple.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Sequence

import numpy as np

RADIX = 10**7
RADIX_DIGITS = 7

#: ``*`` takes the Karatsuba path when the limb counts of its factors
#: multiply to at least this threshold squared, and the schoolbook path
#: below that: a square switches at this many limbs, a product by a short
#: factor once the work is the same.
DEFAULT_KARATSUBA_THRESHOLD = 32

# Base case size for the Karatsuba recursion, in limbs. Must stay small
# enough that five raw leaf columns, each up to min(la, lb) * (RADIX+1)^2,
# fit int64 in one node column.
_CONV_BASE_LIMBS = 512

# Rows that from_block_matrix lays down in one int64 pass: 2**19 * 10**13
# < 2**63 (see there).
_LAY_DOWN_ROWS = 2**19

# 10**0 .. 10**7, the sub-limb shifts and masks of block_matrix and the
# digit offsets of from_block_matrix.
_POW10 = np.array([10**k for k in range(RADIX_DIGITS + 1)], dtype=np.uint32)

_karatsuba_threshold = DEFAULT_KARATSUBA_THRESHOLD

# Instrumentation for the benchmark harness: counts every multiplication
# performed through the public entry points (full products and scalar
# products alike). Not meant for concurrent use.
_mul_ops = 0


def set_karatsuba_threshold(limbs: int) -> None:
    """Set the size T at which multiplication goes subquadratic.

    A product takes the subquadratic path when its limb counts multiply to
    at least T**2. T must be an integer (``operator.index``: a float raises
    TypeError) of at least 2.
    """
    limbs = operator.index(limbs)
    if limbs < 2:
        raise ValueError(f"karatsuba threshold must be an integer >= 2, got {limbs!r}")
    global _karatsuba_threshold
    _karatsuba_threshold = limbs


def karatsuba_threshold() -> int:
    return _karatsuba_threshold


def reset_mul_counter() -> None:
    global _mul_ops
    _mul_ops = 0


def mul_counter() -> int:
    """Number of multiplications since the last reset."""
    return _mul_ops


@functools.total_ordering
class BigNat:
    """An unsigned integer of any size, stored as base-10**7 limbs."""

    __slots__ = ("_limbs",)

    def __init__(self, value: int = 0):
        if not hasattr(value, "__index__") or isinstance(value, bool):
            raise TypeError(f"BigNat takes an int, got {type(value).__name__}")
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"BigNat is unsigned, got {value}")
        limbs = []
        while value:
            value, low = divmod(value, RADIX)
            limbs.append(low)
        self._limbs = tuple(limbs)

    @classmethod
    def _raw(cls, limbs: tuple) -> "BigNat":
        # Internal constructor; caller guarantees canonical limbs.
        out = object.__new__(cls)
        out._limbs = limbs
        return out

    @classmethod
    def from_limbs(cls, limbs: Iterable[int]) -> "BigNat":
        """Build from little-endian limbs; normalizes leading zeros.

        Each limb must be an integer (``operator.index``): a float raises
        TypeError and a numpy integer becomes a Python int.
        """
        # One tuple copy, which _trimmed returns as is unless it ends in
        # zeros.
        limbs = tuple(map(operator.index, limbs))
        for limb in limbs:
            if not 0 <= limb < RADIX:
                raise ValueError(f"limb {limb} out of range for radix {RADIX}")
        return cls._raw(_trimmed(limbs))

    @classmethod
    def from_limb_rows(cls, matrix) -> list["BigNat"]:
        """One number per row of a 2-D integer array of little-endian limbs.

        The matrix counterpart of from_limbs: every limb is range-checked in
        one pass, the first bad one (in row-major order) named in the error,
        and each row loses its leading zero limbs. Each row's list is freed
        once its number is built, so the matrix is never held as Python
        lists beside all the numbers.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or not np.issubdtype(matrix.dtype, np.integer):
            raise ValueError(
                f"limb rows must be a 2-D integer array, got {matrix.ndim}-D "
                f"{matrix.dtype}"
            )
        bad = np.flatnonzero((matrix < 0) | (matrix >= RADIX))
        if bad.size:
            raise ValueError(
                f"limb {matrix.flat[bad[0]]} out of range for radix {RADIX}"
            )
        # Row length without its leading zero limbs: 1 + the index of its
        # highest nonzero limb, 0 for an all-zero row. uint32 positions keep
        # this temporary, which spans a whole cut, at the size of the cut's
        # uint32 matrix rather than twice it.
        positions = np.arange(1, matrix.shape[1] + 1, dtype=np.uint32)
        lengths = np.where(matrix != 0, positions, 0).max(axis=1, initial=0)
        # Rows are popped off the end as their numbers are built.
        rows = matrix.tolist()
        numbers = [
            cls._raw(tuple(rows.pop()[:length])) for length in lengths[::-1].tolist()
        ]
        return numbers[::-1]

    @staticmethod
    def to_limb_rows(numbers: Sequence["BigNat"]) -> np.ndarray:
        """The inverse of from_limb_rows: one uint32 row of limbs per number.

        Rows are little-endian and padded with zero limbs to the longest
        number's length. All the limbs are laid down in one masked
        assignment, in row-major order.
        """
        lengths = np.fromiter(map(len, (x._limbs for x in numbers)), np.intp)
        matrix = np.zeros((len(lengths), lengths.max(initial=0)), np.uint32)
        limbs = itertools.chain.from_iterable(x._limbs for x in numbers)
        matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = np.fromiter(
            limbs, np.uint32, int(lengths.sum())
        )
        return matrix

    def to_blocks(self, width: int, count: int) -> list["BigNat"]:
        """Cut self into `count` blocks of `width` digits, rightmost first.

        The inverse of from_blocks for blocks below 10**width: one number
        per row of block_matrix(width, count), then a zero for each block
        above the leading digit.
        """
        matrix = self.block_matrix(width, count)
        return BigNat.from_limb_rows(matrix) + [_ZERO] * (count - len(matrix))

    def block_matrix(self, width: int, count: int) -> np.ndarray:
        """The limbs of self's `width`-digit blocks, one uint32 row per block.

        Row i holds block i (rightmost first) as little-endian limbs, the
        same number of them in every row. Each block is high_digits's shift
        at the block's digit offset, taken for every block at once: limb
        column j of all blocks is one numpy expression over the limbs, and
        the top column is cut to the block's width. Only the blocks up to
        the leading digit get a row; the rest, up to `count`, are zero and
        allocate nothing, so memory follows the digits present, not
        count * width.
        """
        width = _int_at_least(width, 1, "block width")
        count = _int_at_least(count, 1, "block count")
        digit_count = self.digit_count()
        if digit_count > count * width:
            raise ValueError(
                f"{digit_count} digits do not fit {count} blocks of width {width}"
            )
        block_limbs = -(-width // RADIX_DIGITS)
        present = -(-digit_count // width)
        # The limbs and one zero above them; every index past the top limb
        # is clipped to that zero.
        limbs = np.zeros(len(self._limbs) + 1, np.uint32)
        limbs[:-1] = self._limbs
        whole, part = np.divmod(np.arange(present) * width, RADIX_DIGITS)
        pivot, shift = _POW10[part], _POW10[RADIX_DIGITS - part]
        # Limb column j of every block joins the limbs at whole + j and
        # whole + j + 1. Columns at or past the number's limb count start
        # above its leading digit in every block, so they stay zero.
        matrix = np.zeros((present, block_limbs), np.uint32)
        high = limbs[whole]
        for j in range(min(block_limbs, len(self._limbs))):
            low, high = high, np.take(limbs, whole + j + 1, mode="clip")
            matrix[:, j] = low // pivot + high % pivot * shift
        matrix[:, -1] %= _POW10[width - RADIX_DIGITS * (block_limbs - 1)]
        return matrix

    @classmethod
    def from_blocks(cls, blocks: Iterable["BigNat"], width: int) -> "BigNat":
        """sum(block * 10**(i * width)), blocks rightmost first.

        The inverse of cutting a number into `width`-digit blocks:
        from_block_matrix of the blocks' limb rows, so exact for blocks of
        any size, and width 0 gives their plain sum.
        """
        return cls.from_block_matrix(cls.to_limb_rows(tuple(blocks)), width)

    @classmethod
    def from_block_matrix(cls, matrix, width: int) -> "BigNat":
        """sum(row i * 10**(i * width)) over a matrix of little-endian limb rows.

        The one lay-down, for rows as block_matrix or to_limb_rows gives
        them: every limb is scaled and laid at its digit offset by one numpy
        scatter, and the columns are carried once, with no number built per
        row. At width 0 every row sits at offset 0, so the columns are the
        matrix's column sums, taken as such. Exact for rows of any size: a
        row wider than `width` carries into the rows above it. Every limb
        must lie in [0, RADIX).
        """
        width = _int_at_least(width, 0, "block width")
        matrix = np.asarray(matrix)
        if not matrix.size:
            return _ZERO
        if matrix.min() < 0 or matrix.max() >= RADIX:
            raise ValueError(f"limb rows must lie in [0, {RADIX})")
        if width == 0:
            # A column sum of R rows is below R * RADIX, so the exact pass
            # alone is cheaper here than the carry steps of _column_limbs.
            return cls._raw(_carried(matrix.sum(axis=0, dtype=np.int64).tolist()))
        rows, limbs = matrix.shape
        whole, part = np.divmod(np.arange(rows, dtype=np.int64) * width, RADIX_DIGITS)
        positions = whole[:, None] + np.arange(limbs)
        scaled = matrix.astype(np.int64) * _POW10[part, None].astype(np.int64)
        # Each scaled limb is below RADIX * 10**6 = 10**13, and a row puts at
        # most one of them in any column, so a column of a pass over
        # _LAY_DOWN_ROWS rows stays below 5.3e18 < 2**63. (At width 1, where
        # seven rows start in each limb, a column stacks about 7 * limbs of
        # them.) Wider matrices are laid down a pass at a time and the
        # passes' numbers added.
        parts = []
        for start in range(0, rows, _LAY_DOWN_ROWS):
            stop = start + _LAY_DOWN_ROWS
            columns = np.zeros(int(whole[-1]) + limbs + 1, np.int64)
            np.add.at(columns, positions[start:stop], scaled[start:stop])
            parts.append(cls._raw(_column_limbs(columns)))
        return functools.reduce(operator.add, parts)

    @classmethod
    def from_decimal(cls, text: str) -> "BigNat":
        """Parse an ASCII digit string; leading zeros are accepted."""
        if not text:
            raise ValueError("empty digit string")
        if not (text.isascii() and text.isdigit()):
            for pos, ch in enumerate(text):
                if not "0" <= ch <= "9":
                    raise ValueError(f"invalid decimal digit {ch!r} at position {pos}")
        stripped = text.lstrip("0")
        if not stripped:
            return _ZERO
        limbs = tuple(
            [
                int(stripped[max(0, stop - RADIX_DIGITS) : stop])
                for stop in range(len(stripped), 0, -RADIX_DIGITS)
            ]
        )
        return cls._raw(limbs)

    @property
    def limbs(self) -> tuple:
        """Little-endian limbs; empty for zero."""
        return self._limbs

    def to_decimal(self) -> str:
        """Decimal rendering with no leading zeros ("0" for zero).

        One ``%`` format over the limbs: no division, as the radix is a
        power of ten.
        """
        limbs = self._limbs
        if not limbs:
            return "0"
        return ("%d" + "%07d" * (len(limbs) - 1)) % limbs[::-1]

    def to_int(self) -> int:
        value = 0
        for limb in reversed(self._limbs):
            value = value * RADIX + limb
        return value

    def digit_count(self) -> int:
        """Length of the decimal rendering; 1 for zero. No floating point."""
        if not self._limbs:
            return 1
        return RADIX_DIGITS * (len(self._limbs) - 1) + len(str(self._limbs[-1]))

    def compare(self, other: "BigNat") -> int:
        """-1, 0 or 1 as self is less than, equal to or greater than other."""
        if not isinstance(other, BigNat):
            raise TypeError(f"cannot compare BigNat with {type(other).__name__}")
        a, b = self._limbs, other._limbs
        if len(a) != len(b):
            return -1 if len(a) < len(b) else 1
        for x, y in zip(reversed(a), reversed(b)):
            if x != y:
                return -1 if x < y else 1
        return 0

    def first_unequal_digit(self, other: "BigNat") -> int | None:
        """The lowest decimal digit at which self and other differ, or None.

        Digit 0 is the units digit, and None means the numbers are equal.
        self % 10**k == other % 10**k holds exactly for k up to this index:
        it is the number of low digits the two share. The first unequal limb
        is found by one pass over both limb tuples, then the digits of that
        limb are compared from the bottom.
        """
        a, b = self._limbs, other._limbs
        a += (0,) * (len(b) - len(a))
        b += (0,) * (len(a) - len(b))
        limb = next(itertools.compress(itertools.count(), map(operator.ne, a, b)), None)
        if limb is None:
            return None
        x, y = a[limb], b[limb]
        digit = 0
        while x % 10 == y % 10:
            x, y, digit = x // 10, y // 10, digit + 1
        return RADIX_DIGITS * limb + digit

    def __str__(self) -> str:
        return self.to_decimal()

    def __repr__(self) -> str:
        text = self.to_decimal()
        if len(text) > 40:
            text = f"{text[:18]}..{text[-18:]}<{len(text)} digits>"
        return f"BigNat({text})"

    def __int__(self) -> int:
        return self.to_int()

    def __bool__(self) -> bool:
        return bool(self._limbs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigNat):
            return NotImplemented
        return self._limbs == other._limbs

    def __hash__(self) -> int:
        return hash(self._limbs)

    def __lt__(self, other: "BigNat") -> bool:
        # total_ordering derives <=, > and >= from this and __eq__.
        if not isinstance(other, BigNat):
            return NotImplemented
        return self.compare(other) < 0

    def __add__(self, other: "BigNat") -> "BigNat":
        if not isinstance(other, BigNat):
            return NotImplemented
        a, b = self._limbs, other._limbs
        if len(a) < len(b):
            a, b = b, a
        # Limb by limb, the longer number's top limbs as they are, then the
        # one carry pass.
        return BigNat._raw(_carried([*map(operator.add, a, b), *a[len(b) :]]))

    def __mul__(self, other: "BigNat") -> "BigNat":
        if not isinstance(other, BigNat):
            return NotImplemented
        work = len(self._limbs) * len(other._limbs)
        return _product(self, other, work >= _karatsuba_threshold**2)

    def mul_small(self, factor: int) -> "BigNat":
        """Product with a single-limb integer scalar (0 <= factor < RADIX)."""
        factor = operator.index(factor)
        if not 0 <= factor < RADIX:
            raise ValueError(f"scalar factor {factor} out of range [0, {RADIX})")
        global _mul_ops
        _mul_ops += 1
        if factor == 0 or not self._limbs:
            return _ZERO
        out = []
        carry = 0
        for limb in self._limbs:
            carry, low = divmod(limb * factor + carry, RADIX)
            out.append(low)
        if carry:
            out.append(carry)
        return BigNat._raw(tuple(out))

    def divmod_small(self, divisor: int) -> tuple["BigNat", int]:
        """Quotient and remainder for a single-limb integer divisor (short division)."""
        divisor = operator.index(divisor)
        if not 1 <= divisor < RADIX:
            raise ValueError(f"divisor {divisor} out of range [1, {RADIX})")
        rem = 0
        out = []
        for limb in reversed(self._limbs):
            digit, rem = divmod(rem * RADIX + limb, divisor)
            out.append(digit)
        out.reverse()
        return BigNat._raw(_trimmed(out)), rem

    def pow(self, exponent: int) -> "BigNat":
        """Exact power by left-to-right binary powering; 0**0 is defined as 1."""
        exponent = _int_at_least(exponent, 0, "exponent")
        if exponent == 0:
            return _ONE
        # Left to right: every product by the base has the small base as
        # one factor.
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __pow__(self, exponent: int) -> "BigNat":
        return self.pow(exponent)

    def split_pow10(self, k: int) -> tuple["BigNat", "BigNat"]:
        """Split at 10**k: returns (self // 10**k, self % 10**k)."""
        return self.high_digits(k), self.low_digits(k)

    def low_digits(self, k: int) -> "BigNat":
        """self % 10**k: a slice of the low limbs plus at most one sub-limb %.

        Nothing above the cut is built.
        """
        k = _int_at_least(k, 0, "split point")
        limbs = self._limbs
        whole, part = divmod(k, RADIX_DIGITS)
        if whole >= len(limbs):
            return self
        low = limbs[:whole]
        if part:
            low += (limbs[whole] % 10**part,)
        return BigNat._raw(_trimmed(low))

    def high_digits(self, k: int) -> "BigNat":
        """self // 10**k: the limbs above the cut, shifted by a sub-limb offset.

        Nothing below the cut is built.
        """
        k = _int_at_least(k, 0, "split point")
        limbs = self._limbs
        whole, part = divmod(k, RADIX_DIGITS)
        if whole >= len(limbs):
            return _ZERO
        if part == 0:
            return BigNat._raw(limbs[whole:])
        pivot = 10**part
        shift = RADIX // pivot
        high = [
            limbs[i] // pivot + limbs[i + 1] % pivot * shift
            for i in range(whole, len(limbs) - 1)
        ]
        high.append(limbs[-1] // pivot)
        return BigNat._raw(_trimmed(high))


def pow10(k: int) -> BigNat:
    """The power of ten with k zeros."""
    k = _int_at_least(k, 0, "exponent")
    whole, part = divmod(k, RADIX_DIGITS)
    return BigNat._raw((0,) * whole + (10**part,))


def _int_at_least(value, least: int, what: str) -> int:
    # The one guard on an integer argument: operator.index (a float raises
    # TypeError, a numpy integer becomes a Python int), then its lower bound.
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def mul_quadratic(a: BigNat, b: BigNat) -> BigNat:
    """Force the schoolbook path regardless of the threshold."""
    return _product(a, b, False)


def mul_subquadratic(a: BigNat, b: BigNat) -> BigNat:
    """Force the Karatsuba path regardless of the threshold."""
    return _product(a, b, True)


def _product(a: BigNat, b: BigNat, subquadratic: bool) -> BigNat:
    # The one counted entry for full products, whichever path runs.
    global _mul_ops
    _mul_ops += 1
    if not a._limbs or not b._limbs:
        return _ZERO
    kernel = _mul_subquadratic_limbs if subquadratic else _mul_quadratic_limbs
    return BigNat._raw(kernel(a._limbs, b._limbs))


def _trimmed(limbs) -> tuple:
    n = len(limbs)
    while n and limbs[n - 1] == 0:
        n -= 1
    return tuple(limbs[:n])


def _carried(columns: list, start: int = 0) -> tuple:
    # The one exact carry pass: turns Python-int column sums of any size or
    # sign (the total must be non-negative) into canonical limbs, in place,
    # from index `start` up; the columns below `start` must be limbs already.
    carry = 0
    for i in range(start, len(columns)):
        carry, columns[i] = divmod(columns[i] + carry, RADIX)
    while carry:
        carry, low = divmod(carry, RADIX)
        columns.append(low)
    return _trimmed(columns)


def _mul_quadratic_limbs(a: tuple, b: tuple) -> tuple:
    # Schoolbook with whole-column accumulation and a single carry pass;
    # Python ints absorb the oversized column sums. The shorter factor runs
    # the outer loop, so the zero limbs of a sparse factor such as
    # 10**w + 1 are skipped whole.
    if len(a) > len(b):
        a, b = b, a
    acc = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y
    return _carried(acc)


def _column_limbs(columns: np.ndarray) -> tuple:
    # The one exit from int64 columns to canonical limbs; the columns' total
    # must be non-negative. A Karatsuba product's columns arrive as a single
    # leaf's raw sums below 5.2e16 or as a node's limbs in
    # [-2.6e10, RADIX + 2.6e10], a lay-down pass's in [0, 2**63). Three
    # carry steps bring any of them within one of [0, RADIX), and the exact
    # pass runs from the first limb still outside that range. In products
    # that is 0 of 1,090,875 limbs on a serial 0..300 sweep, 1,814 of 33,753
    # in pow at n=600 and 242,283 of 360,520 at n=1810, where the squares
    # from 17,571 limbs up each stray near limb 5,300. One exact pass from
    # limb 0 instead of the carry steps and the scan was slower on both of
    # the first two. The array is dropped before the list becomes a tuple,
    # and a product's operand arrays are gone before it comes here: those
    # copies are the memory peak of a product.
    for _ in range(3):
        columns = _carry(columns)
    stray = np.flatnonzero((columns < 0) | (columns >= RADIX))
    limbs = columns.tolist()
    del columns
    return _carried(limbs, int(stray[0]) if stray.size else len(limbs))


def _mul_subquadratic_limbs(a: tuple, b: tuple) -> tuple:
    # Karatsuba, then canonical limbs from the lazily carried columns. The
    # operand arrays are held only as _kara's arguments and the columns only
    # as _column_limbs's, which frees them at its first carry step (CPython
    # 3.11 on hands a call its arguments); a local holding either would add
    # a copy to a product's memory peak.
    return _column_limbs(_kara(*_int64_operands(a, b)))


def _int64_operands(a: tuple, b: tuple) -> tuple:
    # One array for both factors of a square, so _kara sees a is b.
    x = np.array(a, dtype=np.int64)
    return x, x if a is b else np.array(b, dtype=np.int64)


def _kara(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Column sums of a * b: raw at a leaf, carried once at a node. For a
    # square (a is b) one operand sum serves both factors. Past a leaf
    # half >= 256, so no half is empty.
    shorter = min(a.shape[0], b.shape[0])
    if shorter <= _CONV_BASE_LIMBS:
        return np.convolve(a, b)
    half = shorter >> 1
    a0, a1 = a[:half], a[half:]
    b0, b1 = (a0, a1) if a is b else (b[:half], b[half:])
    z0 = _kara(a0, b0)
    sum_a = _add(a0, a1)
    zm = _kara(sum_a, sum_a if a is b else _add(b0, b1))
    z2 = _kara(a1, b1)
    # z0 + (zm - z0 - z2) * R**half + z2 * R**(2*half), column by column;
    # no column takes more than five child limbs.
    l0, lm, l2 = z0.shape[0], zm.shape[0], z2.shape[0]
    out = np.zeros(max(l0, half + lm, 2 * half + l2), dtype=np.int64)
    out[:l0] = z0
    out[half : half + lm] += zm
    out[half : half + l0] -= z0
    out[half : half + l2] -= z2
    out[2 * half : 2 * half + l2] += z2
    return _carry(out)


def _add(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    # low + high, carried once; high is never the shorter.
    out = high.copy()
    out[: low.shape[0]] += low
    return _carry(out)


def _carry(columns: np.ndarray) -> np.ndarray:
    # One vectorised carry step: keep each column's floor residue and add
    # its quotient one limb up. The value is unchanged; limbs come back to
    # [0, RADIX) plus the (possibly negative) quotient from below, in n + 1
    # columns whatever the top one holds.
    n = columns.shape[0]
    out = np.empty(n + 1, dtype=np.int64)
    high = np.empty(n, dtype=np.int64)
    np.divmod(columns, RADIX, out=(high, out[:n]))
    out[n] = 0
    out[1:] += high
    return out


_ZERO = BigNat(0)
_ONE = BigNat(1)
