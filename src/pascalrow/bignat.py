"""Arbitrary-precision natural numbers with decimal-friendly limbs.

Values are immutable tuples of base-10**7 limbs, least significant limb
first, with no leading zero limbs (zero is the empty tuple). Keeping the
radix a power of ten makes splitting at a power of ten a digit slice
instead of a division loop, which is the hot operation downstream.
``to_blocks`` cuts a number into fixed-width digit blocks and
``from_blocks`` is its inverse: it lays the blocks at their digit offsets
and adds them, carries included, so callers work in digits and blocks and
never in limbs. At width 0 every block sits at offset 0, which is the
plain sum: addition is ``from_blocks`` of the two terms at width 0.
``from_block_prefixes`` lays the blocks down once and yields
that sum at each of several cuts; ``from_blocks`` is its single-cut case.
``to_blocks`` works in numpy a chunk of blocks at a time, digits to a
limb matrix with no text in between, and ends in ``from_limb_rows``, the
matrix counterpart of ``from_limbs``: one range check over a whole limb
matrix, then one number per row.

Column sums become limbs in one place: a single exact carry pass over
Python-int columns. It finishes ``from_blocks`` (and so addition), the
schoolbook product and the top-level normalisation of the Karatsuba
product.
The scalar steps ``mul_small`` and ``divmod_small`` keep their own loops:
they are the independent steps of the multiplicative oracle.

Multiplication has two paths that must agree bit-exactly. ``*``,
``mul_quadratic`` and ``mul_subquadratic`` share one entry that counts
the product, returns zero for a zero factor and runs the chosen path:

* a plain schoolbook loop in Python (the quadratic path), used below the
  Karatsuba threshold; the shorter factor runs the outer loop, so the
  zero limbs of a sparse factor such as ``10**w + 1`` cost nothing;
* Karatsuba recursion over numpy int64 arrays whose base case is a single
  integer convolution (the subquadratic path). When both factors are the
  same limb tuple (``x * x``, most of the products in ``pow``) one array
  and one operand sum per node serve both factors; the convolutions are
  the same as for a general product.

``pow`` is left-to-right binary powering: starting from the base, each
remaining exponent bit squares the result and, for a set bit, multiplies
it by the base. That is ``bit_length - 1`` squarings and ``popcount - 1``
products, each of the latter with the small base as one factor.

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
carry pass starts at the first limb still outside that range (most
products have none). That pass is linear, so long runs of ``9999999``
limbs cost one sweep, not one numpy pass per limb of ripple.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

RADIX = 10**7
RADIX_DIGITS = 7

#: Operand size (in limbs of the smaller factor) at which ``*`` switches
#: from the schoolbook path to the Karatsuba path.
DEFAULT_KARATSUBA_THRESHOLD = 32

# Base case size for the Karatsuba recursion, in limbs. Must stay small
# enough that five raw leaf columns, each up to min(la, lb) * (RADIX+1)^2,
# fit int64 in one node column.
_CONV_BASE_LIMBS = 512

# Blocks cut per chunk by to_blocks: enough that numpy's per-call cost is
# spread over many blocks, few enough that a chunk of the ~550-digit blocks
# of a million-digit power stays near 70k digits. A `row 1810` process
# peaked about 0.2 MB higher in RSS with 256-block chunks.
_CUT_CHUNK_BLOCKS = 128

# Place values of the seven digits of a limb, least significant first.
_LIMB_PLACES = np.array([10**k for k in range(RADIX_DIGITS)], dtype=np.uint32)

_karatsuba_threshold = DEFAULT_KARATSUBA_THRESHOLD

# Instrumentation for the benchmark harness: counts every multiplication
# performed through the public entry points (full products and scalar
# products alike). Not meant for concurrent use.
_mul_ops = 0


def set_karatsuba_threshold(limbs: int) -> None:
    """Set the operand size at which multiplication goes subquadratic."""
    if not isinstance(limbs, int) or limbs < 2:
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
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"BigNat takes an int, got {type(value).__name__}")
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
        and each row loses its leading zero limbs.
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
        # highest nonzero limb, 0 for an all-zero row.
        positions = np.arange(1, matrix.shape[1] + 1)
        lengths = np.where(matrix != 0, positions, 0).max(axis=1, initial=0)
        return [
            cls._raw(tuple(row[:length]))
            for row, length in zip(matrix.tolist(), lengths.tolist())
        ]

    def to_blocks(self, width: int, count: int) -> list["BigNat"]:
        """Cut self into `count` blocks of `width` digits, rightmost first.

        The inverse of from_blocks for blocks below 10**width. The digits
        are cut a chunk of blocks at a time: the chunk's limbs are split
        into digits, viewed as a (blocks x width) array, padded to whole
        limbs and turned into one limb matrix, so no digit is parsed on its
        own and no array spans the whole number. Blocks above the leading
        digit are zero and allocate nothing.
        """
        if width < 1:
            raise ValueError(f"block width must be >= 1, got {width}")
        if count < 1:
            raise ValueError(f"block count must be >= 1, got {count}")
        digit_count = self.digit_count()
        if digit_count > count * width:
            raise ValueError(
                f"{digit_count} digits do not fit {count} blocks of width {width}"
            )
        block_limbs = -(-width // RADIX_DIGITS)
        present = -(-digit_count // width)
        blocks = []
        for first in range(0, present, _CUT_CHUNK_BLOCKS):
            rows = min(_CUT_CHUNK_BLOCKS, present - first)
            low, high = first * width, (first + rows) * width
            start = low // RADIX_DIGITS
            # The limbs holding digits low..high (zero above the leading
            # limb), then their digits, least significant first.
            limbs = np.zeros(-(-high // RADIX_DIGITS) - start, np.uint32)
            held = self._limbs[start : start + limbs.size]
            limbs[: len(held)] = held
            stream = np.empty((limbs.size, RADIX_DIGITS), np.uint8)
            for place in range(RADIX_DIGITS):
                np.divmod(limbs, 10, out=(limbs, stream[:, place]), casting="unsafe")
            stream = stream.reshape(-1)[low - start * RADIX_DIGITS :][: high - low]
            # One block per row, its digits padded above to whole limbs.
            digits = np.zeros((rows, block_limbs * RADIX_DIGITS), np.uint8)
            digits[:, :width] = stream.reshape(rows, width)
            matrix = digits.reshape(rows, block_limbs, RADIX_DIGITS) @ _LIMB_PLACES
            blocks += BigNat.from_limb_rows(matrix)
        return blocks + [_ZERO] * (count - present)

    @classmethod
    def from_blocks(cls, blocks: Iterable["BigNat"], width: int) -> "BigNat":
        """sum(block * 10**(i * width)), blocks rightmost first.

        The inverse of cutting a number into `width`-digit blocks. Exact for
        blocks of any size: a block wider than `width` carries into the
        blocks above it. Width 0 gives the plain sum of the blocks.
        """
        blocks = tuple(blocks)
        return next(cls.from_block_prefixes(blocks, width, (len(blocks),)))

    @classmethod
    def from_block_prefixes(
        cls, blocks: Sequence["BigNat"], width: int, cuts: Iterable[int]
    ) -> Iterator["BigNat"]:
        """Yield from_blocks(blocks[:cut], width) for each cut, in one pass.

        `cuts` must be non-decreasing and at most len(blocks). Each block is
        scaled once; at each cut only the limbs from the first one touched
        since the previous cut are carried, so the carry work is linear in
        the blocks, not in the sum of the cuts.
        """
        return _block_sums(blocks, width, cuts)

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
        """Decimal rendering with no leading zeros ("0" for zero)."""
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
        # from_blocks((self, other), 0), taken from the builder itself: a sum
        # of two numbers is not one of the block sums a row's checks build.
        return next(_block_sums((self, other), 0, (2,)))

    def __mul__(self, other: "BigNat") -> "BigNat":
        if not isinstance(other, BigNat):
            return NotImplemented
        shorter = min(len(self._limbs), len(other._limbs))
        return _product(self, other, shorter >= _karatsuba_threshold)

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
        out = [0] * len(self._limbs)
        for i in range(len(self._limbs) - 1, -1, -1):
            out[i], rem = divmod(rem * RADIX + self._limbs[i], divisor)
        return BigNat._raw(_trimmed(out)), rem

    def pow(self, exponent: int) -> "BigNat":
        """Exact power by left-to-right binary powering; 0**0 is defined as 1."""
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
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
        if k < 0:
            raise ValueError(f"split point must be >= 0, got {k}")
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
        if k < 0:
            raise ValueError(f"split point must be >= 0, got {k}")
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
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    whole, part = divmod(k, RADIX_DIGITS)
    return BigNat._raw((0,) * whole + (10**part,))


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


def _block_sums(
    blocks: Sequence[BigNat], width: int, cuts: Iterable[int]
) -> Iterator[BigNat]:
    # The one column builder, behind from_block_prefixes (and so
    # from_blocks) and +.
    if width < 0:
        raise ValueError(f"block width must be >= 0, got {width}")
    columns = []
    done = 0
    for cut in cuts:
        if not done <= cut <= len(blocks):
            raise ValueError(
                f"cut {cut} out of order or beyond {len(blocks)} blocks"
            )
        start = done * width // RADIX_DIGITS
        for i in range(done, cut):
            whole, part = divmod(i * width, RADIX_DIGITS)
            scale = 10**part
            limbs = blocks[i]._limbs
            if len(columns) < whole + len(limbs):
                columns += [0] * (whole + len(limbs) - len(columns))
            for j, limb in enumerate(limbs, whole):
                columns[j] += limb * scale
        done = cut
        yield BigNat._raw(_carried(columns, start))


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


def _mul_subquadratic_limbs(a: tuple, b: tuple) -> tuple:
    # Karatsuba, then canonical limbs from the lazily carried columns. A
    # product that is a single leaf arrives as raw columns below 5.2e16,
    # one that is a node as limbs in [-2.6e10, RADIX + 2.6e10]; three carry
    # steps bring either within one of [0, RADIX), so the carry pass from
    # the first limb still outside that range rarely has anything to do.
    # The operand arrays are dropped before the columns become a list, and
    # the columns before the list becomes a tuple: those copies are the
    # memory peak of a product.
    x = np.array(a, dtype=np.int64)
    columns = _kara(x, x if a is b else np.array(b, dtype=np.int64))
    del x
    for _ in range(3):
        columns = _carry(columns)
    limbs = columns.tolist()
    stray = np.flatnonzero((columns < 0) | (columns >= RADIX))
    del columns
    return _carried(limbs, int(stray[0]) if stray.size else len(limbs))


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
