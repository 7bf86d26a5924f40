"""Unit and property tests for the limb arithmetic.

string_add below is the independent oracle for addition: plain digit-wise
schoolbook on decimal strings, sharing nothing with the limb code.
"""

import random
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pascalrow import bignat
from pascalrow.bignat import BigNat, mul_quadratic, mul_subquadratic, pow10


def string_add(a: str, b: str) -> str:
    out = []
    carry = 0
    for i in range(1, max(len(a), len(b)) + 1):
        da = int(a[-i]) if i <= len(a) else 0
        db = int(b[-i]) if i <= len(b) else 0
        carry, digit = divmod(da + db + carry, 10)
        out.append(str(digit))
    if carry:
        out.append(str(carry))
    return "".join(reversed(out)).lstrip("0") or "0"


def limbs_to_int(limbs) -> int:
    # Halving keeps the conversion subquadratic for operands of 40k limbs.
    if len(limbs) <= 64:
        value = 0
        for limb in reversed(limbs):
            value = value * bignat.RADIX + limb
        return value
    half = len(limbs) // 2
    return limbs_to_int(limbs[half:]) * bignat.RADIX**half + limbs_to_int(limbs[:half])


naturals = st.integers(min_value=0, max_value=10**300)
machine_ints = st.integers(min_value=0, max_value=2**63 - 1)


class TestConstruction:
    def test_zero_and_one(self):
        assert str(BigNat(0)) == "0"
        assert str(BigNat(1)) == "1"
        assert not BigNat(0)
        assert BigNat(1)

    def test_from_int_matches_parser(self):
        assert BigNat(10510100501) == BigNat.from_decimal("10510100501")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BigNat(-1)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            BigNat("12")
        with pytest.raises(TypeError):
            BigNat(True)

    def test_from_limbs_normalizes(self):
        assert BigNat.from_limbs([1, 0, 0]) == BigNat(1)
        assert BigNat.from_limbs([]) == BigNat(0)
        with pytest.raises(ValueError):
            BigNat.from_limbs([bignat.RADIX])

    def test_from_limbs_names_the_first_bad_limb(self):
        with pytest.raises(ValueError, match=r"^limb -1 out of range"):
            BigNat.from_limbs([5, -1, bignat.RADIX])
        with pytest.raises(ValueError, match=rf"^limb {bignat.RADIX} out of range"):
            BigNat.from_limbs(iter([0, bignat.RADIX, -1]))
        assert BigNat.from_limbs((7, 0, 3, 0)) == BigNat(3 * bignat.RADIX**2 + 7)

    def test_from_limbs_takes_integers_only(self):
        with pytest.raises(TypeError):
            BigNat.from_limbs([1.5, 2])
        x = BigNat.from_limbs(np.array([7, 3], dtype=np.int64))
        assert x == BigNat(3 * bignat.RADIX + 7)
        assert [type(limb) for limb in x.limbs] == [int, int]


class TestParsing:
    def test_leading_zeros_normalized(self):
        assert BigNat.from_decimal("0001") == BigNat(1)
        assert BigNat.from_decimal("000") == BigNat(0)

    def test_golden_strings(self):
        assert BigNat.from_decimal("1093685272684360901") == BigNat(101).pow(9)
        assert BigNat.from_decimal("1009036084126126084036009001") == BigNat(1001).pow(9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BigNat.from_decimal("")

    @pytest.mark.parametrize(
        "text,position", [("12a3", 2), ("-5", 0), (" 1", 0), ("12٣", 2)]
    )
    def test_bad_digit_reports_position(self, text, position):
        with pytest.raises(ValueError, match=f"position {position}"):
            BigNat.from_decimal(text)


class TestFormatting:
    def test_zero(self):
        assert BigNat(0).to_decimal() == "0"

    @pytest.mark.parametrize(
        "value",
        [0, 7, bignat.RADIX - 1, bignat.RADIX, 5 * 10**21 + 3, 10**42 + 1],
    )
    def test_matches_int_rendering(self, value):
        assert BigNat(value).to_decimal() == str(value)

    def test_large_random_matches_int_rendering(self):
        value = random.Random(31).randrange(10**5000)
        assert BigNat(value).to_decimal() == str(value)

    def test_golden_powers(self):
        assert BigNat(11).pow(6).to_decimal() == "1771561"
        assert (
            BigNat(1001).pow(10).to_decimal() == "1010045120210252210120045010001"
        )

    def test_repr_truncates_large_values(self):
        text = repr(BigNat(10).pow(100))
        assert "digits" in text and len(text) < 80


class TestAddition:
    def test_identity(self):
        x = BigNat.from_decimal("123456789" * 5)
        assert BigNat(0) + x == x

    def test_adjacent_row_elements(self):
        assert BigNat(126) + BigNat(126) == BigNat(252)

    def test_against_string_oracle(self):
        rng = random.Random(1234)
        for _ in range(200):
            a = "".join(rng.choice("0123456789") for _ in range(200)).lstrip("0") or "7"
            b = "".join(rng.choice("0123456789") for _ in range(200)).lstrip("0") or "3"
            got = BigNat.from_decimal(a) + BigNat.from_decimal(b)
            assert got.to_decimal() == string_add(a, b)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 50])
    def test_long_carry_ripples_against_int(self, k):
        # 10**(7k) - 1 is k all-nine limbs: adding 1 or itself carries
        # through every limb and out of the top one.
        nines = 10 ** (7 * k) - 1
        for left, right in (
            (nines, 1),
            (1, nines),
            (nines, nines),
            (nines, 10 ** (7 * k + 3)),
            (nines, 7),
            (nines, 0),
            (0, nines),
            (0, 0),
        ):
            got = BigNat(left) + BigNat(right)
            assert got.to_int() == left + right, (left, right)
            assert got == BigNat(left + right)

    def test_unequal_lengths_against_int(self):
        rng = random.Random(1357)
        for _ in range(200):
            a = rng.randrange(bignat.RADIX ** rng.randint(0, 12))
            b = rng.randrange(bignat.RADIX ** rng.randint(0, 3))
            assert BigNat(a) + BigNat(b) == BigNat(a + b)
            assert BigNat(b) + BigNat(a) == BigNat(a + b)


class TestMultiplication:
    def test_identity(self):
        x = BigNat.from_decimal("98765432109876543210")
        assert x * BigNat(1) == x

    def test_shift_and_add_chains(self):
        assert BigNat(101) * BigNat(10201) == BigNat(1030301)
        assert BigNat(1001) * BigNat(1002001) == BigNat(1003003001)

    def test_zero_factor(self):
        assert BigNat(0) * BigNat.from_decimal("1" * 100) == BigNat(0)

    def test_paths_agree_around_threshold(self):
        rng = random.Random(99)
        threshold_digits = bignat.karatsuba_threshold() * bignat.RADIX_DIGITS
        for _ in range(80):
            a = rng.randrange(10 ** rng.randint(1, 3 * threshold_digits))
            b = rng.randrange(10 ** rng.randint(1, 3 * threshold_digits))
            expected = BigNat(a * b)
            assert mul_quadratic(BigNat(a), BigNat(b)) == expected
            assert mul_subquadratic(BigNat(a), BigNat(b)) == expected

    @pytest.mark.parametrize(
        "la,lb,all_nines",
        [
            (513, 513, False),
            (700, 1500, False),
            (1024, 1025, False),
            (2049, 3000, False),
            (5000, 5000, False),
            (20000, 20000, False),
            (513, 15390, False),
            (600, 18000, False),
            (513, 513, True),
            (4096, 4096, True),
            (20000, 20000, True),
            (600, 18000, True),
            (4097, 512, True),
            (20000, 700, True),
            (2, 3000, True),
        ],
    )
    def test_subquadratic_large_operands_against_int(self, la, lb, all_nines):
        # Above 512 limbs the Karatsuba recursion runs; all-nine limbs give
        # the largest column sums and the longest carry ripples, and 1:30
        # shapes recurse on unequal halves. A 512-limb factor makes the
        # whole product one leaf that reaches the top uncarried. Each factor
        # is also squared, the product that powering makes most.
        rng = random.Random(la * 100_003 + lb)

        def operand(length):
            if all_nines:
                return [bignat.RADIX - 1] * length
            return [rng.randrange(bignat.RADIX) for _ in range(length - 1)] + [
                rng.randrange(1, bignat.RADIX)
            ]

        a, b = operand(la), operand(lb)
        x, y = BigNat.from_limbs(a), BigNat.from_limbs(b)
        product = mul_subquadratic(x, y)
        assert limbs_to_int(product.limbs) == limbs_to_int(a) * limbs_to_int(b)
        for factor, limbs in ((x, a), (y, b)):
            square = mul_subquadratic(factor, factor)
            assert limbs_to_int(square.limbs) == limbs_to_int(limbs) ** 2

    @pytest.mark.parametrize("length", [512, 513, 4097, 131072])
    def test_subquadratic_square_of_all_nines(self, length):
        # (R**L - 1)**2 = R**(2L) - 2 R**L + 1: every convolution column at
        # its largest. 512 limbs is a single leaf that reaches the top
        # uncarried; 131,072 is the size of the FFT bound on the roadmap.
        radix = bignat.RADIX
        x = BigNat.from_limbs([radix - 1] * length)
        square = mul_subquadratic(x, x)
        expected = [1] + [0] * (length - 1) + [radix - 2] + [radix - 1] * (length - 1)
        assert list(square.limbs) == expected

    def test_counter_counts_products(self):
        bignat.reset_mul_counter()
        BigNat(3) * BigNat(4)
        BigNat(5).mul_small(6)
        assert bignat.mul_counter() == 2
        bignat.reset_mul_counter()
        assert bignat.mul_counter() == 0

    @pytest.mark.parametrize(
        "entry", ["__mul__", "mul_quadratic", "mul_subquadratic", "mul_small"]
    )
    def test_each_entry_counts_once(self, entry):
        # Zero factors, a short factor, operands above the threshold and a
        # square: every call counts exactly one product.
        run = {
            "__mul__": lambda x, y: x * y,
            "mul_quadratic": mul_quadratic,
            "mul_subquadratic": mul_subquadratic,
            "mul_small": lambda x, y: x.mul_small(y.to_int()),
        }[entry]
        big = 7**400
        assert len(BigNat(big).limbs) >= bignat.karatsuba_threshold()
        pairs = [(3, 4), (0, 4), (3, 0), (0, 0), (big, 5)]
        if entry != "mul_small":
            pairs += [(big, big), (big, 7**300), (0, big)]
        for a, b in pairs:
            bignat.reset_mul_counter()
            assert run(BigNat(a), BigNat(b)) == BigNat(a * b)
            assert bignat.mul_counter() == 1, (a, b)


class TestPower:
    def test_exponent_zero_is_one(self):
        assert BigNat(7).pow(0) == BigNat(1)
        assert BigNat(0).pow(0) == BigNat(1)

    def test_zero_base(self):
        assert BigNat(0).pow(5) == BigNat(0)

    def test_golden_values(self):
        assert str(BigNat(11) ** 4) == "14641"
        assert (
            str(BigNat(10001) ** 15)
            == "1001501050455136530035005643564355005300313650455010500150001"
        )

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            BigNat(2).pow(-1)

    @pytest.mark.parametrize("exponent", [1, 2, 3, 9, 16, 51, 300, 1000, 1810])
    def test_multiplication_count_bound(self, exponent, monkeypatch):
        # Left-to-right powering does exactly bit_length - 1 squarings and
        # popcount - 1 products with the base, and no other full product;
        # both limb-level seams are wrapped, so every product is seen.
        base = BigNat(1001)
        products = []
        for seam in ("_mul_quadratic_limbs", "_mul_subquadratic_limbs"):
            kernel = getattr(bignat, seam)

            def recorded(a, b, kernel=kernel):
                products.append((a, b))
                return kernel(a, b)

            monkeypatch.setattr(bignat, seam, recorded)
        bignat.reset_mul_counter()
        power = base.pow(exponent)

        assert power == BigNat(1001**exponent)
        squarings = sum(a is b for a, b in products)
        by_base = sum(a is not b and base.limbs in (a, b) for a, b in products)
        assert squarings == exponent.bit_length() - 1
        assert by_base == bin(exponent).count("1") - 1
        assert len(products) == squarings + by_base == bignat.mul_counter()


class TestSplitPow10:
    def test_split_at_zero(self):
        x = BigNat(12345)
        assert x.split_pow10(0) == (x, BigNat(0))

    def test_golden_split(self):
        assert BigNat(10510100501).split_pow10(2) == (BigNat(105101005), BigNat(1))

    def test_golden_string_slice(self):
        golden = "1009036084126126084036009001"
        quotient, remainder = BigNat.from_decimal(golden).split_pow10(9)
        assert quotient.to_decimal() == golden[:-9]
        assert remainder == BigNat(36009001)
        assert quotient.to_decimal().endswith("084")

    def test_beyond_length(self):
        x = BigNat(123)
        assert x.split_pow10(50) == (BigNat(0), x)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BigNat(1).split_pow10(-1)


class TestLowHighDigits:
    @pytest.mark.parametrize(
        "value",
        [0, 7, 10**7, 10**14 - 1, 123456789012345678901234567890, 10**50 + 1],
    )
    def test_against_int(self, value):
        # k = 0, limb-aligned k (multiples of 7), mid-limb k, and k at or
        # above the digit count.
        x = BigNat(value)
        for k in range(0, len(str(value)) + 16):
            assert x.low_digits(k).to_int() == value % 10**k, k
            assert x.high_digits(k).to_int() == value // 10**k, k

    def test_canonical_limbs(self):
        # A zero limb just below the cut must not survive as a leading zero.
        x = BigNat(10**30 + 5)
        assert x.low_digits(21).limbs == (5,)
        assert x.low_digits(25) == BigNat(5)

    @pytest.mark.parametrize("method", ["low_digits", "high_digits"])
    def test_negative_rejected(self, method):
        with pytest.raises(ValueError):
            getattr(BigNat(1), method)(-1)


class TestFromBlockPrefixes:
    def test_every_cut_against_from_blocks(self):
        # Blocks up to 2*width + 10 digits overlap and carry; the cuts
        # include 1 and len(blocks), and may repeat or be 0.
        rng = random.Random(8765)
        for width in range(1, 31):
            for _ in range(6):
                values = [
                    rng.randrange(10 ** rng.randint(0, 2 * width + 10))
                    for _ in range(rng.randint(1, 20))
                ]
                blocks = [BigNat(v) for v in values]
                cuts = sorted(
                    [1, len(blocks)] + [rng.randint(0, len(blocks)) for _ in range(4)]
                )
                got = list(BigNat.from_block_prefixes(blocks, width, cuts))
                assert got == [BigNat.from_blocks(blocks[:c], width) for c in cuts]
                assert [g.to_int() for g in got] == [
                    sum(v * 10 ** (i * width) for i, v in enumerate(values[:c]))
                    for c in cuts
                ], (width, values, cuts)

    def test_no_cuts(self):
        assert list(BigNat.from_block_prefixes([BigNat(1)], 3, [])) == []

    @pytest.mark.parametrize("cuts", [[2, 1], [3], [-1]])
    def test_bad_cuts_rejected(self, cuts):
        blocks = [BigNat(1), BigNat(2)]
        with pytest.raises(ValueError, match="cut"):
            list(BigNat.from_block_prefixes(blocks, 3, cuts))


class TestFromBlocks:
    def test_golden_row_nine(self):
        row = [comb(9, k) for k in range(10)]
        assert BigNat.from_blocks([BigNat(c) for c in row], 3) == BigNat(1001).pow(9)

    def test_against_int_with_overlapping_blocks(self):
        # Blocks up to 2*width + 10 digits wide overlap up to three
        # neighbours, so their sum carries across block boundaries.
        rng = random.Random(4321)
        for width in range(1, 31):
            for _ in range(12):
                values = [
                    rng.randrange(10 ** rng.randint(0, 2 * width + 10))
                    for _ in range(rng.randint(0, 20))
                ]
                got = BigNat.from_blocks([BigNat(v) for v in values], width)
                want = sum(v * 10 ** (i * width) for i, v in enumerate(values))
                assert got.to_int() == want, (width, values)

    def test_zero_blocks(self):
        assert BigNat.from_blocks([BigNat(0)] * 5, 4) == BigNat(0)
        assert BigNat.from_blocks([BigNat(0), BigNat(3), BigNat(0)], 2) == BigNat(300)

    def test_empty_list_is_zero(self):
        assert BigNat.from_blocks([], 3) == BigNat(0)

    @pytest.mark.parametrize("width", [0, -1])
    def test_width_below_one_rejected(self, width):
        # Width 0 lays every block at offset 0: the plain sum. Only a
        # negative width is rejected.
        blocks = [BigNat(9_999_999), BigNat(1), BigNat(10**20)]
        if width == 0:
            assert BigNat.from_blocks(blocks, width) == BigNat(10**20 + 10**7)
            return
        with pytest.raises(ValueError, match="block width"):
            BigNat.from_blocks(blocks, width)

    def test_width_zero_is_the_sum(self):
        rng = random.Random(2468)
        for _ in range(60):
            values = [
                rng.randrange(bignat.RADIX ** rng.randint(0, 20))
                for _ in range(rng.randint(0, 30))
            ]
            blocks = [BigNat(v) for v in values]
            assert BigNat.from_blocks(blocks, 0).to_int() == sum(values), values
            cuts = sorted(rng.randint(0, len(blocks)) for _ in range(4))
            got = BigNat.from_block_prefixes(blocks, 0, cuts)
            assert [g.to_int() for g in got] == [sum(values[:c]) for c in cuts]


def text_cut(x: BigNat, width: int, count: int) -> list[int]:
    # The cut by slicing the decimal rendering from its right end.
    text = x.to_decimal()
    stops = range(len(text), len(text) - count * width, -width)
    return [int(text[max(0, stop - width) : max(0, stop)] or "0") for stop in stops]


def int_cut(value: int, width: int, count: int) -> list[int]:
    blocks = []
    for _ in range(count):
        value, low = divmod(value, 10**width)
        blocks.append(low)
    return blocks


class TestToBlocks:
    CHUNK = bignat._CUT_CHUNK_BLOCKS

    @pytest.mark.parametrize("width", range(1, 31))
    def test_against_text_slicing_and_int(self, width):
        # Block counts either side of the chunk size; values that fill
        # every block and values whose top blocks are zero.
        rng = random.Random(width)
        for count in (1, 2, self.CHUNK - 1, self.CHUNK + 1, 2 * self.CHUNK + 1):
            for digits in (count * width, rng.randint(0, count * width)):
                value = rng.randrange(10**digits) if digits else 0
                got = [b.to_int() for b in BigNat(value).to_blocks(width, count)]
                assert got == int_cut(value, width, count), (width, count, digits)
                assert got == text_cut(BigNat(value), width, count)

    @pytest.mark.parametrize("width", [7, 14, 21])
    def test_limb_aligned_widths_of_nines(self, width):
        # All-9 limbs at widths that are whole limbs: every block is
        # 10**width - 1, its top limb full.
        count = self.CHUNK + 3
        value = 10 ** (count * width) - 1
        blocks = BigNat(value).to_blocks(width, count)
        assert blocks == [BigNat(10**width - 1)] * count

    def test_zero(self):
        assert BigNat(0).to_blocks(1, 1) == [BigNat(0)]
        assert BigNat(0).to_blocks(9, self.CHUNK + 1) == [BigNat(0)] * (self.CHUNK + 1)

    def test_blocks_above_the_leading_digit_are_zero(self):
        assert [b.to_int() for b in BigNat(12_345_678).to_blocks(3, 5)] == [
            678, 345, 12, 0, 0,
        ]  # fmt: skip
        blocks = BigNat(7).to_blocks(2, 2 * self.CHUNK + 1)
        assert blocks == [BigNat(7)] + [BigNat(0)] * (2 * self.CHUNK)

    def test_inverse_of_from_blocks(self):
        rng = random.Random(97)
        for width in (1, 6, 7, 8, 13, 30):
            values = [rng.randrange(10**width) for _ in range(self.CHUNK + 5)]
            blocks = [BigNat(v) for v in values]
            assert BigNat.from_blocks(blocks, width).to_blocks(width, len(blocks)) == (
                blocks
            )

    def test_too_many_digits(self):
        with pytest.raises(ValueError, match=r"^5 digits do not fit 2 blocks of width 2$"):
            BigNat(12345).to_blocks(2, 2)

    @pytest.mark.parametrize(
        "width,count,message",
        [
            (0, 1, r"^block width must be >= 1, got 0$"),
            (-3, 1, r"^block width must be >= 1, got -3$"),
            (3, 0, r"^block count must be >= 1, got 0$"),
        ],
    )
    def test_degenerate_shapes(self, width, count, message):
        with pytest.raises(ValueError, match=message):
            BigNat(1).to_blocks(width, count)


class TestFromLimbRows:
    def test_matches_from_limbs_per_row(self):
        rng = random.Random(31)
        rows = [
            [rng.choice((0, rng.randrange(bignat.RADIX))) for _ in range(6)]
            for _ in range(40)
        ]
        rows += [[0] * 6, [bignat.RADIX - 1] * 6]
        got = BigNat.from_limb_rows(np.array(rows, dtype=np.int64))
        assert got == [BigNat.from_limbs(row) for row in rows]
        assert [g.limbs for g in got] == [BigNat.from_limbs(row).limbs for row in rows]

    def test_empty_shapes(self):
        assert BigNat.from_limb_rows(np.zeros((0, 3), dtype=np.int64)) == []
        assert BigNat.from_limb_rows(np.zeros((2, 0), dtype=np.int64)) == [
            BigNat(0), BigNat(0),
        ]  # fmt: skip

    @pytest.mark.parametrize("bad", [-1, bignat.RADIX, 2**40])
    def test_names_the_bad_limb(self, bad):
        matrix = np.array([[5, 0, 9], [3, bad, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match=rf"^limb {bad} out of range"):
            BigNat.from_limb_rows(matrix)

    def test_names_the_first_bad_limb_in_row_order(self):
        matrix = np.array([[5, bignat.RADIX], [-1, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match=rf"^limb {bignat.RADIX} out of range"):
            BigNat.from_limb_rows(matrix)

    @pytest.mark.parametrize("matrix", [np.arange(4), np.ones((2, 2)), [[1.5]]])
    def test_rejects_what_is_not_an_integer_matrix(self, matrix):
        with pytest.raises(ValueError, match="2-D integer array"):
            BigNat.from_limb_rows(matrix)


class TestComparison:
    def test_equal(self):
        x = BigNat.from_decimal("31415926535897932384626")
        assert x.compare(x) == 0 and x == BigNat.from_decimal("31415926535897932384626")

    def test_power_of_ten_vs_central(self):
        assert BigNat(10).pow(3).compare(BigNat(126)) == 1
        assert BigNat(10).pow(2).compare(BigNat(126)) == -1

    def test_successor_via_add(self):
        rng = random.Random(5)
        for _ in range(50):
            a = BigNat(rng.randrange(10**40))
            assert a.compare(a + BigNat(1)) == -1

    def test_ordering_operators(self):
        assert BigNat(2) < BigNat(3) <= BigNat(3) < BigNat(10**9)
        assert BigNat(10**9) > BigNat(3) >= BigNat(3)
        assert not BigNat(3) > BigNat(3) and not BigNat(2) >= BigNat(3)

    def test_other_types_do_not_compare(self):
        x = BigNat(3)
        for other in (5, 3.0, "3"):
            for compare in (
                lambda: x < other,
                lambda: x <= other,
                lambda: x > other,
                lambda: x >= other,
                lambda: other < x,
                lambda: x.compare(other),
            ):
                with pytest.raises(TypeError):
                    compare()
        assert x != 3


class TestDigitCount:
    def test_small(self):
        assert BigNat(1).digit_count() == 1
        assert BigNat(0).digit_count() == 1
        assert BigNat(126).digit_count() == 3

    def test_central_coefficient_of_row_51(self):
        assert BigNat.from_decimal("247959266474052").digit_count() == 15


class TestScalarOps:
    def test_mul_small(self):
        assert BigNat(126).mul_small(4) == BigNat(504)
        assert BigNat(0).mul_small(9) == BigNat(0)
        with pytest.raises(ValueError):
            BigNat(1).mul_small(bignat.RADIX)
        with pytest.raises(ValueError):
            BigNat(1).mul_small(-1)

    def test_mul_small_takes_integers_only(self):
        with pytest.raises(TypeError):
            BigNat(5).mul_small(2.5)
        product = BigNat(5).mul_small(np.int64(3))
        assert product == BigNat(15) and type(product.limbs[0]) is int

    def test_divmod_small(self):
        quotient, remainder = BigNat(1000001).divmod_small(7)
        assert (quotient.to_int(), remainder) == divmod(1000001, 7)
        with pytest.raises(ValueError):
            BigNat(1).divmod_small(0)

    def test_divmod_small_takes_integers_only(self):
        with pytest.raises(TypeError):
            BigNat(7).divmod_small(2.0)
        quotient, remainder = BigNat(7).divmod_small(np.int64(2))
        assert (quotient, remainder) == (BigNat(3), 1) and type(remainder) is int

    def test_pow10(self):
        assert str(pow10(0)) == "1"
        assert str(pow10(15)) == "1" + "0" * 15
        with pytest.raises(ValueError):
            pow10(-1)


class TestThresholdConfig:
    def test_set_and_get(self):
        bignat.set_karatsuba_threshold(17)
        assert bignat.karatsuba_threshold() == 17

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "8"])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            bignat.set_karatsuba_threshold(bad)

    def test_product_unchanged_by_threshold(self):
        a = BigNat.from_decimal("9" * 400)
        b = BigNat.from_decimal("123456" * 60)
        bignat.set_karatsuba_threshold(2)
        low = a * b
        bignat.set_karatsuba_threshold(10_000)
        high = a * b
        assert low == high


@given(naturals)
def test_roundtrip_through_decimal(value):
    assert BigNat.from_decimal(str(value)).to_int() == value
    assert BigNat(value).to_decimal() == str(value)


@given(st.text(alphabet="0123456789", min_size=1, max_size=500))
def test_roundtrip_with_leading_zeros(text):
    parsed = BigNat.from_decimal(text)
    assert parsed.to_decimal() == (text.lstrip("0") or "0")


@given(naturals, naturals, naturals)
def test_ring_laws(a, b, c):
    x, y, z = BigNat(a), BigNat(b), BigNat(c)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(naturals, st.integers(min_value=0, max_value=350))
def test_split_reconstruction(value, k):
    x = BigNat(value)
    quotient, remainder = x.split_pow10(k)
    assert quotient * pow10(k) + remainder == x
    assert remainder.compare(pow10(k)) == -1


@given(machine_ints, machine_ints)
def test_small_number_agreement(a, b):
    x, y = BigNat(a), BigNat(b)
    assert (x + y).to_int() == a + b
    assert (x * y).to_int() == a * b
    assert x.compare(y) == (a > b) - (a < b)
    assert x.digit_count() == len(str(a))


@given(naturals, naturals)
def test_quadratic_and_subquadratic_agree(a, b):
    x, y = BigNat(a), BigNat(b)
    assert mul_quadratic(x, y) == mul_subquadratic(x, y) == BigNat(a * b)
