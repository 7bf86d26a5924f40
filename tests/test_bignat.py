"""Unit and property tests for the limb arithmetic.

string_add below is the independent oracle for addition: plain digit-wise
schoolbook on decimal strings, sharing nothing with the limb code.
"""

import random
from math import comb

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
            (2, 3000, True),
        ],
    )
    def test_subquadratic_large_operands_against_int(self, la, lb, all_nines):
        # Above 512 limbs the Karatsuba recursion runs; all-nine limbs give
        # the largest column sums and the longest carry ripples, and 1:30
        # shapes recurse on unequal halves. Each factor is also squared,
        # the product that powering makes most.
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

    def test_counter_counts_products(self):
        bignat.reset_mul_counter()
        BigNat(3) * BigNat(4)
        BigNat(5).mul_small(6)
        assert bignat.mul_counter() == 2
        bignat.reset_mul_counter()
        assert bignat.mul_counter() == 0


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
        with pytest.raises(ValueError, match="block width"):
            BigNat.from_blocks([BigNat(1)], width)


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

    def test_divmod_small(self):
        quotient, remainder = BigNat(1000001).divmod_small(7)
        assert (quotient.to_int(), remainder) == divmod(1000001, 7)
        with pytest.raises(ValueError):
            BigNat(1).divmod_small(0)

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
