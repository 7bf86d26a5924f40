"""Tests for the block-partition construction and its executable checks."""

import json
import random
import tracemalloc
from collections import Counter
from math import comb, prod

import numpy as np
import pytest

from pascalrow import oracle, rowgen
from pascalrow.bignat import RADIX, BigNat, pow10
from pascalrow.row import Method
from pascalrow.verify_bench import verify_range


class TestTheta:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0), (9, 2), (10, 2), (15, 3), (16, 4), (51, 14)]
    )
    def test_known_values(self, n, expected):
        geometry = rowgen.theta(n)
        assert geometry.theta == expected
        assert geometry.block_width == expected + 1

    def test_bracketing_inequalities(self):
        for n in (1, 5, 9, 10, 33, 100, 251):
            geometry = rowgen.theta(n)
            central = oracle.binomial(n, n // 2)
            assert pow10(geometry.theta).compare(central) <= 0
            assert central.compare(pow10(geometry.theta + 1)) == -1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rowgen.theta(-1)

    @pytest.mark.parametrize(
        "n,message",
        [
            (-1, "row index must be >= 0, got -1"),
            (10**7, "row index 10000000 too large for scalar recurrence steps"),
        ],
    )
    def test_guard_messages(self, n, message):
        with pytest.raises(ValueError) as excinfo:
            rowgen.theta(n)
        assert str(excinfo.value) == message


    def test_math_comb_oracle(self):
        # math.comb shares nothing with the prime factorisation theta is built from.
        rng = random.Random(314)
        for n in [0, 1, 2, 9, 10, 16, 51, *rng.sample(range(52, 400), 6)]:
            assert rowgen.theta(n).theta == len(str(comb(n, n // 2))) - 1


def _prime_factors(value):
    # Trial division, ascending; value < RADIX, so divisors stay below 3163.
    primes, d = [], 2
    while d * d <= value:
        while value % d == 0:
            primes.append(d)
            value //= d
        d += 1
    return primes + [value] if value > 1 else primes


class TestCentralCoefficient:
    def test_equals_math_comb(self):
        for n in [*range(2001), 4000, 10**4]:
            assert rowgen.central_coefficient(n).to_int() == comb(n, n // 2), n

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 100, 1810, 4000])
    def test_one_scalar_step_per_packed_factor(self, n, monkeypatch):
        factors = rowgen._central_factors(n)
        assert all(1 < factor < RADIX for factor in factors)
        steps = []
        mul_small = BigNat.mul_small

        def counted(self, factor):
            steps.append(factor)
            return mul_small(self, factor)

        monkeypatch.setattr(BigNat, "mul_small", counted)
        monkeypatch.setattr(BigNat, "divmod_small", None)
        monkeypatch.setattr(oracle, "binomial", None)
        rowgen.central_coefficient(n)
        assert steps == factors

    def test_factors_packed_greedily(self):
        # Primes ascending, each prime as often as it divides C(n, n//2);
        # a factor is closed only when the next prime would reach RADIX.
        factors = rowgen._central_factors(1810)
        assert prod(factors) == comb(1810, 905)
        split = [_prime_factors(factor) for factor in factors]
        primes = [p for part in split for p in part]
        assert primes == sorted(primes)
        for factor, following in zip(factors, split[1:]):
            assert factor * following[0] >= RADIX


class TestElevenVariant:
    @pytest.mark.parametrize(
        "theta_value,expected",
        [(0, "11"), (2, "1001"), (14, "1000000000000001")],
    )
    def test_rendering(self, theta_value, expected):
        geometry = rowgen.ThetaResult(
            n=0, theta=theta_value, block_width=theta_value + 1
        )
        assert str(rowgen.eleven_variant(geometry)) == expected

    def test_shape_is_one_zeros_one(self):
        for n in (0, 7, 23, 64):
            text = str(rowgen.eleven_variant(rowgen.theta(n)))
            assert text[0] == text[-1] == "1"
            assert set(text[1:-1]) <= {"0"}


class TestPowerInteger:
    def test_exponent_zero(self):
        assert rowgen.power_integer(0) == BigNat(1)

    def test_golden_row_16(self):
        assert str(rowgen.power_integer(16)) == (
            "1000160012000560018200436808008114401287011440080080436801820"
            "00560001200001600001"
        )

    def test_digit_length_law(self):
        for n in (0, 1, 9, 16, 51, 120):
            geometry = rowgen.theta(n)
            assert (
                rowgen.power_integer(n).digit_count()
                == n * geometry.block_width + 1
            )


class TestPartitionBlocks:
    def test_single_digit_blocks(self):
        blocks = rowgen.partition_blocks(BigNat(14641), 1, 5)
        assert [b.to_int() for b in blocks] == [1, 4, 6, 4, 1]

    def test_three_wide_blocks_of_row_nine(self):
        blocks = rowgen.partition_blocks(BigNat(1001).pow(9), 3, 10)
        assert [b.to_int() for b in blocks] == [1, 9, 36, 84, 126, 126, 84, 36, 9, 1]
        assert [b.to_int() for b in reversed(blocks)] == [comb(9, k) for k in range(10)]

    def test_zero_value(self):
        assert rowgen.partition_blocks(BigNat(0), 5, 1) == [BigNat(0)]

    def test_high_zero_blocks_padded(self):
        assert [b.to_int() for b in rowgen.partition_blocks(BigNat(7), 3, 4)] == [7, 0, 0, 0]

    def test_overflowing_value_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            rowgen.partition_blocks(BigNat(12345), 2, 2)

    @pytest.mark.parametrize("width,count", [(0, 1), (3, 0)])
    def test_degenerate_shapes_rejected(self, width, count):
        with pytest.raises(ValueError):
            rowgen.partition_blocks(BigNat(1), width, count)

    def test_random_against_int_oracle(self):
        rng = random.Random(271828)
        for _ in range(150):
            width = rng.randint(1, 23)
            count = rng.randint(1, 40)
            value = rng.randrange(0, 10 ** (width * count))
            want = []
            rest = value
            for _ in range(count):
                rest, low = divmod(rest, 10**width)
                want.append(low)
            got = rowgen.partition_blocks(BigNat(value), width, count)
            assert [b.to_int() for b in got] == want

    def test_sparse_value_allocates_only_its_digits(self):
        # 10**4 blocks of 10**4 digits span 10**8 digits, of which one is
        # present: the zero blocks above it cost a list slot each. One block
        # of 10**6 digits holds one digit: its limb columns past the
        # number's single limb are never computed.
        tracemalloc.start()
        try:
            blocks = rowgen.partition_blocks(BigNat(7), 10**4, 10**4)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            wide = BigNat(7).to_blocks(10**6, 2)
            _, wide_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocks == [BigNat(7)] + [BigNat(0)] * (10**4 - 1)
        assert peak < 10**6
        assert wide == [BigNat(7), BigNat(0)]
        assert wide_peak < 4 * 10**6

    def test_inverse_of_from_blocks(self):
        # Blocks below 10**width are cut back out exactly as they went in.
        rng = random.Random(161803)
        for _ in range(150):
            width = rng.randint(1, 30)
            blocks = [
                BigNat(rng.randrange(10 ** rng.randint(0, width)))
                for _ in range(rng.randint(1, 20))
            ]
            value = BigNat.from_blocks(blocks, width)
            assert rowgen.partition_blocks(value, width, len(blocks)) == blocks


class TestRowViaPower:
    def test_apex(self):
        row = rowgen.row_via_power(0)
        assert [c.to_int() for c in row.coefficients] == [1]
        assert row.method is Method.POWER_PARTITION

    def test_row_15_golden_listing(self):
        assert [c.to_int() for c in rowgen.row_via_power(15).coefficients] == [
            1, 15, 105, 455, 1365, 3003, 5005, 6435,
            6435, 5005, 3003, 1365, 455, 105, 15, 1,
        ]

    def test_row_51_showcase(self):
        row = rowgen.row_via_power(51)
        assert len(row.coefficients) == 52
        assert row.coefficients[25].to_int() == 247959266474052
        assert row.coefficients[26].to_int() == 247959266474052
        assert row == oracle.row_multiplicative(51)

    def test_matches_math_comb(self):
        rng = random.Random(2718)
        for n in [0, 1, 9, 16, 51, *rng.sample(range(52, 400), 6)]:
            row = rowgen.row_via_power(n)
            assert [c.to_int() for c in row.coefficients] == [
                comb(n, k) for k in range(n + 1)
            ]

    @pytest.mark.parametrize("n", [255, 256, 257, 1810])
    def test_rows_either_side_of_the_cut_chunk(self, n):
        # n + 1 = 256, 257 and 258 blocks, the shapes a chunked cut of 128
        # blocks once had to straddle, kept as long rows of sub-limb
        # shifts. 1810 is the benchmark's million-digit row.
        row = rowgen.row_via_power(n)
        assert [c.to_int() for c in row.coefficients] == [
            comb(n, k) for k in range(n + 1)
        ]

    def test_blocks_stay_below_width_bound(self):
        for n in (0, 5, 9, 33, 80):
            geometry = rowgen.theta(n)
            row = rowgen.row_via_power(n)
            bound = pow10(geometry.block_width)
            assert all(c.compare(bound) == -1 for c in row.coefficients)
            assert max(row.coefficients) == oracle.binomial(n, n // 2)


class TestResiduePartialSum:
    def test_lowest_block_is_one(self):
        for n in (0, 3, 9, 28, 51):
            assert rowgen.residue_partial_sum(n, 1) == BigNat(1)

    def test_three_blocks_of_row_nine(self):
        assert rowgen.residue_partial_sum(9, 3) == BigNat(36009001)

    def test_two_blocks_of_row_51(self):
        assert rowgen.residue_partial_sum(51, 2) == BigNat(51 * 10**15 + 1)

    def test_full_residue_reconstructs_power(self):
        for n in (0, 1, 9, 16, 51):
            assert rowgen.residue_partial_sum(n, n + 1) == rowgen.power_integer(n)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            rowgen.residue_partial_sum(5, 0)
        with pytest.raises(ValueError):
            rowgen.residue_partial_sum(5, 7)

    def test_mismatch_raises_with_detail(self, monkeypatch):
        # Corrupt the oracle's C(9, 1) so the truncated sum disagrees with
        # the power's digits.
        recurrence = oracle._multiplicative

        def broken(n, k):
            for j, value in enumerate(recurrence(n, k)):
                yield BigNat(8) if j == 1 else value

        monkeypatch.setattr(oracle, "_multiplicative", broken)
        with pytest.raises(rowgen.ResidueMismatchError) as excinfo:
            rowgen.residue_partial_sum(9, 2)
        err = excinfo.value
        assert (err.n, err.r) == (9, 2)
        assert err.expected == "8001"
        assert err.actual == "9001"


class TestResiduesFromTheMatrix:
    @pytest.mark.parametrize("n", [0, 1, 9, 16, 51, 120])
    def test_sums_are_the_prefix_sums_of_the_row(self, n):
        # The one lay-down of a fitting row, cut at every block count, is
        # the per-cut sum of its first r coefficients, and it equals the
        # power, so no block count is left unsettled.
        matrix = next(oracle.iter_multiplicative_matrices(n))
        width = rowgen.theta(n).block_width
        power = rowgen.power_integer(n)
        laid = BigNat.from_block_matrix(matrix, width)
        assert [laid.low_digits(r * width) for r in range(1, n + 2)] == [
            rowgen.residue(n, r).truncated_sum for r in range(1, n + 2)
        ]
        assert laid == power
        assert rowgen.unsettled_residues(power, matrix, range(1, n + 2)) == []

    def test_wider_coefficient_takes_the_per_cut_sums(self):
        # C(9, 4) planted as 1126, one digit wider than the width 3: its
        # block carries into the next, so the sum of five blocks has 16
        # digits and breaks the bound; six blocks absorb the carry.
        matrix = next(oracle.iter_multiplicative_matrices(9)).copy()
        matrix[4, 0] += 1000
        rs = list(range(1, 11))
        got = rowgen.unsettled_residues(rowgen.power_integer(9), matrix, rs)
        assert [residue.truncated_sum for residue in got] == [
            BigNat.from_blocks(BigNat.from_limb_rows(matrix)[:r], 3) for r in rs
        ]
        assert [residue.r for residue in got if not residue.within_bound] == [5]
        assert [residue.r for residue in got if residue.mismatch] == [5, 6, 7, 8, 9, 10]
        assert got[4].mismatch == ("1126084036009001", "126084036009001")


class TestLeadingBlock:
    def test_first_block(self):
        for n in (0, 4, 17):
            assert rowgen.leading_block_of_residue(n, 1) == BigNat(1)

    def test_fifth_block_of_row_nine(self):
        assert rowgen.leading_block_of_residue(9, 5) == BigNat(126)

    def test_central_block_of_row_16(self):
        assert rowgen.leading_block_of_residue(16, 9) == BigNat(12870)

    def test_matches_binomial_for_row_33(self):
        for r in range(1, 35):
            assert rowgen.leading_block_of_residue(33, r) == oracle.binomial(33, r - 1)


def test_residue_steps_the_recurrence_only_up_to_its_top_block(monkeypatch):
    # residue(n, r) needs C(n, 0) .. C(n, r-1): r - 1 scalar steps of the
    # within-row recurrence, each one mul_small and one divmod_small, and
    # none for the rest of the row. Theta and the power are cached first.
    rowgen.power_integer(300)
    steps = Counter()
    for name in ("mul_small", "divmod_small"):
        original = getattr(BigNat, name)

        def counted(self, scalar, name=name, original=original):
            steps[name] += 1
            return original(self, scalar)

        monkeypatch.setattr(BigNat, name, counted)
    for r, expected in ((1, 0), (5, 4), (301, 300)):
        steps.clear()
        residue = rowgen.residue(300, r)
        assert (steps["mul_small"], steps["divmod_small"]) == (expected, expected)
        assert residue.mismatch is None


class TestLemma1Bound:
    def test_row_four_all_blocks(self):
        assert rowgen.lemma1_bound_check(4, 5)

    def test_first_block_always_safe(self):
        assert all(rowgen.lemma1_bound_check(n, 1) for n in range(30))

    def test_exhaustive_small_sweep(self):
        for n in range(61):
            for r in range(1, n + 2):
                assert rowgen.lemma1_bound_check(n, r), (n, r)


def test_weighted_sum_is_power_of_eleven():
    for n in (0, 1, 5, 9, 12, 30):
        total = BigNat(0)
        for coefficient in reversed(oracle.row_multiplicative(n).coefficients):
            total = total.mul_small(10) + coefficient
        assert total == BigNat(11).pow(n)


def test_caches_hold_the_last_row_only():
    # Eight rows in turn leave one geometry and one power behind, those of
    # the last row; asking for it again is a hit.
    rowgen.clear_caches()
    for n in range(40, 48):
        rowgen.row_via_power(n)
    assert rowgen.theta.cache_info().currsize == 1
    assert rowgen.power_integer.cache_info().currsize == 1
    hits = rowgen.power_integer.cache_info().hits
    assert rowgen.power_integer(47) == rowgen.eleven_variant(rowgen.theta(47)).pow(47)
    assert rowgen.power_integer.cache_info().hits == hits + 1


def test_one_row_is_one_cache_key():
    # A numpy row index becomes the int key power_integer asks theta for, so
    # C(6, 3) is built once.
    rowgen.clear_caches()
    rowgen.row_via_power(np.int64(6))
    info = rowgen.theta.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_clear_caches_leaves_results_unchanged():
    rowgen.clear_caches()
    before = rowgen.row_via_power(40)
    rowgen.clear_caches()
    assert rowgen.row_via_power(40) == before


@pytest.mark.parametrize(
    "call",
    [
        lambda: rowgen.unsettled_residues(
            BigNat(1331), next(oracle.iter_multiplicative_matrices(3)), [9]
        ),
        lambda: oracle.iter_recurrence_rows(-1),
        lambda: oracle.iter_recurrence_rows(0, 0),
        lambda: oracle.iter_multiplicative_matrices(-1),
    ],
    ids=[
        "r-beyond-row", "negative-start", "zero-step", "negative-multiplicative-start",
    ],
)  # fmt: skip
def test_lazy_sums_check_their_arguments_at_the_call(call):
    # A bad argument raises at the call: before any next() of an iterator,
    # before any residue is built.
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda: rowgen.row_via_power(np.int64(6)).n, 6),
        (lambda: rowgen.theta(np.int64(7)).n, 7),
        (lambda: oracle.row_recurrence(np.int64(3)).n, 3),
        (lambda: next(oracle.iter_recurrence_rows(np.int64(2), np.int64(3))).n, 2),
        (lambda: oracle.row_multiplicative(True).n, 1),
        (lambda: BigNat(np.int64(5)).to_int(), 5),
        (lambda: verify_range(np.int64(2), np.int64(3)).n_to, 3),
        (lambda: rowgen.theta(5.0), TypeError),
        (lambda: verify_range(0, 3.0), TypeError),
        (lambda: oracle.binomial(-1.0, 0), TypeError),
        (lambda: oracle.central_digit_count(-1.0), TypeError),
    ],
    ids=[
        "row_via_power", "theta", "row_recurrence", "iter_recurrence_rows",
        "row_multiplicative-bool", "BigNat", "verify_range", "theta-float",
        "verify_range-float", "binomial-float",
        "central_digit_count-float",
    ],
)  # fmt: skip
def test_row_indices_and_values_enter_as_int(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected, match="cannot be interpreted as an integer"):
            call()
    else:
        got = call()
        assert type(got) is int and got == expected
        assert json.dumps(got) == str(expected)
