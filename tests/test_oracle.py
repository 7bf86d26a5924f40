"""Oracle tests: both row derivations against each other and math.comb."""

import random
from itertools import islice
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pascalrow import oracle
from pascalrow.bignat import RADIX, BigNat
from pascalrow.row import Method


class TestBinomial:
    def test_left_edge(self):
        for n in (0, 1, 17, 200):
            assert oracle.binomial(n, 0) == BigNat(1)

    def test_golden_central_values(self):
        assert oracle.binomial(9, 4) == BigNat(126)
        assert oracle.binomial(10, 5) == BigNat(252)

    @pytest.mark.parametrize("n,k", [(3, 4), (-1, 0), (5, -2)])
    def test_rejects_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            oracle.binomial(n, k)

    @given(st.integers(min_value=0, max_value=300), st.data())
    def test_matches_math_comb(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        assert oracle.binomial(n, k).to_int() == comb(n, k)

    @given(st.integers(min_value=1, max_value=250), st.data())
    def test_symmetry_and_additive_rule(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        assert oracle.binomial(n, k) == oracle.binomial(n, n - k)
        if 1 <= k <= n - 1:
            assert oracle.binomial(n, k) == (
                oracle.binomial(n - 1, k - 1) + oracle.binomial(n - 1, k)
            )


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: oracle.binomial(-1, 0), "binomial needs 0 <= k <= n, got n=-1 k=0"),
        (lambda: oracle.binomial(10**7, 0), "row index 10000000 too large for scalar recurrence steps"),
        (lambda: oracle.row_multiplicative(-1), "row index must be >= 0, got -1"),
        (lambda: oracle.row_multiplicative(10**7), "row index 10000000 too large for scalar recurrence steps"),
        (lambda: oracle.central_digit_count(-1), "row index must be >= 0, got -1"),
        (lambda: oracle.central_digit_count(10**7), "row index 10000000 too large for scalar recurrence steps"),
    ],
    ids=[
        "binomial-negative", "binomial-too-large",
        "row_multiplicative-negative", "row_multiplicative-too-large",
        "central_digit_count-negative", "central_digit_count-too-large",
    ],
)  # fmt: skip
def test_guard_messages(call, message):
    # The guards refuse up front: no step is taken at n = 10**7.
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


class TestRowMultiplicative:
    def test_small_rows(self):
        assert [c.to_int() for c in oracle.row_multiplicative(2).coefficients] == [1, 2, 1]
        assert [c.to_int() for c in oracle.row_multiplicative(6).coefficients] == [
            1, 6, 15, 20, 15, 6, 1,
        ]

    def test_row_20_central(self):
        assert oracle.row_multiplicative(20).coefficients[10].to_int() == 184756

    def test_method_tag(self):
        assert oracle.row_multiplicative(3).method is Method.MULTIPLICATIVE

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            oracle.row_multiplicative(-1)


class TestMultiplicativeMatrices:
    @staticmethod
    def rows(start, count):
        return enumerate(islice(oracle.iter_multiplicative_matrices(start), count), start)

    @pytest.mark.parametrize("start", [0, 1, 9, 228])
    def test_steps_against_comb(self, start):
        # 30 rows from each start; rows 26, 237 and 261 each take one more
        # limb column than the row before.
        limbs = set()
        for n, matrix in self.rows(start, 30):
            assert matrix.dtype == np.int64
            assert [c.to_int() for c in BigNat.from_limb_rows(matrix)] == [
                comb(n, k) for k in range(n + 1)
            ], n
            limbs.add(matrix.shape[1])
        assert len(limbs) > 1

    def test_steps_from_1800(self):
        # Row 1800 from the within-row recurrence, then 20 steps; row 1820
        # takes one more limb column. math.comb is the slow side, so the
        # first row and those around the growth are compared.
        shapes = {}
        for n, matrix in self.rows(1800, 21):
            shapes[n] = matrix.shape
            if n in (1800, 1801, 1819, 1820):
                assert [str(c) for c in BigNat.from_limb_rows(matrix)] == [
                    str(comb(n, k)) for k in range(n + 1)
                ], n
        assert shapes[1820][1] == shapes[1819][1] + 1

    def test_step_carries_and_divides_across_limbs(self):
        # Row k of a crafted matrix is (n - k) * q_k, so the step must give
        # n * q_k exactly, then the appended 1; q_k are runs of 9s, zeros
        # and random limbs. Near RADIX only the first 40 rows are crafted:
        # there each limb times n is near RADIX**2.
        rng = random.Random(23)
        for n in (1, 2, 7, 40, RADIX - 1):
            quotients = [
                rng.choice((0, 1, RADIX**3 - 1, rng.randrange(RADIX**4)))
                for _ in range(min(n, 40))
            ]
            matrix = BigNat.to_limb_rows(
                [BigNat((n - k) * q) for k, q in enumerate(quotients)]
            ).astype(np.int64)
            got = oracle._next_multiplicative_matrix(matrix, n)
            assert got.min() >= 0 and got.max() < RADIX
            assert [c.to_int() for c in BigNat.from_limb_rows(got)] == [
                n * q for q in quotients
            ] + [1], n

    def test_inexact_step_raises(self):
        # C(6, 2) planted as 16: C(7, 2) would be 16 * 7 / 5.
        matrix = next(oracle.iter_multiplicative_matrices(6)).copy()
        matrix[2, 0] += 1
        with pytest.raises(
            ArithmeticError, match="inexact division by 5 in multiplicative step to row 7"
        ):
            oracle._next_multiplicative_matrix(matrix, 7)

    def test_start_checked_at_the_call(self):
        with pytest.raises(ValueError, match="row index must be >= 0, got -1"):
            oracle.iter_multiplicative_matrices(-1)

    def test_no_step_past_the_scalar_reach(self, monkeypatch):
        # A stand-in row RADIX - 1 (its true numbers take 10**7 scalar
        # steps): the step to row RADIX is refused, not taken.
        monkeypatch.setattr(oracle, "_multiplicative", lambda n, k: iter([BigNat(1)]))
        matrices = oracle.iter_multiplicative_matrices(RADIX - 1)
        next(matrices)
        with pytest.raises(ValueError, match="row index 10000000 too large"):
            next(matrices)


class TestRowRecurrence:
    def test_apex(self):
        row = oracle.row_recurrence(0)
        assert [c.to_int() for c in row.coefficients] == [1]
        assert row.method is Method.RECURRENCE

    def test_row_three_from_row_two(self):
        assert [c.to_int() for c in oracle.row_recurrence(3).coefficients] == [1, 3, 3, 1]

    def test_row_nine(self):
        assert [c.to_int() for c in oracle.row_recurrence(9).coefficients] == [
            1, 9, 36, 84, 126, 126, 84, 36, 9, 1,
        ]

    def test_iterator_matches_single_rows(self):
        for row in islice(oracle.iter_recurrence_rows(), 12):
            assert row == oracle.row_recurrence(row.n)

    def test_limb_matrix_against_comb(self):
        # Rows 0..300 cross many limb-column growths and carry ripples.
        for row in islice(oracle.iter_recurrence_rows(), 301):
            assert [c.to_int() for c in row.coefficients] == [
                comb(row.n, k) for k in range(row.n + 1)
            ], row.n
        row = oracle.row_recurrence(1000)
        assert [c.to_int() for c in row.coefficients] == [
            comb(1000, k) for k in range(1001)
        ]

    def test_carry_ripples_across_limbs(self):
        # Rows 0..2216 never carry twice in one step, so the limb-matrix
        # step is checked on crafted rows whose limb sums land on
        # RADIX - 1 and then take a carry from below.
        top = RADIX - 1
        rng = random.Random(99)
        cases = [[[top, 4_000_000], [1, 5_999_999]], [[top, top, top], [1, 0, 0]]]
        for _ in range(200):
            rows, limbs = rng.randint(1, 6), rng.randint(1, 5)
            cases.append(
                [[rng.choice((0, 1, top - 1, top)) for _ in range(limbs)]
                 for _ in range(rows)]
            )  # fmt: skip
        def values(matrix):
            return [sum(x * RADIX**i for i, x in enumerate(row)) for row in matrix]

        for case in cases:
            previous = values(case)
            got = oracle._next_limb_matrix(np.array(case, dtype=np.int64))
            assert got.min() >= 0 and got.max() < RADIX
            assert values(got.tolist()) == [
                a + b for a, b in zip([0] + previous, previous + [0])
            ], case

    def test_iterator_start(self):
        rows = oracle.iter_recurrence_rows(37)
        assert [next(rows).n for _ in range(3)] == [37, 38, 39]
        assert next(oracle.iter_recurrence_rows(12)) == oracle.row_recurrence(12)

    def test_rows_before_start_not_converted(self, monkeypatch):
        # One limb-matrix conversion per yielded row, of that row only.
        converted = []
        original = BigNat.from_limb_rows
        monkeypatch.setattr(
            BigNat,
            "from_limb_rows",
            lambda matrix: converted.append(len(matrix)) or original(matrix),
        )
        oracle.row_recurrence(200)
        assert converted == [201]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            oracle.row_recurrence(-1)
        with pytest.raises(ValueError):
            next(oracle.iter_recurrence_rows(-1))


def test_oracles_cross_agree():
    for n in range(41):
        assert (
            oracle.row_multiplicative(n).coefficients
            == oracle.row_recurrence(n).coefficients
        )


class TestCentralDigitCount:
    @pytest.mark.parametrize("n,digits", [(0, 1), (4, 1), (9, 3), (10, 3), (100, 30)])
    def test_known_values(self, n, digits):
        assert oracle.central_digit_count(n) == digits
