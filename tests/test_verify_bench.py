"""Tests for the sweep, the benchmark harness and report emission."""

import concurrent.futures
import hashlib
import io
import json
import os
from collections import Counter

import pytest

from pascalrow import bignat, oracle, rowgen, verify_bench
from pascalrow.bignat import RADIX, BigNat, pow10
from pascalrow.row import Method
from pascalrow.verify_bench import (
    BENCH_CSV_HEADER,
    CHECK_NAMES,
    BenchRecord,
    RowVerification,
    bench_methods,
    emit_report,
    verify_range,
    verify_range_parallel,
)


def _emitted(report):
    texts = {}
    for fmt in ("jsonl", "csv"):
        buffer = io.StringIO()
        emit_report(report, fmt, buffer)
        texts[fmt] = buffer.getvalue()
    return texts


def _threshold_probe(first, last, selected, residue_samples, seed):
    # Stands in for _check_rows in a worker: reports, as each row's theta,
    # the multiplication threshold the worker process sees.
    return [
        RowVerification(n, bignat.karatsuba_threshold(), {})
        for n in range(first, last + 1)
    ]


class TestVerifyRange:
    def test_first_five_rows_pass(self):
        report = verify_range(0, 4, residue_samples=1)
        assert report.passed
        assert [r.n for r in report.results] == [0, 1, 2, 3, 4]
        assert all(r.theta == 0 for r in report.results)
        assert all(set(r.checks) == set(CHECK_NAMES) for r in report.results)

    def test_rows_nine_and_ten(self):
        report = verify_range(9, 10, residue_samples=3)
        assert report.passed
        assert [r.theta for r in report.results] == [2, 2]

    def test_check_subset(self):
        report = verify_range(3, 5, checks=["symmetry", "row_sum"])
        assert report.checks == ("symmetry", "row_sum")
        assert all(set(r.checks) == {"symmetry", "row_sum"} for r in report.results)

    def test_empty_check_list_rejected(self):
        with pytest.raises(ValueError, match="no checks"):
            verify_range(0, 2, checks=[])

    def test_each_fact_built_once_per_row_and_block_count(self, monkeypatch):
        rowgen.clear_caches()
        calls = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(BigNat, "from_blocks")
        counted(BigNat, "from_block_matrix")
        counted(oracle, "row_multiplicative")
        counted(oracle, "iter_multiplicative_matrices")
        counted(oracle, "_multiplicative")
        counted(oracle, "_next_multiplicative_matrix")
        counted(oracle, "binomial")
        counted(rowgen, "central_coefficient")
        verify_range(0, 40, residue_samples=5, seed=0)
        # Per row: one lay-down of the oracle's matrix at the block width,
        # compared once with the power, settles all its sampled block counts;
        # one more at width 1 builds the weighted sum, and the power's limb
        # matrix laid down at width 0 is the row sum. The oracle's row 0
        # comes from the within-row recurrence and each later row is one
        # step from the row before, so oracle.row_multiplicative is never
        # called; neither is from_blocks. One central coefficient per row
        # from its prime factors (for theta). The digit_length check reads
        # the oracle's central coefficient off its matrix, so
        # oracle.binomial is never called.
        assert calls == {
            "from_block_matrix": 41 + 41 + 41,
            "iter_multiplicative_matrices": 1,
            "_multiplicative": 1,
            "_next_multiplicative_matrix": 40,
            "central_coefficient": 41,
        }

    def test_warm_sweep_reads_the_oracle_it_is_given(self, bump_multiplicative):
        # A sweep keeps no oracle row past the row it checks: after a passing
        # sweep over 5..6, an oracle with C(n, 1) off by one must fail the
        # same sweep run again in the same process.
        assert verify_range(5, 6).passed
        bump_multiplicative(1)
        report = verify_range(5, 6)
        failing = {"row_equality", "residue_identity", "leading_block", "weighted_sum_11"}
        for result in report.results:
            assert result.checks == {name: name not in failing for name in CHECK_NAMES}

    def test_rows_before_range_not_converted(self, monkeypatch):
        # The sweep compares the additive oracle's limb matrices as they
        # are stepped, so no row of it, before the range or in it, becomes
        # BigNat coefficients. Counted at the oracle's own reference: the
        # failure details convert limb matrices too.
        converted = []

        class CountingBigNat(BigNat):
            @staticmethod
            def from_limb_rows(matrix):
                converted.append(len(matrix))
                return BigNat.from_limb_rows(matrix)

        monkeypatch.setattr(oracle, "BigNat", CountingBigNat)
        report = verify_range(150, 152, checks=["row_equality"])
        assert report.passed
        assert converted == []

    def test_run_steps_the_additive_oracle_from_the_apex(self, monkeypatch):
        # A worker's loop over one contiguous run: the additive oracle steps
        # its matrix from row 0 to 150, then once per row up to 158, and
        # converts none of its rows.
        converted, steps = [], []

        class CountingBigNat(BigNat):
            @staticmethod
            def from_limb_rows(matrix):
                converted.append(len(matrix))
                return BigNat.from_limb_rows(matrix)

        step = oracle._next_limb_matrix
        monkeypatch.setattr(oracle, "BigNat", CountingBigNat)
        monkeypatch.setattr(
            oracle, "_next_limb_matrix", lambda matrix: steps.append(1) or step(matrix)
        )
        results = verify_bench._check_rows(150, 158, ("row_equality",), 1, 0)
        assert [(result.n, result.passed) for result in results] == [
            (n, True) for n in range(150, 159)
        ]
        assert (converted, len(steps)) == ([], 158)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            verify_range(0, 1, checks=["row_equality", "bogus"])

    @pytest.mark.parametrize("run", [verify_range, verify_range_parallel])
    def test_string_of_checks_rejected(self, run):
        # A string is a sequence of one-letter names: it is refused whole,
        # not as the unknown checks '_', 'm', 'o', ...
        with pytest.raises(TypeError, match="sequence of check names.*'row_sum'"):
            run(0, 2, checks="row_sum")

    @pytest.mark.parametrize("args", [(-1, 3), (5, 2)])
    def test_bad_range_rejected(self, args):
        with pytest.raises(ValueError):
            verify_range(*args)

    def test_bad_samples_rejected(self):
        with pytest.raises(ValueError):
            verify_range(0, 1, residue_samples=0)

    def test_deterministic_given_seed(self):
        first, second = io.StringIO(), io.StringIO()
        emit_report(verify_range(0, 25, residue_samples=4, seed=11), "jsonl", first)
        emit_report(verify_range(0, 25, residue_samples=4, seed=11), "jsonl", second)
        assert first.getvalue() == second.getvalue()

    def test_failure_recorded_as_data(self, bump_multiplicative):
        # C(n, n) raised by 10**width no longer fits its block, so the sum
        # of all n + 1 blocks has one digit too many: lemma 1 fails at
        # r = n + 1, which every row samples (rows 5 and 6 have width 2).
        # The oracle row then differs from the power's; the power's own
        # symmetry still holds.
        bump_multiplicative(-1, wider=True)
        report = verify_range(5, 6, residue_samples=1)
        assert not report.passed
        for result in report.results:
            assert result.checks["lemma1_bound"] is False
            assert [
                (f.r, f.expected, f.actual)
                for f in result.failures
                if f.check == "lemma1_bound"
            ] == [(result.n + 1, f"at most {2 * result.n + 2} digits", f"{2 * result.n + 3} digits")]
            assert result.checks["row_equality"] is False
            assert result.checks["symmetry"] is True

    def test_failure_detail_is_reproducible(self, monkeypatch):
        # C(7, 1) off by one in the power (a +1 in its block 1), so only
        # r >= 2 misses; seed 3 samples r = 1, 2 and 8. Each failure's
        # detail is what rowgen.residue gives for its (n, r) on its own.
        true_power = rowgen.power_integer
        monkeypatch.setattr(
            rowgen,
            "power_integer",
            lambda n: true_power(n) + pow10(rowgen.theta(n).block_width),
        )
        report = verify_range(7, 7, residue_samples=1, seed=3)
        result = report.results[0]
        assert result.checks["leading_block"] is False
        failures = [f for f in result.failures if f.check == "leading_block"]
        assert [(f.n, f.r) for f in failures] == [(7, 2), (7, 8)]
        for failure in failures:
            assert failure.expected != failure.actual
            assert (failure.expected, failure.actual) == rowgen.residue(7, failure.r).mismatch

    @pytest.mark.parametrize(
        "failing,expected,actual",
        [
            ("row_sum", 2**6, 2**6 + 1),
            ("weighted_sum_11", 11**6, 11**6 + 100),
        ],
        ids=["row_sum", "weighted_sum_11"],
    )
    def test_row_read_at_one_and_ten(
        self, monkeypatch, bump_multiplicative, failing, expected, actual
    ):
        # C(6, 2) off by one in the power row (a +1 in block 2 of its power,
        # width 2) moves its sum off 2**6; in the oracle row it moves the
        # row read at x = 10 off 11**6.
        if failing == "row_sum":
            true_power = rowgen.power_integer
            monkeypatch.setattr(
                rowgen,
                "power_integer",
                lambda n: true_power(n) + pow10(2 * rowgen.theta(n).block_width),
            )
        else:
            bump_multiplicative(2)
        result = verify_range(6, 6, checks=["row_sum", "weighted_sum_11"]).results[0]
        assert result.checks == {
            name: name != failing for name in ("row_sum", "weighted_sum_11")
        }
        assert [(f.check, f.r, f.expected, f.actual) for f in result.failures] == [
            (failing, None, str(expected), str(actual))
        ]

    def test_block_k_is_coefficient_k(self, monkeypatch):
        # A +1 planted in block 2 of row 6's power (width 2) is C(6, 2) off
        # by one: both oracles name k = 2, and symmetry compares it with
        # C(6, 4), which still reads 15.
        true_power = rowgen.power_integer

        def planted(n):
            return true_power(n) + pow10(2 * rowgen.theta(n).block_width)

        monkeypatch.setattr(rowgen, "power_integer", planted)
        result = verify_range(6, 6, checks=["row_equality", "symmetry"]).results[0]
        assert [(f.check, f.r, f.expected, f.actual) for f in result.failures] == [
            ("row_equality", 2, "multiplicative:15", "16"),
            ("row_equality", 2, "recurrence:15", "16"),
            ("symmetry", 2, "15", "16"),
        ]

    @pytest.mark.parametrize("n", [9, 30])
    def test_power_off_at_every_digit(self, monkeypatch, n):
        # +10**j in the power, for every j below the top sampled cut
        # (n + 1) * width: its low j digits still agree with the oracle's
        # lay-down and digit j does not, so the identity and the leading
        # block fail for exactly the r with r * width > j. Row 9 (width 3)
        # and row 30 (width 9) put j on both sides of limb edges (digits
        # 6/7, 13/14) and of block edges.
        true_power = rowgen.power_integer
        width = rowgen.theta(n).block_width
        checks = ["residue_identity", "leading_block"]
        for j in range((n + 1) * width):
            monkeypatch.setattr(
                rowgen, "power_integer", lambda m, j=j: true_power(m) + pow10(j)
            )
            result = verify_range(n, n, checks, residue_samples=10**9).results[0]
            details = [
                (r, *rowgen.residue(n, r).mismatch)
                for r in range(1, n + 2)
                if r * width > j
            ]
            assert [(f.check, f.r, f.expected, f.actual) for f in result.failures] == [
                (check, *detail) for check in checks for detail in details
            ], j

    def test_block_width_one_digit_too_wide_fails_digit_length(self, monkeypatch):
        # A width above the central coefficient's digit count still keeps
        # every block apart, and the power then has n * width + 1 digits
        # for that width; only the oracle's central coefficient shows the
        # width is not the least one.
        true_theta = rowgen.theta

        def wide(n):
            geometry = true_theta(n)
            return rowgen.ThetaResult(n, geometry.theta + 1, geometry.block_width + 1)

        rowgen.clear_caches()
        with monkeypatch.context() as patch:
            patch.setattr(rowgen, "theta", wide)
            report = verify_range(0, 60, residue_samples=2, seed=0)
        rowgen.clear_caches()
        for result in report.results:
            width = true_theta(result.n).block_width
            assert result.checks["digit_length"] is False
            assert [
                (f.r, f.expected, f.actual)
                for f in result.failures
                if f.check == "digit_length"
            ] == [(None, f"block width {width}", f"block width {width + 1}")]

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 120])
    def test_samples_stop_once_every_block_count_is_drawn(self, n):
        # 10**9 draws would take minutes; once all of 1..n+1 is drawn the
        # rest cannot change the set.
        for seed in (0, 5):
            assert verify_bench._sample_r_values(n, 10**9, seed) == list(range(1, n + 2))

    def test_report_unchanged_past_a_full_draw(self):
        # At 2000 samples every row of 0..30 already draws all its block
        # counts, so the sample count past that changes nothing.
        for n in range(31):
            assert verify_bench._sample_r_values(n, 2000, 0) == list(range(1, n + 2))
        full = _emitted(verify_range(0, 30, residue_samples=2000, seed=0))
        huge = _emitted(verify_range(0, 30, residue_samples=10**9, seed=0))
        assert huge == full


class TestFailingReportsPinned:
    # Seeded sweeps with one planted fault each and every block count
    # sampled, pinned byte for byte: the failure details, not only the
    # pass/fail cells, must not drift.

    @staticmethod
    def digests(report):
        texts = _emitted(report)
        return {fmt: hashlib.md5(text.encode()).hexdigest() for fmt, text in texts.items()}

    def test_oracle_coefficient_off_by_one(self, bump_multiplicative):
        bump_multiplicative(1)
        report = verify_range(5, 40, residue_samples=10**9, seed=0)
        assert self.digests(report) == {
            "jsonl": "8b18e12af41506d10e0d447f50d9a063",
            "csv": "920d9befd4bfffabde8f9bed089a5bb5",
        }

    def test_power_block_two_plus_seven(self, monkeypatch):
        true_power = rowgen.power_integer
        monkeypatch.setattr(
            rowgen,
            "power_integer",
            lambda n: true_power(n) + pow10(2 * rowgen.theta(n).block_width).mul_small(7),
        )
        report = verify_range(4, 30, residue_samples=10**9, seed=0)
        assert self.digests(report) == {
            "jsonl": "59bf29b0d868e1b5db54efa5f9a5d8ef",
            "csv": "7bf2321600053fad3c9e96afc081995d",
        }

    def test_block_width_one_digit_too_narrow(self, monkeypatch):
        # Rows from 5 on, where the central coefficient has at least two
        # digits: below that a narrower width would be 0, which the block
        # cut refuses.
        true_theta = rowgen.theta

        def narrow(n):
            geometry = true_theta(n)
            return rowgen.ThetaResult(n, geometry.theta - 1, geometry.block_width - 1)

        rowgen.clear_caches()
        with monkeypatch.context() as patch:
            patch.setattr(rowgen, "theta", narrow)
            report = verify_range(5, 25, residue_samples=10**9, seed=0)
        rowgen.clear_caches()
        assert self.digests(report) == {
            "jsonl": "c3daed2f2366bc4a40e9f5c5d12a3671",
            "csv": "4e743a63dd14e41830d53a8c46521cac",
        }


class TestLadder:
    # Rows 0..60 cross 18 width changes; the block width of rows 9..12 is 3
    # and of rows 30..32 is 9.

    @pytest.mark.parametrize("runs", [[(0, 60)], [(0, 31), (32, 60)]])
    def test_stepped_powers_are_the_powers(self, monkeypatch, runs):
        # The power of every row reaches the block cut; a run cut inside a
        # width run starts over at its first row.
        powers = []
        cut = BigNat.block_matrix

        def recorded(power, width, count):
            powers.append(power)
            return cut(power, width, count)

        monkeypatch.setattr(BigNat, "block_matrix", recorded)
        for first, last in runs:
            verify_bench._check_rows(first, last, ("symmetry",), 1, 0)
        assert powers == [
            rowgen.eleven_variant(rowgen.theta(n)).pow(n) for n in range(61)
        ]

    def test_wrong_first_power_fails_its_width_run_only(self, monkeypatch):
        # C(9, 1) off by one in row 9's power, the first of width 3: each
        # later row of that width is stepped from it and fails too; row 13
        # starts width 4 from its own power and passes.
        true_power = rowgen.power_integer

        def planted(n):
            if n != 9:
                return true_power(n)
            return true_power(n) + pow10(rowgen.theta(n).block_width)

        monkeypatch.setattr(rowgen, "power_integer", planted)
        report = verify_range(5, 16, checks=["row_equality"])
        assert [result.n for result in report.results if not result.passed] == [
            9, 10, 11, 12
        ]
        row_9 = report.results[4]
        assert [(f.check, f.r, f.expected, f.actual) for f in row_9.failures] == [
            ("row_equality", 1, "multiplicative:9", "10"),
            ("row_equality", 1, "recurrence:9", "10"),
        ]

    def test_pow_and_product_counts(self, monkeypatch):
        # 0..40 has 12 width runs, so 12 powers by pow (power_integer at n =
        # 0, 5, 9, 13, 16, 20, 23, 26, 30, 33, 37, 40) and 29 steps; the row
        # sum's 2**n and the weighted sum's 11**n each take one pow (of
        # exponent 0, no product) and 40 steps. The 11 powers past n = 0
        # take 60 products between them.
        calls = Counter()

        def counted(name):
            original = getattr(BigNat, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(BigNat, name, wrapper)

        counted("pow")
        counted("__mul__")
        rowgen.clear_caches()
        assert verify_range(0, 40, residue_samples=5, seed=0).passed
        assert calls == {"pow": 12 + 2, "__mul__": 29 + 2 * 40 + 60}


class TestVerifyRangeParallel:
    def test_full_sweep_matches_the_pinned_reports(self):
        # The digests criterion 5 pins for verify_range(0, 300, 5, seed=0).
        texts = _emitted(verify_range_parallel(0, 300, residue_samples=5, seed=0))
        digests = {fmt: hashlib.md5(text.encode()).hexdigest() for fmt, text in texts.items()}
        assert digests == {
            "jsonl": "5ce6c6ce5bbe01d7f3f5db94ba1eb3c0",
            "csv": "64e7f69cbd702c975fee9c648b50b927",
        }

    @pytest.mark.parametrize(
        "n_from, n_to, checks, seed",
        [
            (37, 90, None, 0),
            (37, 90, None, 7),
            (5, 5, None, 7),
            (0, 0, None, 0),
            (0, 80, ["digit_length", "residue_identity", "leading_block",
                     "lemma1_bound", "symmetry", "row_sum", "weighted_sum_11"], 7),
            (20, 120, ["row_equality"], 0),
        ],
    )  # fmt: skip
    def test_same_bytes_as_verify_range(self, n_from, n_to, checks, seed):
        serial = verify_range(n_from, n_to, checks, residue_samples=5, seed=seed)
        fanned = verify_range_parallel(n_from, n_to, checks, residue_samples=5, seed=seed)
        assert _emitted(fanned) == _emitted(serial)
        assert (fanned.n_from, fanned.n_to, fanned.checks) == (n_from, n_to, serial.checks)

    # Which rows a worker checks depends on the worker count k: 37..90 has
    # 54 rows, which neither 3 nor 7 divides; 5..6 has fewer rows than 3 or
    # 7 CPUs, so two workers check one row each.
    @pytest.mark.parametrize("cpus", [1, 3, 7])
    @pytest.mark.parametrize("n_from, n_to", [(37, 90), (5, 6)])
    def test_any_cpu_count_gives_the_same_report(self, monkeypatch, cpus, n_from, n_to):
        serial = verify_range(n_from, n_to, residue_samples=5, seed=7)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        fanned = verify_range_parallel(n_from, n_to, residue_samples=5, seed=7)
        assert _emitted(fanned) == _emitted(serial)

    def test_injected_failure_reaches_the_workers(self, bump_multiplicative):
        # C(n, n) widened past its block in every row's oracle matrix fails
        # lemma 1 at r = n + 1; the workers inherit the plant through the fork.
        bump_multiplicative(-1, wider=True)
        serial = verify_range(5, 40, residue_samples=2, seed=3)
        fanned = verify_range_parallel(5, 40, residue_samples=2, seed=3)
        assert not fanned.passed
        assert _emitted(fanned) == _emitted(serial)

    @pytest.mark.parametrize(
        "n_from, n_to", [(0, 0), (0, 2), (5, 6), (37, 90), (0, 300), (1800, 1802)]
    )
    def test_runs_cover_the_range_in_order(self, n_from, n_to):
        for k in range(1, min(8, n_to - n_from + 1) + 1):
            runs = verify_bench._runs(n_from, n_to, k)
            assert len(runs) == k
            assert all(first <= last for first, last in runs)
            assert [n for first, last in runs for n in range(first, last + 1)] == list(
                range(n_from, n_to + 1)
            )

    def test_runs_split_work_not_rows(self):
        # Later rows cost more, so the later of two runs over 0..300 is the
        # shorter one.
        assert verify_bench._runs(0, 300, 2) == [(0, 227), (228, 300)]

    def test_threshold_reaches_the_workers(self, monkeypatch):
        monkeypatch.setattr(verify_bench, "_check_rows", _threshold_probe)
        bignat.set_karatsuba_threshold(2)
        report = verify_range_parallel(0, 60, residue_samples=1)
        assert [r.n for r in report.results] == list(range(61))
        assert {r.theta for r in report.results} == {2}

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((-1, 3), {}),
            ((5, 2), {}),
            ((0, 1), {"residue_samples": 0}),
            ((0, 1), {"checks": []}),
            ((0, 1), {"checks": ["row_equality", "bogus"]}),
            ((0, RADIX), {}),
        ],
    )
    def test_bad_arguments_rejected_before_any_worker(self, monkeypatch, args, kwargs):
        with pytest.raises(ValueError) as serial:
            verify_range(*args, **kwargs)

        def no_pool(*args, **kwargs):
            raise AssertionError("pool started before the arguments were checked")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError) as fanned:
            verify_range_parallel(*args, **kwargs)
        assert str(fanned.value) == str(serial.value)


class TestBenchMethods:
    def test_single_trivial_row(self):
        records = bench_methods(0, 0, step=1, repetitions=1)
        assert len(records) == 3
        assert {r.method for r in records} == set(Method)
        assert all(r.n == 0 and r.theta == 0 and r.repetitions == 1 for r in records)

    def test_counter_semantics(self):
        records = bench_methods(5, 10, step=5, repetitions=3)
        by_key = {(r.method, r.n): r for r in records}
        for n in (5, 10):
            assert by_key[(Method.RECURRENCE, n)].big_mul_count == 0
            assert by_key[(Method.MULTIPLICATIVE, n)].big_mul_count == n
            assert by_key[(Method.POWER_PARTITION, n)].big_mul_count > 0

    def test_result_digits(self):
        records = bench_methods(16, 16, step=1, repetitions=1)
        by_method = {r.method: r for r in records}
        assert by_method[Method.POWER_PARTITION].result_digits == 81
        assert by_method[Method.MULTIPLICATIVE].result_digits == 5
        assert by_method[Method.RECURRENCE].result_digits == 5

    @pytest.mark.parametrize(
        "kwargs",
        [dict(step=0), dict(repetitions=0)],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            bench_methods(0, 1, **{"step": 1, "repetitions": 1, **kwargs})

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            bench_methods(3, 1)


class TestEmitReport:
    def test_empty_records_give_header_only_csv(self):
        buffer = io.StringIO()
        emit_report([], "csv", buffer)
        assert buffer.getvalue() == BENCH_CSV_HEADER + "\n"

    def test_single_record_is_one_csv_row_with_six_columns(self):
        record = BenchRecord(
            method=Method.RECURRENCE,
            n=9,
            theta=2,
            result_digits=3,
            big_mul_count=0,
            median_wall_time_ns=1234,
            repetitions=2,
        )
        buffer = io.StringIO()
        emit_report([record], "csv", buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 2
        assert lines[1].split(",") == ["recurrence", "9", "2", "3", "0", "1234"]

    def test_bench_jsonl_includes_repetitions(self):
        records = bench_methods(2, 2, repetitions=2)
        buffer = io.StringIO()
        emit_report(records, "jsonl", buffer)
        for line in buffer.getvalue().strip().split("\n"):
            payload = json.loads(line)
            assert payload["repetitions"] == 2
            assert payload["n"] == 2

    def test_verify_jsonl_two_lines_with_all_checks(self):
        report = verify_range(9, 10, residue_samples=3)
        buffer = io.StringIO()
        emit_report(report, "jsonl", buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert len(lines) == 2
        for line, n in zip(lines, (9, 10)):
            payload = json.loads(line)
            assert payload["n"] == n
            assert payload["theta"] == 2
            assert set(payload["checks"]) == set(CHECK_NAMES)
            assert all(payload["checks"].values())
            assert payload["failures"] == []

    def test_verify_jsonl_line_with_failure_pinned(self, bump_multiplicative):
        # C(2, 1) + 10 = 12 in the oracle row, wider than the width 1: the
        # sum of two blocks, 1 + 12 * 10 = 121, breaks the bound; three
        # blocks, 221, keep it. Five samples draw r = 1, 2 and 3.
        bump_multiplicative(1, wider=True)
        report = verify_range(
            2, 2, checks=["symmetry", "lemma1_bound"], residue_samples=5, seed=0
        )
        buffer = io.StringIO()
        emit_report(report, "jsonl", buffer)
        assert buffer.getvalue() == (
            '{"n": 2, "theta": 0, "checks": {"lemma1_bound": false, "symmetry": true}, '
            '"failures": [{"check": "lemma1_bound", "n": 2, "r": 2, '
            '"expected": "at most 2 digits", "actual": "3 digits"}]}\n'
        )

    def test_bench_jsonl_line_pinned(self):
        record = BenchRecord(
            method=Method.POWER_PARTITION,
            n=16,
            theta=4,
            result_digits=81,
            big_mul_count=5,
            median_wall_time_ns=98765,
            repetitions=3,
        )
        buffer = io.StringIO()
        emit_report([record], "jsonl", buffer)
        assert buffer.getvalue() == (
            '{"method": "power_partition", "n": 16, "theta": 4, "result_digits": 81, '
            '"big_mul_count": 5, "median_wall_time_ns": 98765, "repetitions": 3}\n'
        )

    def test_verify_csv_is_wide_with_selected_checks(self):
        report = verify_range(3, 4, checks=["row_sum", "symmetry"])
        buffer = io.StringIO()
        emit_report(report, "csv", buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "n,theta,symmetry,row_sum"
        assert lines[1] == "3,0,true,true"
        assert lines[2] == "4,0,true,true"

    @pytest.mark.parametrize("fmt", ["xml", "jsonlines"])
    def test_unknown_format_rejected(self, fmt):
        with pytest.raises(ValueError, match="format"):
            emit_report([], fmt)

    def test_path_destination(self, tmp_path):
        target = tmp_path / "report.csv"
        emit_report([], "csv", target)
        assert target.read_text() == BENCH_CSV_HEADER + "\n"

    def test_io_error_names_the_path(self, tmp_path):
        target = tmp_path / "missing" / "report.csv"
        with pytest.raises(OSError, match="report.csv"):
            emit_report([], "csv", target)


@pytest.mark.parametrize("run", [verify_range, verify_range_parallel, bench_methods])
def test_range_past_the_scalar_steps_refused_before_any_row(monkeypatch, run):
    # The last row is out of reach; the rows before it are not checked or
    # timed first.
    def no_rows(*args):
        raise AssertionError("a row was checked")

    monkeypatch.setattr(verify_bench, "_check_rows", no_rows)
    monkeypatch.setattr(rowgen, "generate_row", no_rows)
    with pytest.raises(ValueError, match="row index 10000000 too large"):
        run(RADIX - 3, RADIX)


def test_mul_counts_stable_across_bench_runs():
    bignat.reset_mul_counter()
    first = bench_methods(4, 4, repetitions=2)
    second = bench_methods(4, 4, repetitions=2)
    counts = lambda records: {(r.method, r.n): r.big_mul_count for r in records}
    assert counts(first) == counts(second)
    assert counts(first)[(Method.MULTIPLICATIVE, 4)] == 4
