"""Tests for the sweep, the benchmark harness and report emission."""

import concurrent.futures
import hashlib
import io
import json
import os
from collections import Counter

import pytest

from pascalrow import bignat, oracle, rowgen, verify_bench
from pascalrow.bignat import BigNat
from pascalrow.row import Method, Row
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


def _threshold_probe(first, last, step, selected, residue_samples, seed):
    # Stands in for _check_rows in a worker: reports, as each row's theta,
    # the multiplication threshold the worker process sees.
    return [
        RowVerification(n, bignat.karatsuba_threshold(), {})
        for n in range(first, last + 1, step)
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
        counted(BigNat, "from_block_prefixes")
        counted(oracle, "row_multiplicative")
        counted(oracle, "binomial")
        verify_range(0, 40, residue_samples=5, seed=0)
        # Per row: one prefix pass yields the truncated sums of all its
        # sampled block counts, and two more (through from_blocks) build the
        # row sum and the weighted sum; one oracle row and one central
        # coefficient (for theta).
        assert calls == {
            "from_blocks": 41 + 41,
            "from_block_prefixes": 41 + 41 + 41,
            "row_multiplicative": 41,
            "binomial": 41,
        }

    def test_warm_sweep_reads_the_oracle_it_is_given(self, monkeypatch):
        # A sweep keeps no oracle row past the row it checks: after a passing
        # sweep over 5..6, an oracle with C(n, 1) off by one must fail the
        # same sweep run again in the same process.
        assert verify_range(5, 6).passed
        make = oracle.row_multiplicative

        def bumped(n):
            first, second, *rest = make(n).coefficients
            return Row(n, (first, second + BigNat(1), *rest), Method.MULTIPLICATIVE)

        monkeypatch.setattr(oracle, "row_multiplicative", bumped)
        report = verify_range(5, 6)
        failing = {"row_equality", "residue_identity", "leading_block", "weighted_sum_11"}
        for result in report.results:
            assert result.checks == {name: name not in failing for name in CHECK_NAMES}

    def test_rows_before_range_not_converted(self, monkeypatch):
        # The additive oracle steps its limb matrix up to n_from and turns
        # only the checked rows into BigNat coefficients, one conversion per
        # row. Counted at the oracle's own reference: the power rows' block
        # cut converts limb matrices too.
        converted = []

        class CountingBigNat(BigNat):
            @staticmethod
            def from_limb_rows(matrix):
                converted.append(len(matrix))
                return BigNat.from_limb_rows(matrix)

        monkeypatch.setattr(oracle, "BigNat", CountingBigNat)
        report = verify_range(150, 152, checks=["row_equality"])
        assert report.passed
        assert converted == [151, 152, 153]

    def test_strided_rows_convert_only_their_own_rows(self, monkeypatch):
        # A worker's loop: the additive oracle steps every row from the apex
        # but converts only rows 150, 154 and 158, the ones this worker checks.
        converted = []

        class CountingBigNat(BigNat):
            @staticmethod
            def from_limb_rows(matrix):
                converted.append(len(matrix))
                return BigNat.from_limb_rows(matrix)

        monkeypatch.setattr(oracle, "BigNat", CountingBigNat)
        results = verify_bench._check_rows(150, 160, 4, ("row_equality",), 1, 0)
        assert [(result.n, result.passed) for result in results] == [
            (150, True), (154, True), (158, True)
        ]
        assert converted == [151, 155, 159]

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

    def test_failure_recorded_as_data(self, monkeypatch):
        monkeypatch.setattr(
            rowgen.Residue, "within_bound", property(lambda self: False)
        )
        report = verify_range(5, 6, residue_samples=1)
        assert not report.passed
        for result in report.results:
            assert result.checks["lemma1_bound"] is False
            assert any(f.check == "lemma1_bound" for f in result.failures)
            assert result.checks["row_equality"] is True

    def test_failure_detail_is_reproducible(self, monkeypatch):
        # Return the wrong neighbouring coefficient so only r >= 2 misses.
        monkeypatch.setattr(
            rowgen.Residue,
            "leading_block",
            property(lambda self: oracle.binomial(self.n, max(0, self.r - 2))),
        )
        report = verify_range(7, 7, residue_samples=1, seed=3)
        result = report.results[0]
        assert result.checks["leading_block"] is False
        failure = next(f for f in result.failures if f.check == "leading_block")
        assert failure.n == 7 and failure.r is not None
        assert failure.expected != failure.actual

    @pytest.mark.parametrize(
        "owner,maker,failing,expected,actual",
        [
            (rowgen, "row_via_power", "row_sum", 2**6, 2**6 + 1),
            (oracle, "row_multiplicative", "weighted_sum_11", 11**6, 11**6 + 100),
        ],
        ids=["row_sum", "weighted_sum_11"],
    )
    def test_row_read_at_one_and_ten(
        self, monkeypatch, owner, maker, failing, expected, actual
    ):
        # C(6, 2) off by one in the power row moves its sum off 2**6; in the
        # oracle row it moves the row read at x = 10 off 11**6.
        make = getattr(owner, maker)

        def bumped(n):
            coefficients = list(make(n).coefficients)
            coefficients[2] = coefficients[2] + BigNat(1)
            return Row(n, tuple(coefficients), Method.POWER_PARTITION)

        monkeypatch.setattr(owner, maker, bumped)
        result = verify_range(6, 6, checks=["row_sum", "weighted_sum_11"]).results[0]
        assert result.checks == {
            name: name != failing for name in ("row_sum", "weighted_sum_11")
        }
        assert [(f.check, f.r, f.expected, f.actual) for f in result.failures] == [
            (failing, None, str(expected), str(actual))
        ]

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

    def test_injected_failure_reaches_the_workers(self, monkeypatch):
        monkeypatch.setattr(
            rowgen.Residue, "within_bound", property(lambda self: False)
        )
        serial = verify_range(5, 40, residue_samples=2, seed=3)
        fanned = verify_range_parallel(5, 40, residue_samples=2, seed=3)
        assert not fanned.passed
        assert _emitted(fanned) == _emitted(serial)

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

    def test_verify_jsonl_line_with_failure_pinned(self, monkeypatch):
        monkeypatch.setattr(
            rowgen.Residue, "within_bound", property(lambda self: False)
        )
        report = verify_range(2, 2, checks=["symmetry", "lemma1_bound"], seed=0)
        buffer = io.StringIO()
        emit_report(report, "jsonl", buffer)
        assert buffer.getvalue() == (
            '{"n": 2, "theta": 0, "checks": {"lemma1_bound": false, "symmetry": true}, '
            '"failures": [{"check": "lemma1_bound", "n": 2, "r": 1, '
            '"expected": "at most 1 digits", "actual": "1 digits"}, '
            '{"check": "lemma1_bound", "n": 2, "r": 3, '
            '"expected": "at most 3 digits", "actual": "3 digits"}]}\n'
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


def test_mul_counts_stable_across_bench_runs():
    bignat.reset_mul_counter()
    first = bench_methods(4, 4, repetitions=2)
    second = bench_methods(4, 4, repetitions=2)
    counts = lambda records: {(r.method, r.n): r.big_mul_count for r in records}
    assert counts(first) == counts(second)
    assert counts(first)[(Method.MULTIPLICATIVE, 4)] == 4
