"""Drive the CLI through run_cli and check output, formats and exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pascalrow
from pascalrow import bignat, rowgen, verify_bench
from pascalrow.cli import THRESHOLD_ENV_VAR, run_cli


def run_python(code):
    """Run `code` in a fresh interpreter that imports this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(pascalrow.__file__).parents[1])}
    env.pop(THRESHOLD_ENV_VAR, None)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def serial_report(n_from, n_to, fmt="jsonl", **kwargs):
    buffer = io.StringIO()
    verify_bench.emit_report(
        verify_bench.verify_range(n_from, n_to, residue_samples=5, **kwargs), fmt, buffer
    )
    return buffer.getvalue()


@pytest.fixture(autouse=True)
def _clean_threshold_env(monkeypatch):
    monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRowCommand:
    def test_row_nine_plain(self, capsys):
        code, out, _ = run(capsys, "row", "9")
        assert code == 0
        assert out.strip() == "1 9 36 84 126 126 84 36 9 1"

    def test_methods_agree(self, capsys):
        outputs = set()
        for method in ("power", "mult", "rec"):
            code, out, _ = run(capsys, "row", "12", "--method", method)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "row", "2", "--format", "csv")
        assert code == 0
        assert out.strip().split("\n") == ["n,k,coefficient", "2,0,1", "2,1,2", "2,2,1"]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "row", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5
        assert payload["method"] == "power_partition"
        assert payload["coefficients"] == ["1", "5", "10", "10", "5", "1"]

    def test_negative_index_is_usage_error(self, capsys):
        code, _, err = run(capsys, "row", "-3")
        assert code == 2
        assert "error" in err

    def test_non_numeric_index_is_usage_error(self, capsys):
        code, _, err = run(capsys, "row", "abc")
        assert code == 2
        assert "invalid int value" in err


class TestPowerCommand:
    def test_annotated_row_15(self, capsys):
        code, out, _ = run(capsys, "power", "15", "--annotate")
        assert code == 0
        assert out.strip() == (
            "1|0015|0105|0455|1365|3003|5005|6435|6435|5005|3003|1365|0455|0105|0015|0001"
        )

    def test_annotation_strips_to_plain(self, capsys):
        _, annotated, _ = run(capsys, "power", "51", "--annotate")
        _, plain, _ = run(capsys, "power", "51")
        assert annotated.strip().replace("|", "") == plain.strip()
        assert annotated.count("|") == 51

    def test_trivial_power(self, capsys):
        code, out, _ = run(capsys, "power", "0")
        assert (code, out.strip()) == (0, "1")


class TestThetaCommand:
    def test_row_51_geometry(self, capsys):
        code, out, _ = run(capsys, "theta", "51")
        assert code == 0
        assert out.strip() == "n=51 central_digits=15 theta=14 base=1000000000000001"

    def test_row_9(self, capsys):
        _, out, _ = run(capsys, "theta", "9")
        assert "theta=2" in out and "base=1001" in out


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, err = run(capsys, "verify", "--from", "0", "--to", "10")
        assert code == 0
        assert len(out.strip().split("\n")) == 11
        assert "PASS" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--from", "9", "--to", "10", "--format", "csv",
            "--checks", "row_equality,digit_length",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,theta,row_equality,digit_length"
        assert lines[1:] == ["9,2,true,true", "10,2,true,true"]

    def test_failure_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            rowgen.Residue, "within_bound", property(lambda self: False)
        )
        code, out, err = run(capsys, "verify", "--from", "3", "--to", "3")
        assert code == 1
        assert "FAIL" in err
        payload = json.loads(out.strip())
        assert payload["checks"]["lemma1_bound"] is False

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--from", "0", "--to", "1", "--checks", "nope")
        assert code == 2
        assert "unknown check" in err

    def test_empty_check_list_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--from", "0", "--to", "2", "--checks", ","
        )
        assert code == 2
        assert out == ""
        assert "no checks" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "verify.jsonl"
        code, out, _ = run(
            capsys, "verify", "--from", "4", "--to", "6", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert len(target.read_text().strip().split("\n")) == 3

    def test_injected_failure_gives_the_serial_report(self, capsys, monkeypatch):
        monkeypatch.setattr(
            rowgen.Residue, "within_bound", property(lambda self: False)
        )
        code, out, err = run(capsys, "verify", "--from", "3", "--to", "40")
        assert code == 1
        assert out == serial_report(3, 40)
        assert err == "verify n=3..40 seed=0 samples=5: FAIL\n"

    def test_threshold_two_gives_the_same_report(self, capsys):
        expected = serial_report(30, 90, "csv", seed=7)
        code, out, _ = run(
            capsys, "--karatsuba-threshold", "2", "verify", "--from", "30",
            "--to", "90", "--seed", "7", "--format", "csv",
        )  # fmt: skip
        assert code == 0
        assert out == expected

    def test_dead_worker_is_one_error_line(self, tmp_path):
        # A worker that exits mid-sweep breaks the pool: the CLI names the
        # rows it could not check and writes no report.
        target = tmp_path / "verify.jsonl"
        result = run_python(
            "import os, sys\n"
            "from pascalrow import cli, verify_bench\n"
            "symmetry = verify_bench._ROW_CHECKS['symmetry']\n"
            "def dying(facts):\n"
            "    if facts.n == 70:\n"
            "        os._exit(3)\n"
            "    return symmetry(facts)\n"
            "verify_bench._ROW_CHECKS['symmetry'] = dying\n"
            "sys.exit(cli.run_cli(['verify', '--from', '0', '--to', '120',\n"
            f"                      '--out', {str(target)!r}]))\n"
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert not target.exists()
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        prefix = "pascalrow: error: a verify worker process died; rows "
        assert lines[0].startswith(prefix) and lines[0].endswith(" were not checked")
        spans = lines[0][len(prefix) : -len(" were not checked")].split(", ")
        lost = [tuple(map(int, span.split(".."))) for span in spans]
        assert any(lo <= 70 <= hi for lo, hi in lost)


def test_startup_loads_no_process_pool():
    result = run_python(
        "import sys\n"
        "import pascalrow.cli\n"
        "assert pascalrow.cli.run_cli(['theta', '1']) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.partition('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "n=1 central_digits=1 theta=0 base=11\n[]\n"


class TestBenchCommand:
    def test_csv_on_stdout(self, capsys):
        code, out, _ = run(capsys, "bench", "--from", "0", "--to", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "method,n,theta,result_digits,big_mul_count,median_wall_time_ns"
        assert len(lines) == 10
        assert all(len(line.split(",")) == 6 for line in lines)

    def test_out_file_with_step_and_reps(self, capsys, tmp_path):
        target = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "--from", "5", "--to", "15", "--step", "5",
            "--reps", "2", "--out", str(target),
        )
        assert code == 0 and out == ""
        lines = target.read_text().strip().split("\n")
        assert len(lines) == 10


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "verify", "--from", "0")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestThresholdConfiguration:
    def test_flag_applies(self, capsys):
        code, _, _ = run(capsys, "--karatsuba-threshold", "64", "theta", "5")
        assert code == 0
        assert bignat.karatsuba_threshold() == 64

    def test_env_applies(self, capsys, monkeypatch):
        monkeypatch.setenv(THRESHOLD_ENV_VAR, "48")
        code, _, _ = run(capsys, "theta", "5")
        assert code == 0
        assert bignat.karatsuba_threshold() == 48

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(THRESHOLD_ENV_VAR, "48")
        code, _, _ = run(capsys, "--karatsuba-threshold", "96", "theta", "5")
        assert code == 0
        assert bignat.karatsuba_threshold() == 96

    def test_invalid_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(THRESHOLD_ENV_VAR, "many")
        code, _, err = run(capsys, "theta", "5")
        assert code == 2
        assert THRESHOLD_ENV_VAR in err

    def test_invalid_flag_value_is_usage_error(self, capsys):
        code, _, err = run(capsys, "--karatsuba-threshold", "1", "theta", "5")
        assert code == 2
        assert "threshold" in err
