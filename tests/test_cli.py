"""End-to-end tests for the command-line interface."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from cascade import cli
from cascade.census import TYPE_KEYS, SupportType
from cascade.closed_forms import n_by_type_closed
from cascade.geometry import Rank


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_unwritable_out_rejected(capsys, tmp_path, *argv):
    """A report that cannot be written is exit 2 with one error line."""
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write report to {target}: ")
    assert err.count("\n") == 1


class TestVerify:
    def test_n1_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "1")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "n=1"
        assert "ok full-census total 126" in lines
        assert "ok support-count oracle-total 126" in lines
        assert "ok total-sum all 126" in lines
        assert "ok weyl 0theta 1" in lines
        assert "ok equivalence identity True" in lines
        assert lines[-1].startswith("pass ")
        assert lines[-1].endswith(" checks")
        assert not any(line.startswith("FAIL") for line in lines)

    def test_range_covers_both_ranks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1..2")
        assert code == 0
        lines = out.splitlines()
        assert "n=1" in lines and "n=2" in lines
        assert "ok full-census total 126" in lines
        assert "ok full-census total 3990" in lines
        # The (7,1) highest weight only exists from rank two up.
        assert sum("weyl 7+1" in line for line in lines) == 1

    def test_skip_full_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--skip-full-oracle")
        assert code == 0
        assert "full-census" not in out
        assert "ok support-count oracle-total 126" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert all(row["ok"] for row in doc["results"])
        row = doc["results"][0]
        assert set(row) == {"n", "check", "key", "expected", "got", "ok"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check,n,key,expected,got,status"
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_rank_zero_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "0")
        assert code == 2
        assert out == ""
        assert err == "error: rank must be >= 1, got 0\n"

    def test_k_other_than_two_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "1", "--k", "3")
        assert code == 2
        assert "k=2" in err

    def test_bad_range_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--n", "two"])
        capsys.readouterr()
        code, _, err = run_cli(capsys, "verify", "--n", "3..2")
        assert code == 2
        assert "empty rank range" in err

    def test_unwritable_out_rejected(self, capsys, tmp_path):
        assert_unwritable_out_rejected(capsys, tmp_path, "verify", "--n", "1")


class TestCount:
    def test_json_full_report(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["n", "byType", "byDegree", "byShape", "total"]
        assert doc["n"] == 1
        assert doc["total"] == 126
        assert list(doc["byType"]) == list(TYPE_KEYS)
        assert sum(doc["byType"].values()) == 126
        assert list(doc["byDegree"]) == [str(d) for d in range(-4, -13, -1)]
        assert doc["byDegree"]["-4"] == 7
        assert doc["byDegree"]["-12"] == 7
        assert len(doc["byShape"]) == 15
        assert list(doc["byShape"])[0] == "1+1+1+1"
        assert list(doc["byShape"])[-1] == "3+3+3+3"
        assert sum(doc["byShape"].values()) == 126

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n 2"
        assert "byType" in lines
        assert "  A2 435" in lines
        assert lines[-1] == "total 3990"

    def test_types_only_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "3", "--types-only", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,count"
        assert lines[-1] == "total,40194"
        body = dict(line.split(",") for line in lines[1:-1])
        assert list(body) == list(TYPE_KEYS)
        rank = Rank(3)
        for key, value in body.items():
            assert int(value) == n_by_type_closed(rank, SupportType.from_key(key))

    def test_cap_enforced(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "5")
        assert code == 2
        assert "exceeds the full-oracle cap" in err
        # ... but the support-walk path scales past it.
        code, out, _ = run_cli(
            capsys, "count", "--n", "5", "--types-only", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["n"] == 5

    def test_raising_cap_allows_larger_rank(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--n", "3", "--oracle-cap", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["total"] == 40194

    def test_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "1..2")
        assert code == 2
        assert "single --n" in err

    def test_unwritable_out_rejected(self, capsys, tmp_path):
        assert_unwritable_out_rejected(capsys, tmp_path, "count", "--n", "1")


class TestPrintArray:
    def test_n1_triangles(self, capsys):
        code, out, _ = run_cli(capsys, "print-array", "--n", "1")
        assert code == 0
        blocks = out.rstrip("\n").split("\n\n")
        assert len(blocks) == 3
        assert blocks[0].splitlines() == ["triangle 1", "1,-1", "1,1 -1,-1"]
        # Even-numbered triangles hang apex-down: widest row first.
        assert blocks[1].splitlines() == ["triangle 2", "1,1 -1,-1", "1,-1"]
        assert blocks[2].splitlines() == ["triangle 3", "1,-1", "1,1 -1,-1"]

    def test_n3_bottom_row_and_apex(self, capsys):
        code, out, _ = run_cli(capsys, "print-array", "--n", "3")
        assert code == 0
        first = out.split("\n\n")[0].splitlines()
        assert first[0] == "triangle 1"
        assert first[1] == "1,-1"  # apex
        assert first[-1] == "1,1 2,2 3,3 -3,-3 -2,-2 -1,-1"

    def test_coords_block(self, capsys):
        code, out, _ = run_cli(capsys, "print-array", "--n", "1", "--coords")
        assert code == 0
        blocks = out.rstrip("\n").split("\n\n")
        assert len(blocks) == 4
        coords = blocks[3].splitlines()
        assert coords[0] == "trapezoid"
        assert coords[1] == "2:1,1 2:1,2"
        assert coords[2] == "1:2,1 2:2,1 3:2,1"
        assert coords[3] == "1:1,1 1:1,2 3:1,1 3:1,2"

    def test_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "print-array", "--n", "1..3")
        assert code == 2
        assert "single --n" in err

    def test_unwritable_out_rejected(self, capsys, tmp_path):
        assert_unwritable_out_rejected(capsys, tmp_path, "print-array", "--n", "1")


class TestDeterminismAndThreads:
    def test_verify_identical_across_thread_counts(self, capsys):
        outputs = set()
        for threads in ("1", "2"):
            _, out, _ = run_cli(
                capsys, "verify", "--n", "1..2", "--threads", threads
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_count_identical_across_thread_counts(self, capsys):
        outputs = set()
        for threads in ("1", "2", "3"):
            _, out, _ = run_cli(
                capsys, "count", "--n", "2", "--format", "json", "--threads", threads
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "count", "--n", "1", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["total"] == 126

    def test_env_var_supplies_thread_count(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, "2")
        code, out, _ = run_cli(capsys, "count", "--n", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["total"] == 126

    def test_invalid_env_var_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, "many")
        code, _, err = run_cli(capsys, "count", "--n", "1")
        assert code == 2
        assert cli.ENV_THREADS in err

    def test_flag_overrides_invalid_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, "many")
        code, _, _ = run_cli(capsys, "count", "--n", "1", "--threads", "1")
        assert code == 0

    def test_negative_threads_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "1", "--threads", "-1")
        assert code == 2
        assert "thread count" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cascade.cli", "verify", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("pass ")
