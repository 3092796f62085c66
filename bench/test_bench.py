"""Tests of the benchmark's own checks and tracing.

Every check must accept the program's real report and reject a report that
is wrong in one place, so that no check passes when it cannot fail.  Run
from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import copy
import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cascade import cli  # noqa: E402


def cli_report(capsys, *argv: str) -> bytes:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out.encode()


def dumps(doc) -> bytes:
    return (json.dumps(doc) + "\n").encode()


@pytest.fixture(scope="module")
def verify_doc():
    out = subprocess.run(
        [sys.executable, "-m", "cascade.cli", "verify", "--n", "1..2", "--format", "json"],
        capture_output=True, check=True,
        env={"PYTHONPATH": str(HERE.parent / "src")},
    ).stdout
    return json.loads(out)


def set_row(doc, n, check, key, value):
    """Change one row consistently, so that the row's own ok flag stays true."""
    for row in doc["results"]:
        if (row["n"], row["check"], row["key"]) == (n, check, key):
            row["expected"] = row["got"] = value
            return
    raise KeyError((n, check, key))


def row_value(doc, n, check, key):
    return next(
        r["got"] for r in doc["results"] if (r["n"], r["check"], r["key"]) == (n, check, key)
    )


class TestFormulas:
    def test_known_totals(self):
        assert [checks.total(n) for n in (1, 2, 3, 4, 9)] == [
            126, 3990, 40194, 234234, 53905698,
        ]

    def test_mirror_swaps_b_and_c_and_the_chains_of_d(self):
        assert checks.mirror("B2||") == "C||2"
        assert checks.mirror("C|1") == "B1|"
        assert checks.mirror("D1||1") == "D1||1"
        assert checks.mirror("A3") == "A3"
        assert sorted(map(checks.mirror, checks.TYPE_KEYS)) == sorted(checks.TYPE_KEYS)


class TestVerifyCheck:
    def test_accepts_the_real_report(self, verify_doc):
        assert checks.check_verify(dumps(verify_doc), (1, 2)) == []

    @pytest.mark.parametrize(
        "check,key", [("full-census", "total"), ("support-count", "oracle-total"), ("total-sum", "all")]
    )
    def test_rejects_a_total_off_by_one(self, verify_doc, check, key):
        doc = copy.deepcopy(verify_doc)
        set_row(doc, 2, check, key, checks.total(2) + 1)
        assert checks.check_verify(dumps(doc), (1, 2))

    def test_rejects_by_type_rows_that_miss_the_total(self, verify_doc):
        doc = copy.deepcopy(verify_doc)
        set_row(doc, 1, "full-census", "A2", row_value(doc, 1, "full-census", "A2") + 1)
        assert checks.check_verify(dumps(doc), (1, 2))

    def test_rejects_an_unmirrored_flipped_row(self, verify_doc):
        doc = copy.deepcopy(verify_doc)
        # The flipped B1| walk must equal the plain C|1 count, not B1|'s own.
        set_row(doc, 1, "flipped", "B1|", row_value(doc, 1, "support-count", "B1|"))
        assert checks.check_verify(dumps(doc), (1, 2))

    def test_rejects_a_wrong_weyl_row(self, verify_doc):
        doc = copy.deepcopy(verify_doc)
        set_row(doc, 2, "weyl", "7+1", checks.dim_7_1(2) - 1)
        assert checks.check_verify(dumps(doc), (1, 2))

    def test_rejects_a_missing_row_or_rank(self, verify_doc):
        doc = copy.deepcopy(verify_doc)
        doc["results"] = [r for r in doc["results"] if r["check"] != "flipped"]
        assert checks.check_verify(dumps(doc), (1, 2))
        assert checks.check_verify(dumps(verify_doc), (1, 2, 3))

    def test_rejects_a_failing_report(self, verify_doc):
        doc = copy.deepcopy(verify_doc)
        doc["pass"] = False
        assert checks.check_verify(dumps(doc), (1, 2))


class TestTypesOnlyCheck:
    def test_accepts_the_real_report_and_rejects_wrong_sums(self, capsys):
        report = cli_report(capsys, "count", "--n", "2", "--types-only", "--format", "json")
        assert checks.check_types_only(report, 2) == []
        doc = json.loads(report)
        doc["total"] += 1
        assert checks.check_types_only(dumps(doc), 2)
        doc = json.loads(report)
        doc["byType"]["A3"] += 1
        assert checks.check_types_only(dumps(doc), 2)
        assert checks.check_types_only(report, 3)


class TestLibraryChecks:
    @pytest.fixture
    def closed(self, monkeypatch):
        monkeypatch.setattr(workloads, "CLOSED_FORM_RANKS", (1, 2, 3))
        return workloads.closed_forms_sweep()

    def test_closed_forms(self, closed):
        ns = (1, 2, 3)
        assert checks.check_closed_forms(dumps(closed), ns) == []
        for mutate in (
            lambda d: d["ranks"][1].update(total=d["ranks"][1]["total"] + 1),
            lambda d: d["ranks"][2]["supportCount"].update({"C|2": d["ranks"][2]["supportCount"]["C|2"] + 1}),
            lambda d: d["ranks"][0]["weyl"]["3theta"].update(closed=d["ranks"][0]["weyl"]["3theta"]["closed"] + 1),
            lambda d: d["ranks"].pop(),
        ):
            doc = copy.deepcopy(closed)
            mutate(doc)
            assert checks.check_closed_forms(dumps(doc), ns)

    def test_brute_force(self, monkeypatch):
        monkeypatch.setattr(workloads, "BRUTE_FORCE_RANKS", (1,))
        doc = workloads.brute_force()
        assert checks.check_brute_force(dumps(doc), (1,)) == []
        for field in ("total", "partitions"):
            wrong = copy.deepcopy(doc)
            wrong["ranks"][0][field] -= 1
            assert checks.check_brute_force(dumps(wrong), (1,))

    def test_malformed_report(self):
        assert checks.check_brute_force(b"Traceback (most recent call last)", (1,))


def test_reports_must_be_identical():
    assert checks.check_identical([b"a\n", b"a\n", b"a\n"]) == []
    assert checks.check_identical([b"a\n", b"a\n", b"b\n"]) == ["report of run 3 differs from run 1"]


FAKE_CENSUS = '''
def oracle_supports(rank, kind):
    return rank + 1

def boom():
    raise RuntimeError("boom")
'''
FAKE_CLI = '''
from . import census

def main(argv=None):
    return census.oracle_supports(2, "A2") + census.oracle_supports(3, "A3")
'''


class TestTracer:
    @pytest.fixture
    def fake(self, tmp_path, monkeypatch):
        """A program whose census lost oracle_flipped and renamed t."""
        pkg = tmp_path / "fakecascade"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "census.py").write_text(FAKE_CENSUS)
        (pkg / "cli.py").write_text(FAKE_CLI)
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(spans, "PACKAGE", "fakecascade")
        monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.Pool)
        yield
        for name in [m for m in sys.modules if m.startswith("fakecascade")]:
            del sys.modules[name]

    def test_gone_or_changed_functions_are_missing_not_fatal(self, fake):
        tracer = spans.Tracer()
        spans.install(tracer)
        from fakecascade import census, cli as fake_cli

        root = tracer.open(spans.ROOT)
        assert fake_cli.main() == 7
        with pytest.raises(RuntimeError):
            census.boom()
        tracer.close(root)
        assert tracer.stack == [-1]
        metrics, missing, problems = spans.derive(json.loads(json.dumps(tracer.dump())))
        assert problems == []
        assert "census.oracle_flipped_s" in missing
        assert spans.type_metric("A2") in missing
        assert "census.supports_counted" in missing
        assert metrics["census.oracle_supports_s"] > 0
        assert metrics["cli.self_s"] >= 0
        assert tracer.calls["census.oracle_supports"] == 2

    def test_self_times_add_up_to_the_root(self):
        doc = {
            "names": ["op", "cli.main", "census.oracle_full"],
            "name": [0, 1, 2, 2],
            "start": [0.0, 1.0, 2.0, 5.0],
            "end": [10.0, 9.0, 4.0, 6.0],
            "parent": [-1, 0, 1, 1],
            "labels": {}, "calls": {}, "tally": {}, "pool_opens": 0, "pool_workers": 0,
            "missing": [],
        }
        dur, own = spans.self_times(doc)
        assert own == [2.0, 5.0, 2.0, 1.0]
        metrics, _, problems = spans.derive(doc)
        assert problems == []
        assert metrics["cli.self_s"] == 5.0
        assert metrics["census.oracle_full_s"] == 3.0
        assert metrics["trace.self_sum_s"] == 10.0
        doc["parent"] = [-1, 0, 1, -1]
        assert spans.derive(doc)[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "brute-force", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
