"""Smoke tests of the benchmark: ``python3 -m pytest perfbench -q``.

Tiny inputs (``--smoke``) and sub-second runs: every metric named in
BENCHMARK.json is emitted with its unit, and each workload's correctness
check fails an op whose output is wrong.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    table = done.stdout.split("\n{")[0]
    for name, metric in result["metrics"].items():
        assert name in table
        assert isinstance(metric["value"], (int, float))


def test_report_carries_provenance_and_known_defect():
    done = _run("--workload", "oracle", "--seed", "1", "--seconds", "0.2", "--smoke")
    report = json.loads(done.stdout.strip().splitlines()[-2])["report"]
    for key in ("source_sha256", "python", "numpy", "blas", "blas_threads", "seed",
                "tail_percentile", "tail_samples_beyond", "failed_fraction"):
        assert key in report
    (defect,) = report["known_defects"]
    assert defect["argv"] == workloads.README_OSCILLATOR
    assert isinstance(defect["exit"], int)


def _failed_ops(workload):
    tally = Tally()
    for op in workload.round(0):
        tally.run(op)
    return tally.failed_ops


def test_identity_check_fails_a_wrong_bracket(monkeypatch):
    from geobracket import brackets, verify

    def wrong_qcpb(s, a, b):
        report = brackets.qcpb(s, a, b)
        return brackets.BracketReport(
            report.qpb_part, report.geomutator_part, report.total + a, s
        )

    monkeypatch.setattr(verify, "qcpb", wrong_qcpb)
    assert _failed_ops(workloads.IdentitySuite(1, smoke=True)) > 0


def test_dsl_sympy_check_fails_a_wrong_bracket(monkeypatch):
    from geobracket import brackets, cli

    def wrong_qcpb(s, a, b):
        report = brackets.qcpb(s, a, b)
        return brackets.BracketReport(
            report.qpb_part, report.geomutator_part, report.total + a, s
        )

    workload = workloads.DslRequests(1, smoke=True)
    monkeypatch.setattr(cli, "qcpb", wrong_qcpb)
    workload.warm_up()
    invalid = workload.validate()
    qcpb_requests = {
        number for number, argv in enumerate(workload.requests)
        if argv[0] == "bracket" and workloads._option(argv, "--kind") in ("qcpb", None)
    }
    assert qcpb_requests and qcpb_requests <= set(invalid)


def test_dsl_op_fails_when_output_changes(monkeypatch):
    from geobracket import cli

    workload = workloads.DslRequests(1, smoke=True)
    workload.warm_up()
    original = cli.commutator
    monkeypatch.setattr(cli, "commutator", lambda a, b: original(a, b) + a)
    assert _failed_ops(workload) > 0


def test_oracle_op_fails_a_failed_comparison(monkeypatch):
    from geobracket import grid

    def failing_compare(symbolic, numeric, psi, tolerance=1e-8):
        return grid.ComparisonReport(1.0, 1.0, tolerance)

    monkeypatch.setattr(grid, "compare", failing_compare)
    assert _failed_ops(workloads.Oracle(1, smoke=True)) > 0


def test_oracle_op_fails_non_finite_flow(monkeypatch):
    from geobracket import grid

    evolve = grid.evolve

    def poisoned(*args, **kwargs):
        result = evolve(*args, **kwargs)
        result.expectations[-1] = complex("nan")
        return result

    monkeypatch.setattr(grid, "evolve", poisoned)
    assert _failed_ops(workloads.Oracle(1, smoke=True)) > 0


def test_tracer_cross_check():
    done = _run("--cross-check")
    assert done.returncode == 0, done.stdout + done.stderr
    found = json.loads(done.stdout.strip().splitlines()[-1])
    assert found["cross_check"] == "pass"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "identity-suite", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
