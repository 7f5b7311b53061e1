"""Smoke test of the benchmark on tiny inputs.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run as bench  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(trace, declared):
    proc = _bench("--workload", "exact_growth", "--size", "tiny", "--seed", "7",
                  "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = declared["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    text = "\n".join(lines[:-1])
    assert "undecided_ratio" in text and "failed_ratio" in text
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        spans = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert metrics["trace.remainder_s"] >= 0
        assert spans + metrics["trace.remainder_s"] == pytest.approx(metrics["trace.wall_s"])
        assert metrics["boundary.certify_peak.calls"] > 0
        assert metrics["algebra.validate_algebra.max_dim"] == 9


def test_declared_metrics_match_the_runner(declared):
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == bench.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOAD_NAMES)


def _tiny(name: str, seed: int = 3):
    spec = WORKLOADS[name]
    inputs = spec.build(seed, SIZES[name]["tiny"])
    return spec, inputs, spec.run(inputs)


def test_tampered_certificate_is_a_failure():
    spec, inputs, reports = _tiny("annulus_product")
    assert spec.check(inputs, reports).failed == 0
    part = reports[0].base.b_partition
    k = part.peak[0]
    cert = part.certificates[k]
    part.certificates[k] = dataclasses.replace(cert, coefficients=1.5 * cert.coefficients)
    tally = spec.check(inputs, reports)
    assert tally.failed == 1
    assert f"candidate {k} (certified_peak)" in tally.failures[0]


def test_exact_case_checks_pass_and_count_operations():
    spec, inputs, reports = _tiny("exact_growth")
    tally = spec.check(inputs, reports)
    # 3 characters of E, 3 points, 9 pairs, plus the theorem check
    assert (tally.attempted, tally.failed, tally.undecided) == (16, 0, 0)


def test_child_failures_are_reported_not_raised():
    result, problem = bench.run_child(
        [sys.executable, "-c", "import sys; sys.exit(3)"], ROOT, timeout=30)
    assert result is None and problem.startswith("exit code 3")
    result, problem = bench.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], ROOT, timeout=1)
    assert result is None and problem.startswith("timed out")


def test_inherited_thread_variables_are_removed(monkeypatch):
    for name in bench.THREAD_VARIABLES:
        monkeypatch.setenv(name, "1")
    env = bench.child_env(ROOT)
    assert not set(bench.THREAD_VARIABLES) & set(env)
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "exact_growth", "--size", "tiny", "--seconds", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
