"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest -q swebbench/tests

The smoke tests run every workload at a tiny scale through the real
command; the check tests corrupt a real run's outcome and expect the
matching check to reject it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from calibration import SpeedSampler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SCALE = "0.02"


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "swebbench/run.py", "--seconds", "0",
         "--scale", SMOKE_SCALE, *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


# ------------------------------------------------------------------- smoke
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload: str, trace: str):
    done = run_bench("--workload", workload, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        # the human-readable table names it with its unit too
        assert any(line.split()[:1] == [m["name"]]
                   and line.rstrip().endswith(m["unit"])
                   for line in done.stdout.splitlines())
    if trace == "0":
        for m in expected:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "swebbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "meiko_coop", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ------------------------------------------------------------------ checks
@pytest.fixture(scope="module")
def evidence():
    """A tiny traced meiko run's evidence, taken as the child takes it."""
    import workloads
    from measure import RunObserver, scenario_evidence
    from repro.experiments.runner import run_scenario

    scenario = workloads.build("meiko_traced", seed=3, scale=0.02)
    with RunObserver(None, SpeedSampler()) as observer:
        result = run_scenario(scenario)
        observer.stop()
    return scenario_evidence(scenario, result, observer)


def test_real_run_passes_every_check(evidence):
    assert evidence.rows and evidence.traces
    assert evidence.failures() == []


def test_lost_arrival_is_rejected(evidence):
    lost = dataclasses.replace(evidence, rows=evidence.rows[1:])
    assert any("arrivals" in f for f in lost.failures())


def test_unsettled_request_is_rejected(evidence):
    rows = list(evidence.rows)
    rows[0] = rows[0]._replace(end=None)
    assert any("never settled" in f
               for f in dataclasses.replace(evidence, rows=rows).failures())


def test_double_settlement_is_rejected(evidence):
    counters = dict(evidence.counters)
    counters["completed"] += 1
    assert any("completed counter" in f for f in dataclasses.replace(
        evidence, counters=counters).failures())


def test_tampered_byte_count_is_rejected(evidence):
    rows = list(evidence.rows)
    i = next(i for i, r in enumerate(rows) if r.ok)
    rows[i] = rows[i]._replace(bytes=rows[i].bytes - 1)
    assert any("byte count" in f
               for f in dataclasses.replace(evidence, rows=rows).failures())


def test_broken_trace_is_rejected(evidence):
    traces = list(evidence.traces)
    req_id, traced, _problems, _reconciles = traces[0]
    traces[0] = (req_id, traced, [], False)
    assert any("reconcile" in f for f in dataclasses.replace(
        evidence, traces=traces).failures())
    traces[0] = (req_id, traced, ["two roots"], None)
    assert any("two roots" in f for f in dataclasses.replace(
        evidence, traces=traces).failures())


def test_changed_fingerprint_is_rejected(evidence):
    same = checks.fingerprint(evidence.rows)
    assert checks.check_same([same, checks.fingerprint(evidence.rows)],
                             "runs") == []
    rows = list(evidence.rows)
    rows[-1] = rows[-1]._replace(end=rows[-1].end + 1e-12)
    changed = checks.fingerprint(rows)
    assert changed != same
    assert checks.check_same([same, same, changed], "runs")


def test_fluid_count_mismatch_is_rejected():
    assert checks.check_fluid(100, 100, [60, 40]) == []
    assert checks.check_fluid(100, 99, [60, 40])
    assert checks.check_fluid(100, 100, [60, 39])


def test_unaccounted_layer_time_is_rejected():
    assert checks.check_accounted(1.01) == []
    assert checks.check_accounted(0.5)


# --------------------------------------------------------------- the spec
def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "swebbench/run.py"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    import workloads
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
