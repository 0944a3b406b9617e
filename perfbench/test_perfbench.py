"""Tests of the serving benchmark itself, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.bench import run_workload  # noqa: E402
from perfbench.inputs import AssistantInputs, BatchEvalInputs, DashboardInputs, build_universe  # noqa: E402
from perfbench.layers import STEP_PARTS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
_RESULTS: dict[tuple, dict] = {}


def smoke(workload: str, seed: int, trace: bool) -> dict:
    """One smoke-sized run (memoized: several tests read the same run)."""
    key = (workload, seed, trace)
    if key not in _RESULTS:
        _RESULTS[key] = run_workload(workload, seed, seconds=1.0, trace=trace, setups=1, smoke=True, log=lambda line: None)
    return _RESULTS[key]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_every_declared_metric_with_its_unit(workload, trace):
    result = smoke(workload, 1, trace)
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_another_seed_changes_the_requests_but_not_the_metric_set():
    universe = build_universe()
    assert BatchEvalInputs(universe, 1, 3).next_burst() != BatchEvalInputs(universe, 2, 3).next_burst()
    assert [AssistantInputs(universe, 1).next() for _ in range(8)] != [AssistantInputs(universe, 2).next() for _ in range(8)]
    assert DashboardInputs(universe, 1).next() != DashboardInputs(universe, 2).next()
    assert BatchEvalInputs(universe, 3, 3).next_burst() == BatchEvalInputs(universe, 3, 3).next_burst()
    first, second = smoke("batch_eval", 1, False), smoke("batch_eval", 2, False)
    assert second["correct"], second["failures"]
    assert {name: metric["unit"] for name, metric in first["metrics"].items()} == {
        name: metric["unit"] for name, metric in second["metrics"].items()
    }


@pytest.mark.parametrize("workload", ["batch_eval", "dashboard_sharded"])
def test_decode_step_parts_and_host_add_up_to_step_time(workload):
    metrics = {name: metric["value"] for name, metric in smoke(workload, 1, True)["metrics"].items()}
    parts = [metrics[part + "_ms"] for part in STEP_PARTS]
    assert metrics["decode.step_ms"] > 0
    assert all(value > 0 for value in parts)
    assert metrics["decode.step.host_ms"] >= 0
    assert sum(parts) + metrics["decode.step.host_ms"] == pytest.approx(metrics["decode.step_ms"], rel=1e-9)


def test_every_layer_metric_has_a_prediction():
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text(encoding="utf-8"))
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    assert set(predictions) == {metric["name"] for metric in SPEC["per_layer"]}
    for name, prediction in predictions.items():
        assert set(prediction["moves"]) <= end_to_end, name
        assert set(prediction["workloads"]) <= set(WORKLOAD_NAMES), name


def test_command_fails_without_the_serving_code(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    command = SPEC["command"] + ["--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
