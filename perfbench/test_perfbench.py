"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = run.load_layers()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


def session_members(sid: int) -> list:
    """Pids of the live processes in session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text(encoding="ascii") if entry.name.isdigit() else ""
        except OSError:
            continue
        # Field 6 (session) is the fourth after the parenthesised command name.
        if stat and int(stat.rpartition(")")[2].split()[3]) == sid:
            members.append(int(entry.name))
    return members


def bench(workload: str, trace: int) -> dict:
    """Smoke-run one workload through the command line; return its result.

    The run gets a session of its own, so any process it leaves behind
    (pool workers, the shared-memory resource tracker) is still found.
    """
    done = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = done.communicate(timeout=600)
    assert done.returncode == 0, stdout + stderr
    assert session_members(done.pid) == [], f"{workload} left processes running"
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_declared_metrics_are_named_and_united():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [metric["name"] for metric in declared]
    assert len(names) == len(set(names))
    for metric in declared:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert metric["unit"] and metric["better"] in ("lower", "higher")
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [(name, entry["unit"], entry["better"]) for name, entry in LAYERS.items()]
    assert {entry["name"] for entry in BENCHMARK["workloads"]} <= set(WORKLOAD_NAMES)


def test_interaction_map_names_declared_metrics_and_workloads():
    targets = set(run.END_TO_END_UNITS) | set(LAYERS)
    for name, entry in LAYERS.items():
        for move in entry["moves"]:
            assert move["metric"] in targets, (name, move)
            assert move["workload"] in WORKLOAD_NAMES, (name, move)
        assert set(entry["flat_on"]) <= set(WORKLOAD_NAMES), name
        assert set(entry["runs_on"]) <= set(WORKLOAD_NAMES), name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = bench(workload, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END_UNITS
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric(workload):
    result = bench(workload, trace=1)
    assert result["correct"] is True
    units = {name: entry["unit"] for name, entry in LAYERS.items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, entry in LAYERS.items():
        value = result["metrics"][name]["value"]
        assert math.isfinite(value), name
        if workload in entry["runs_on"]:
            assert value > 0, f"{name} is 0 on {workload}, where its layer runs"


def _nudge(value: float) -> float:
    return math.nextafter(value, 0.0)


def _corrupt_reproduce(monkeypatch):
    original = workloads.run_all_experiments

    def corrupted(**kwargs):
        report = original(**kwargs)
        next(t for t in report.tables if t.title.startswith("EXP-XV")).rows[0]["mc_availability"] = 1.5
        return report

    monkeypatch.setattr(workloads, "run_all_experiments", corrupted)


def _corrupt_stacked_surface(monkeypatch):
    original = workloads.sweep_grid

    def corrupted(*args, **kwargs):
        grid = original(*args, **kwargs)
        if kwargs.get("backend") != "monte_carlo":
            return grid
        return dataclasses.replace(grid, points=[
            [dataclasses.replace(p, availability=_nudge(p.availability)) for p in row]
            for row in grid.points
        ])

    monkeypatch.setattr(workloads, "sweep_grid", corrupted)


def _corrupt_rare_query(monkeypatch):
    original = workloads.evaluate_stacked

    def corrupted(*args, **kwargs):
        estimates = original(*args, **kwargs)
        if kwargs.get("resume"):
            estimates[0] = dataclasses.replace(estimates[0], availability=_nudge(estimates[0].availability))
        return estimates

    monkeypatch.setattr(workloads, "evaluate_stacked", corrupted)


def _corrupt_solve_queries(monkeypatch):
    original = workloads.evaluate

    def corrupted(*args, **kwargs):
        estimate = original(*args, **kwargs)
        return dataclasses.replace(estimate, unavailability=estimate.unavailability * (1 + 1e-6))

    monkeypatch.setattr(workloads, "evaluate", corrupted)


CORRUPTIONS = {
    "reproduce": _corrupt_reproduce,
    "stacked_surface": _corrupt_stacked_surface,
    "rare_query": _corrupt_rare_query,
    "solve_queries": _corrupt_solve_queries,
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_corrupted_result_fails_the_run(workload, monkeypatch, capsys):
    CORRUPTIONS[workload](monkeypatch)
    status = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.01", "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 1
    assert json.loads(lines[-1])["correct"] is False
    assert any(line.startswith("check failed: ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "layers.json").write_bytes((HERE / "layers.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
