"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

sys.path.insert(0, run.SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(run.OP_KINDS)


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    """Every run here is tiny: one set-up interpreter, three ops."""
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "MIN_OPS", 3)


def _run(name, trace=False):
    return run.run_workload(name, seed=3, seconds=0.01, trace=trace)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_prints_every_metric_without_failures(name):
    result, lines = _run(name)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert list(result["metrics"]) == [m for m, _ in run.END_TO_END]
    text = "\n".join(lines)
    for metric, unit in run.END_TO_END:
        assert result["metrics"][metric] == {
            "value": result["metrics"][metric]["value"], "unit": unit}
        assert result["metrics"][metric]["value"] > 0
        assert metric in text
    assert "error_rate" in text and f"(0/{result['attempted']})" in text


def _op_list(name, seed):
    wl = workloads.create(name, seed, "")
    return json.dumps([wl.round(r) for r in range(3)], sort_keys=True)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_op_list(name):
    first = _op_list(name, 11)
    assert first == _op_list(name, 11)
    assert first != _op_list(name, 12)


@pytest.mark.parametrize("name", NAMES)
def test_rounds_keep_the_mix_and_interleave_kinds(name):
    wl = workloads.create(name, 11, "")
    rounds = [[op["kind"] for op in wl.round(r)] for r in range(4)]
    assert all(sorted(kinds) == sorted(rounds[0]) for kinds in rounds)
    assert len({tuple(kinds) for kinds in rounds}) > 1


# (module, attribute, corruption of the original): each breaks one oracle
# of the workload, never the program the workload measures.
CORRUPTIONS = {
    "signoff": ("repro.sta.slack", "minimum_feasible_period_closed_form",
                lambda f: lambda design, mode="exact": f(design, mode) + 1.0),
    "eco": ("repro.sta.slack", "analyze_slack",
            lambda f: lambda design: f(design.with_period(2.0 * design.period))),
    "simulate": ("repro.sim.dataflow",
                 "SelfTimedProgramSimulator.recurrence_makespan_scalar",
                 lambda f: lambda sim, waves=None: f(sim, waves) + 1.0),
    "cli": ("repro.obs.schema", "validate_flow_report",
            lambda f: lambda report: ["corrupted"]),
}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_oracle_counts_as_failure(name, monkeypatch):
    module, path, corrupt = CORRUPTIONS[name]
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    monkeypatch.setattr(run, "MIN_OPS", len(workloads.create(name, 3, "").round(0)))
    result, lines = _run(name)
    assert result["failed"] >= 1 and not result["correct"]
    assert any("FAILED" in line for line in lines)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_adds_up(name):
    result, lines = _run(name, trace=True)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert [(m, v["unit"]) for m, v in metrics.items()] == [
        (m, unit) for m, unit, _ in run.per_layer_spec()]
    # In-process workloads import in set-up: their import row is the probe.
    layers = [layer for layer, _, _ in tracing.LAYERS
              if name == "cli" or layer != "import"]
    wall = metrics["trace.op_wall_s"]["value"]
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in layers)
    assert wall > 0 and total == pytest.approx(wall, rel=1e-9)
    assert metrics["import.numpy_s"]["value"] > 0
    stem = os.path.join(run.OUT, f"{name}-seed3")
    with open(stem + ".spans.jsonl", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert {s["layer"] for s in spans} >= {"other"}
    assert os.path.exists(stem + ".layers.txt")


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_spec()


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "signoff",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
