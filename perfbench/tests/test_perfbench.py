"""The benchmark at tiny sizes: metric names and units, gates, entry point.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockpert.cli as cli
from perfbench import speed, worker
from perfbench.tracing import GROUPS, LAYER_METRICS
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "dense_two_block": dict(n_a=4, n_b=12),
    "graphene_spectrum": dict(max_orders=(2, 2, 1), grid=3),
    "implicit_lattice": dict(width=8, n_explicit=3, sweep_width=8),
}
# (workload, order, amount): entries the corruption test changes. The
# implicit gate resolves the order-6 entry to about 1e-11 / 0.005⁶ ≈ 640.
CORRUPTIONS = [
    ("dense_two_block", (1,), 1.0),
    ("graphene_spectrum", (1, 0, 0), 1.0),
    ("implicit_lattice", (1,), 1.0),
    ("implicit_lattice", (6,), 1e4),
]


def _run(name, trace=False):
    result, _ = worker.run(name, seed=3, seconds=0, trace=trace, **TINY[name])
    return result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_are_emitted_with_units(name):
    result = _run(name)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {m: entry["unit"] for m, entry in result["metrics"].items()}
    assert emitted == dict(worker.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_timings_are_divided_by_the_probe_slowness(monkeypatch):
    monkeypatch.setattr(speed, "slowness", lambda kernels: 2.0)
    result, samples = worker.run("graphene_spectrum", seed=3, seconds=0, trace=False,
                                 **TINY["graphene_spectrum"])
    for phase in ("setup", "solve", "sweep"):
        walls = [wall for wall, slowness in samples[phase]]
        assert walls and all(slowness == 2.0 for _, slowness in samples[phase])
        value = result["metrics"][f"{phase}_s"]["value"]
        assert value == pytest.approx(statistics.median(walls) / 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_metrics_are_emitted_and_products_add_up(name):
    result = _run(name, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert {m: entry["unit"] for m, entry in metrics.items()} == dict(LAYER_METRICS)
    per_series = sum(metrics[f"series.{g}.products"]["value"] for g in GROUPS)
    assert per_series == metrics["operators.products"]["value"] > 0
    assert metrics["diagonalization.solve_products"]["value"] > 0


def test_dense_solve_takes_57_products():
    """Orders 1 to 6 of one two-block entry take 57 products at any size."""
    result, _ = worker.run("dense_two_block", seed=5, seconds=0, trace=True,
                           n_a=20, n_b=200)
    assert result["metrics"]["diagonalization.solve_products"]["value"] == 57


@pytest.mark.parametrize("name, order, amount", CORRUPTIONS, ids=str)
def test_corrupted_entry_fails_the_gate(name, order, amount, monkeypatch):
    workload = WORKLOADS[name]
    setup = workload.setup

    def corrupted_setup(self, tracer):
        result = setup(self, tracer)
        evaluate = result.h_tilde.eval

        def eval(i, j, *requested):
            value = evaluate(i, j, *requested)
            if (i, j, requested) == (0, 0, order):
                value = np.array(value, dtype=np.complex128)
                value[0, 0] += amount
            return value

        result.h_tilde.eval = eval
        return result

    monkeypatch.setattr(workload, "setup", corrupted_setup)
    result = _run(name)
    assert result["failed"] > 0 and not result["correct"]


def test_failing_setup_fails_every_operation(monkeypatch):
    def failing_setup(self, tracer):
        raise ValueError("rejected input")

    monkeypatch.setattr(WORKLOADS["dense_two_block"], "setup", failing_setup)
    result = _run("dense_two_block")
    assert result["failed"] == result["attempted"] > 0 and not result["correct"]
    assert set(result["metrics"]) == set(dict(worker.END_TO_END))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_csv_eigenvalue_fails_the_gate(name, monkeypatch):
    spectrum = cli.main

    def corrupted_main(argv):
        code = spectrum(argv)
        path = argv[argv.index("--output") + 1]
        with open(path) as handle:
            rows = handle.read().splitlines()
        cells = rows[-1].split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-6)
        rows[-1] = ",".join(cells)
        with open(path, "w") as handle:
            handle.write("\n".join(rows) + "\n")
        return code

    monkeypatch.setattr(cli, "main", corrupted_main)
    result = _run(name)
    assert result["failed"] > 0 and not result["correct"]


def test_entry_point_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = [sys.executable, "perfbench/run.py", "--workload", "dense_two_block",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True,
                               timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(worker.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
