"""Tests of the benchmark's own pieces: checkers, inputs, tracing, metric names.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py

Each checker must pass the real output of a small CLI job and flag the
same output once one value in it is corrupted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hamsearch import cli  # noqa: E402
from tracing import layer_metrics  # noqa: E402


def _replace_csv_cell(path: str, row: int, col: int, value: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _move_entry_to_shared_vertex(doc: dict) -> None:
    # Re-target one off-diagonal entry of color0 so two of its pairs share a vertex.
    entries = doc["terms"][0]["entries"]
    pairs = [e for e in entries if e[0] < e[1]]
    pairs[1][0] = pairs[0][0]


def _small_graph(path: str) -> dict:
    # A 5-cycle plus a chord: odd cycles, max degree 3, dyadic weights.
    edges = [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 1.5], [3, 4, 2.0], [0, 4, 0.75], [0, 2, 1.25]]
    graph = {"vertices": 5, "edges": edges}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph, fh)
    return graph


CASES = {
    "equivalence": (
        lambda d: ["equivalence", "--n-list", "4,16", "--samples", "5"],
        {"n_list": (4, 16), "samples": 5},
        lambda out: _replace_csv_cell(out, 3, 4, "1e-06"),
    ),
    "trajectory": (
        lambda d: ["trajectory", "--n", "16", "--samples", "9"],
        {"n": 16, "samples": 9},
        lambda out: _replace_csv_cell(out, 4, 3, "0.5"),
    ),
    "trotter_scan": (
        lambda d: ["trotter-scan", "--problem", "search-split", "--n", "16"],
        {"rows": 4},
        lambda out: _replace_csv_cell(out, 2, 2, "10"),
    ),
    "grover": (
        lambda d: ["grover", "--n", "64", "--target", "5", "--runs", "3", "--trials", "20000"],
        {"n": 64, "target": 5, "runs": 3},
        lambda out: _replace_csv_cell(out, 3, 1, "0.25"),
    ),
    "cost": (
        lambda d: ["cost", "--n", "1024", "--eps", "1e-9"],
        {"n": 1024, "eps": 1e-9},
        lambda out: _edit_json(out, lambda doc: doc.update(n=doc["n"] + 1)),
    ),
    "decompose": (
        lambda d: ["decompose", "--lattice", "honeycomb", "--cells-x", "3", "--cells-y", "4",
                   "--periodic", "--report", os.path.join(d, "report.json")],
        {"vertices": 24, "edges": workloads.honeycomb_edges(3, 4), "bipartite": True},
        lambda out: _edit_json(out, _move_entry_to_shared_vertex),
    ),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_checker_passes_real_output_and_flags_corruption(kind, tmp_path):
    argv, params, corrupt = CASES[kind]
    out = str(tmp_path / "out")
    assert cli.main(argv(str(tmp_path)) + ["--out", out]) == 0
    job = workloads.Job(kind, (), out, (kind, params))
    assert checks.check_job(job) == []
    corrupt(out)
    assert checks.check_job(job) != []


def test_decompose_checker_on_a_general_graph(tmp_path):
    graph = _small_graph(str(tmp_path / "graph.json"))
    out = str(tmp_path / "terms.json")
    argv = ["decompose", "--graph", str(tmp_path / "graph.json"), "--out", out,
            "--report", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    params = {"vertices": 5, "edges": graph["edges"], "bipartite": False}
    job = workloads.Job("decompose", (), out, ("decompose", params))
    assert checks.check_job(job) == []
    _edit_json(out, lambda doc: doc["terms"][0]["entries"][0].__setitem__(2, 9.0))
    assert any("Laplacian" in p for p in checks.check_job(job))


def test_missing_output_is_a_problem(tmp_path):
    job = workloads.Job("cost", (), str(tmp_path / "absent.json"), ("cost", {"n": 8, "eps": 0.1}))
    assert checks.check_job(job)


def test_random_graph_is_seeded_regular_and_not_bipartite():
    a, b = workloads.random_graph(1), workloads.random_graph(2)
    assert a == workloads.random_graph(1)
    assert a["edges"] != b["edges"]
    for graph in (a, b):
        degree = np.zeros(graph["vertices"], dtype=int)
        for u, v, w in graph["edges"]:
            degree[[u, v]] += 1
            assert 0.5 <= w <= 2.0 and (4 * w).is_integer()
        assert len(graph["edges"]) == 2048
        assert set(degree.tolist()) == {workloads.GRAPH_DEGREE}
        pairs = [(u, v) for u, v, _ in graph["edges"]]
        assert len(set(pairs)) == len(pairs)
        assert not workloads.is_bipartite(graph["vertices"], pairs)


def test_traced_pass_counts_calls_through_every_binding(tmp_path):
    spec = tmp_path / "spec.json"
    spans = str(tmp_path / "spans.npz")
    argv = ["equivalence", "--n-list", "4", "--samples", "3", "--out", str(tmp_path / "eq.csv")]
    spec.write_text(json.dumps({"jobs": [["equivalence", argv]], "spans": spans,
                                "calibration": ["interpreter"]}))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), str(spec),
                    str(tmp_path / "result.json")], env=env, check=True, timeout=120)
    metrics = layer_metrics(spans)
    assert metrics["cli.cmd_equivalence.calls"] == 1
    assert metrics["search.equivalence_params.calls"] == 6  # once in cli, once per residual
    # rotation_unitary is called through search's own binding of the name.
    assert metrics["pauli.rotation_unitary.calls"] == 6
    assert metrics["statevector.grover_iterate.calls"] == 0
    assert all(metrics[f"{name}.self_s"] >= 0 for name in ("search.equivalence_residual",
                                                            "pauli.phase_aligned_distance"))


def test_self_time_subtracts_direct_children(tmp_path):
    path = str(tmp_path / "spans.npz")
    np.savez(path, names=np.array(["a.f", "b.g"]), name=np.array([0, 1, 1]),
             start=np.array([0.0, 1.0, 4.0]), end=np.array([10.0, 3.0, 5.0]),
             parent=np.array([-1, 0, 0]), counter_names=np.array(["c"]), counters=np.array([7]))
    metrics = layer_metrics(path)
    assert metrics == {"a.f.calls": 1, "a.f.self_s": 7.0, "b.g.calls": 2, "b.g.self_s": 3.0, "c": 7}


def test_benchmark_json_lists_every_emitted_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_reference_seconds_divide_by_the_mean_bracketing_calibration():
    assert run.to_reference(2.0, [0.1, 0.3], 0.1) == pytest.approx(1.0)
    assert run.to_reference(1.5, [0.18], 0.18) == pytest.approx(1.5)
    for loops in workloads.CALIBRATION.values():
        assert loops and set(loops) <= set(run.CALIBRATION_LOOPS)
