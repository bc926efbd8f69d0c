"""Fixed job lists of the three benchmark workloads and their seeded inputs.

A job is one ``hamsearch`` command line. The workload seed only picks the
generated inputs: the Grover target, the Monte Carlo ``--seed`` and the
random graph file. Job lines pass no ``--threads`` flag, so the program runs
with its default thread count.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WHY = {
    "subspace": "equivalence 8 N x 2000 t, trajectory N=1024 x 10001, d=2 trotter-scan, cost: "
    "tens of thousands of tiny 2x2 calls in pauli and search",
    "fullspace": "grover N=2^19, 9 runs x 4e6 trials: O(N) reflection steps on an 8 MB state "
    "in statevector, plus amplify's Philox Monte Carlo",
    "lattice": "decompose 32x32 torus honeycomb and a seeded 4-regular graph, chain trotter-scan "
    "L=512: dense d x d terms, eigh/svd/matrix_power, JSON writes; large memory",
}
WORKLOADS = tuple(WHY)

# Calibration loops (child.CALIBRATION_LOOPS) timed around each job, chosen
# to slow down with the host as the workload's jobs do. Jobs that run on one
# thread track the interpreter loop, which runs on the same vCPU. The lattice
# jobs spend much of their time in BLAS on every vCPU, so they also need the
# BLAS loop, which the host slows when either vCPU is in its slow state.
CALIBRATION = {
    "subspace": ["interpreter"],
    "fullspace": ["interpreter"],
    "lattice": ["interpreter", "blas"],
}

EQUIVALENCE_N = (4, 16, 64, 256, 1024, 4096, 16384, 65536)
EQUIVALENCE_SAMPLES = 2000
TRAJECTORY_N = 1024
TRAJECTORY_SAMPLES = 10001
SPLIT_N = 65536
SPLIT_DT = (1, 0.5, 0.25, 0.125, 0.0625, 0.03125)
COST_N = 1048576
COST_EPS = 1e-12
GROVER_N = 524288
GROVER_RUNS = 9
GROVER_TRIALS = 4_000_000
HONEYCOMB_CELLS = 32
CHAIN_LENGTH = 512
CHAIN_ROWS = 4  # the chain scan uses the CLI's default dt grid of four steps
GRAPH_VERTICES = 1024
GRAPH_DEGREE = 4  # 4-regular: 2048 edges and the same max degree for every seed


@dataclass(frozen=True)
class Job:
    """One CLI invocation, the file it must produce, and how to check it.

    ``metric`` names the job's own end-to-end time, or is None for jobs too
    short to time alone; those count only in the workload's wall time.
    ``check`` holds the checker name and the parameters the checker needs.
    """

    name: str
    argv: tuple
    out: str
    check: tuple
    metric: str | None = None


def random_graph(seed: int) -> dict:
    """Seeded simple 4-regular graph with an odd cycle and dyadic weights.

    The pairing model is redrawn until it gives a simple graph that is not
    bipartite, so the program takes its Misra-Gries path. Weights are
    multiples of 1/4, so every sum the decomposition forms is exact.
    """
    rng = random.Random(seed)
    stubs = [v for v in range(GRAPH_VERTICES) for _ in range(GRAPH_DEGREE)]
    while True:
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == len(stubs) // 2 and all(a != b for a, b in pairs):
            edges = sorted(pairs)
            if not is_bipartite(GRAPH_VERTICES, edges):
                break
    return {
        "vertices": GRAPH_VERTICES,
        "edges": [[u, v, rng.randint(2, 8) / 4] for u, v in edges],
    }


def is_bipartite(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    for start in range(n):
        if side[start] != -1:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def honeycomb_edges(cells_x: int, cells_y: int) -> list:
    """Edges of the periodic honeycomb in the CLI's site numbering.

    Site (x, y, s) is 2 (x cells_y + y) + s; the A site of each cell bonds to
    the B sites of its own cell and of the cells at x - 1 and y - 1.
    """

    def site(x: int, y: int, s: int) -> int:
        return 2 * (x * cells_y + y) + s

    edges = []
    for x in range(cells_x):
        for y in range(cells_y):
            a = site(x, y, 0)
            for b in (site(x, y, 1), site((x - 1) % cells_x, y, 1), site(x, (y - 1) % cells_y, 1)):
                edges.append([min(a, b), max(a, b), 1.0])
    return edges


def build_jobs(workload: str, seed: int, indir: str, outdir: str) -> list:
    """The workload's jobs in run order, writing into ``outdir``.

    Generated inputs are written into ``indir`` once per benchmark run.
    """
    rng = random.Random(f"{workload}:{seed}")

    def out(name: str) -> str:
        return os.path.join(outdir, name)

    if workload == "subspace":
        n_list = ",".join(str(n) for n in EQUIVALENCE_N)
        dt_grid = ",".join(str(dt) for dt in SPLIT_DT)
        return [
            Job(
                "equivalence",
                ("equivalence", "--n-list", n_list, "--samples", str(EQUIVALENCE_SAMPLES),
                 "--out", out("equivalence.csv")),
                out("equivalence.csv"),
                ("equivalence", {"n_list": EQUIVALENCE_N, "samples": EQUIVALENCE_SAMPLES}),
                "equivalence_s",
            ),
            Job(
                "trajectory",
                ("trajectory", "--n", str(TRAJECTORY_N), "--samples", str(TRAJECTORY_SAMPLES),
                 "--out", out("trajectory.csv")),
                out("trajectory.csv"),
                ("trajectory", {"n": TRAJECTORY_N, "samples": TRAJECTORY_SAMPLES}),
                "trajectory_s",
            ),
            Job(
                "trotter_scan_split",
                ("trotter-scan", "--problem", "search-split", "--n", str(SPLIT_N),
                 "--dt-grid", dt_grid, "--out", out("scan_split.csv")),
                out("scan_split.csv"),
                ("trotter_scan", {"rows": len(SPLIT_DT)}),
            ),
            Job(
                "cost",
                ("cost", "--n", str(COST_N), "--eps", str(COST_EPS), "--out", out("cost.json")),
                out("cost.json"),
                ("cost", {"n": COST_N, "eps": COST_EPS}),
            ),
        ]
    if workload == "fullspace":
        target = rng.randrange(GROVER_N)
        mc_seed = rng.randrange(2**32)
        return [
            Job(
                "grover",
                ("grover", "--n", str(GROVER_N), "--target", str(target),
                 "--runs", str(GROVER_RUNS), "--trials", str(GROVER_TRIALS),
                 "--seed", str(mc_seed), "--out", out("grover.csv")),
                out("grover.csv"),
                ("grover", {"n": GROVER_N, "target": target, "runs": GROVER_RUNS}),
                "grover_s",
            ),
        ]
    if workload == "lattice":
        graph = random_graph(rng.randrange(2**32))
        graph_path = os.path.join(indir, "graph.json")
        with open(graph_path, "w", encoding="utf-8") as fh:
            json.dump(graph, fh)
        cells = str(HONEYCOMB_CELLS)
        return [
            Job(
                "decompose_lattice",
                ("decompose", "--lattice", "honeycomb", "--cells-x", cells, "--cells-y", cells,
                 "--periodic", "--out", out("honeycomb.json"),
                 "--report", out("honeycomb.report.json")),
                out("honeycomb.json"),
                ("decompose", {
                    "vertices": 2 * HONEYCOMB_CELLS**2,
                    "edges": honeycomb_edges(HONEYCOMB_CELLS, HONEYCOMB_CELLS),
                    "bipartite": True,
                }),
                "decompose_lattice_s",
            ),
            Job(
                "decompose_graph",
                ("decompose", "--graph", graph_path, "--out", out("graph_terms.json"),
                 "--report", out("graph_terms.report.json")),
                out("graph_terms.json"),
                ("decompose", {"vertices": graph["vertices"], "edges": graph["edges"],
                               "bipartite": False}),
                "decompose_graph_s",
            ),
            Job(
                "trotter_scan",
                ("trotter-scan", "--problem", "chain", "--length", str(CHAIN_LENGTH),
                 "--periodic", "--out", out("scan_chain.csv")),
                out("scan_chain.csv"),
                ("trotter_scan", {"rows": CHAIN_ROWS}),
                "trotter_scan_s",
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
