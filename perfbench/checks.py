"""Output checkers, independent of the program's own claim checks.

Each checker takes the path of a job's primary output and the parameters
from its job line, and returns a list of problems; an empty list means the
output is correct. Expected values come from closed forms or from inputs
the benchmark builds itself, never from the package under test.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

RESIDUAL_LIMIT = 1e-9
CURVE_TOL = 1e-9
SLOPE_WINDOW = (0.9, 1.1)
LAPLACIAN_TOL = 1e-12


def read_table(path: str):
    """Rows of a CLI CSV as a float array, the header, and the trailing extras."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    extra = {}
    if lines and lines[-1].startswith("# "):
        extra = json.loads(lines.pop()[2:])
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(-1, len(header)), extra


def _expect_header(header, columns) -> list:
    return [] if header == list(columns) else [f"header {header} != {list(columns)}"]


def check_equivalence(path: str, p: dict) -> list:
    header, rows, _ = read_table(path)
    problems = _expect_header(header, ["N", "t", "Q_t", "beta", "residual"])
    expected_rows = len(p["n_list"]) * p["samples"]
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    elif not np.array_equal(rows[:, 0], np.repeat(p["n_list"], p["samples"])):
        problems.append("N column does not follow the requested sizes")
    worst = float(np.max(rows[:, 4])) if len(rows) else math.nan
    if not worst < RESIDUAL_LIMIT:
        problems.append(f"residual {worst:.3e} not below {RESIDUAL_LIMIT:g}")
    return problems


def check_trajectory(path: str, p: dict) -> list:
    """Both routes against their closed forms in the (target, rest) basis.

    Continuous route: P(t) = sin^2(t/sqrt N) + cos^2(t/sqrt N)/N, so
    z_C = 2P - 1. Reflection route at q = Q_T t/T: a real state at angle
    phi = (2q + 1) arcsin(1/sqrt N), so (x, y, z)_G = (sin 2phi, 0, -cos 2phi).
    """
    header, rows, _ = read_table(path)
    problems = _expect_header(header, ["t", "x_C", "y_C", "z_C", "x_G", "y_G", "z_G"])
    if len(rows) != p["samples"]:
        return problems + [f"{len(rows)} rows, expected {p['samples']}"]
    n = p["n"]
    theta = math.asin(1.0 / math.sqrt(n))
    total = 0.5 * math.pi * math.sqrt(n)
    q_total = math.acos(1.0 / math.sqrt(n)) / (2.0 * theta)
    t = rows[:, 0]
    if abs(t[0]) > 0 or abs(t[-1] - total) > 1e-9 * total:
        problems.append("time grid does not span [0, T]")
    x = t / math.sqrt(n)
    z_c = 2.0 * (np.sin(x) ** 2 + np.cos(x) ** 2 / n) - 1.0
    phi = (2.0 * q_total * t / total + 1.0) * theta
    expected_g = np.stack([np.sin(2 * phi), np.zeros_like(phi), -np.cos(2 * phi)], axis=1)
    for label, err in (
        ("continuous |bloch| - 1", np.abs(np.linalg.norm(rows[:, 1:4], axis=1) - 1.0)),
        ("continuous z", np.abs(rows[:, 3] - z_c)),
        ("reflection route", np.abs(rows[:, 4:7] - expected_g)),
    ):
        if np.max(err) > CURVE_TOL:
            problems.append(f"{label} off by {np.max(err):.3e}")
    return problems


def _slope(x, y) -> float:
    x = np.asarray(x) - np.mean(x)
    return float(np.dot(x, np.asarray(y) - np.mean(y)) / np.dot(x, x))


def check_trotter_scan(path: str, p: dict) -> list:
    header, rows, extra = read_table(path)
    problems = _expect_header(header, ["dt", "n", "error", "bound"])
    if len(rows) != p["rows"]:
        return problems + [f"{len(rows)} rows, expected {p['rows']}"]
    over = rows[:, 2] > rows[:, 3]
    if np.any(over):
        problems.append(f"error above bound at dt={rows[over, 0].tolist()}")
    slope = _slope(np.log(rows[:, 0]), np.log(rows[:, 2]))
    if not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
        problems.append(f"slope {slope:.4f} outside {SLOPE_WINDOW}")
    if abs(slope - extra.get("slope", math.nan)) > 1e-9:
        problems.append(f"reported slope {extra.get('slope')} != refit {slope:.12f}")
    return problems


def _binomial_tail(p: Fraction, runs: int) -> float:
    k_min = (runs + 1) // 2
    return float(sum(math.comb(runs, k) * p**k * (1 - p) ** (runs - k)
                     for k in range(k_min, runs + 1)))


def check_grover(path: str, p: dict) -> list:
    header, rows, extra = read_table(path)
    problems = _expect_header(header, ["step", "probability"])
    n = p["n"]
    k = np.arange(len(rows))
    closed = np.sin((2 * k + 1) * math.asin(1.0 / math.sqrt(n))) ** 2
    if len(rows) < 2 or not np.array_equal(rows[:, 0], k):
        problems.append("step column is not 0, 1, 2, ...")
    else:
        err = float(np.max(np.abs(rows[:, 1] - closed)))
        if err > CURVE_TOL:
            problems.append(f"curve off the closed form by {err:.3e}")
    if extra.get("peak_step") != int(np.argmax(closed)):
        problems.append(f"peak step {extra.get('peak_step')} != {int(np.argmax(closed))}")

    amp_header, amp, _ = read_table(path + ".amplification.csv")
    problems += _expect_header(amp_header, ["R", "bound", "exact", "empirical", "ci95"])
    runs = list(range(1, p["runs"] + 1, 2))
    if amp[:, 0].tolist() != runs:
        return problems + [f"amplification rows R={amp[:, 0].tolist()}, expected {runs}"]
    for r, row in zip(runs, amp):
        exact = _binomial_tail(Fraction(1, n), r)
        if abs(row[2] - exact) > 1e-12 * exact:
            problems.append(f"R={r}: exact {row[2]!r} != binomial tail {exact!r}")
        if not 0.0 <= row[3] <= 1.0:
            problems.append(f"R={r}: empirical rate {row[3]!r} outside [0, 1]")
    return problems


def check_cost(path: str, p: dict) -> list:
    """Inputs against their closed forms; derived quantities recomputed exactly.

    The integer step count, register width and per-step cost are recomputed
    from the report's own t and norm_e2 with the same float operations, so
    they must match exactly.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    n, eps = p["n"], p["eps"]
    s = 1.0 / math.sqrt(n)
    closed = {
        "N": n,
        "t": 0.5 * math.pi * math.sqrt(n),
        "eps": eps,
        "norm_e2": 0.5 * s * math.sqrt(1.0 - s * s),  # ||[P_s, P_t]||/2 for overlap s
    }
    inputs = doc.get("inputs", {})
    problems = [
        f"inputs.{key} = {inputs.get(key)!r}, expected {want!r}"
        for key, want in closed.items()
        if not isinstance(inputs.get(key), (int, float)) or abs(inputs[key] - want) > 1e-9 * want
    ]
    if problems:
        return problems
    t, norm_e2 = inputs["t"], inputs["norm_e2"]
    steps = max(1, math.ceil(t**2 * norm_e2 / eps))
    bits = max(1, math.ceil(math.log2(steps * 2 / eps)))
    expected = {"n": steps, "dt": t / steps, "b": bits, "C": math.log2(n) * float(bits) ** 3}
    for key, want in expected.items():
        if doc.get(key) != want:
            problems.append(f"{key} = {doc.get(key)!r}, expected {want!r}")
    if doc.get("grover", {}).get("q_steps") != 0.5 * t:
        problems.append(f"grover.q_steps = {doc.get('grover', {}).get('q_steps')!r} != t/2")
    cost = doc.get("cost", {})
    if not cost.get("trotter", 0) > 0 or not cost.get("grover", 0) > 0:
        problems.append(f"costs not positive: {cost}")
    elif cost.get("ratio_grover_over_trotter") != cost["grover"] / cost["trotter"]:
        problems.append("cost ratio does not match the two costs")
    return problems


def check_decompose(path: str, p: dict) -> list:
    """Re-read the term set: matchings, color count, and the Laplacian sum.

    The Laplacian is built here from the graph's edge list (degree-weighted
    diagonal, -w off the diagonal), and the sum of all terms must match it
    entry by entry.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = p["vertices"]
    problems = []
    if doc.get("dimension") != n:
        problems.append(f"dimension {doc.get('dimension')} != {n}")
    laplacian = {}
    degree = [0] * n
    for u, v, w in p["edges"]:
        laplacian[(u, v)] = laplacian[(v, u)] = -w
        laplacian[(u, u)] = laplacian.get((u, u), 0.0) + abs(w)
        laplacian[(v, v)] = laplacian.get((v, v), 0.0) + abs(w)
        degree[u] += 1
        degree[v] += 1
    max_degree = max(degree)

    total = {}
    colors = 0
    for term in doc.get("terms", []):
        is_color = term["label"].startswith("color")
        matched, shared = set(), []
        for r, c, re, im in term["entries"]:
            total[(r, c)] = total.get((r, c), 0.0) + complex(re, im)
            if is_color and r < c:
                if r in matched or c in matched:
                    shared.append((r, c))
                matched.update((r, c))
        if shared:
            problems.append(f"{term['label']} is not a matching at {shared[:3]}")
        colors += is_color
    allowed = (max_degree,) if p["bipartite"] else range(1, max_degree + 2)
    if colors not in allowed:
        problems.append(f"{colors} colors for max degree {max_degree}")
    keys = total.keys() | laplacian.keys()
    worst = max((abs(total.get(k, 0.0) - laplacian.get(k, 0.0)) for k in keys), default=0.0)
    if not worst <= LAPLACIAN_TOL:
        problems.append(f"terms sum to the Laplacian only within {worst:.3e}")
    return problems


CHECKERS = {
    "equivalence": check_equivalence,
    "trajectory": check_trajectory,
    "trotter_scan": check_trotter_scan,
    "grover": check_grover,
    "cost": check_cost,
    "decompose": check_decompose,
}


def check_job(job) -> list:
    """Problems with a job's output; a missing or unreadable file is one."""
    kind, params = job.check
    try:
        return CHECKERS[kind](job.out, params)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"cannot check {job.out}: {type(exc).__name__}: {exc}"]
