"""Span tracing around the package's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``hamsearch`` module namespace that binds it (``search.rotation_unitary`` as
well as ``pauli.rotation_unitary``), so calls made inside the package are
traced too. Each call records a span (name, start, end, parent) in memory;
``Tracer.save`` writes them out once the jobs are done, and
``layer_metrics`` derives per-function calls and self time from the file.
Jobs run on one thread, so one span stack suffices.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

TRACED = {
    "pauli": ("rotation_unitary", "phase_aligned_distance", "bloch_point"),
    "search": ("equivalence_params", "equivalence_residual", "evolve_continuous", "grover_power"),
    "statevector": ("success_curve", "grover_iterate"),
    "amplify": ("simulate_majority", "majority_error_exact"),
    "trotter": (
        "exact_term_exponential",
        "trotter_step",
        "trotter_evolve",
        "commutator_error",
        "save_term_set",
    ),
    "linalg": ("spectral_norm", "assert_hermitian"),
    "decompose": (
        "honeycomb_lattice",
        "laplacian_chain",
        "load_graph",
        "bipartition",
        "color_edges",
        "decompose",
    ),
    "cli": (
        "cmd_trajectory",
        "cmd_equivalence",
        "cmd_trotter_scan",
        "cmd_decompose",
        "cmd_grover",
        "cmd_cost",
    ),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_grover_iterate(c: dict, args, kwargs, result) -> None:
    # Each call copies the state (read + write) and then, per step, reads it
    # for the mean and reads and writes it for 2 mean - psi: 2 + 3 steps
    # passes over state.nbytes. Computed from sizes, not measured.
    steps = _arg(args, kwargs, 2, "steps")
    c["statevector.steps"] += steps
    c["statevector.bytes_moved_computed"] += result.nbytes * (2 + 3 * steps)


def _count_success_curve(c: dict, args, kwargs, result) -> None:
    c["statevector.n"] = max(c["statevector.n"], _arg(args, kwargs, 0, "n"))


def _count_simulate_majority(c: dict, args, kwargs, result) -> None:
    c["amplify.trials"] += result.trials


def _count_term_set(c: dict, args, kwargs, result) -> None:
    terms = _arg(args, kwargs, 0, "terms")
    c["trotter.dimension"] = max(c["trotter.dimension"], terms.dimension)
    c["trotter.terms"] = max(c["trotter.terms"], len(terms))


def _count_coloring(c: dict, args, kwargs, result) -> None:
    graph = _arg(args, kwargs, 0, "graph")
    c["decompose.edges"] += len(graph.edges)
    c["decompose.color_count"] += result.color_count
    c["decompose.max_degree"] = max(c["decompose.max_degree"], graph.max_degree)


COUNTER_HOOKS = {
    "statevector.grover_iterate": _count_grover_iterate,
    "statevector.success_curve": _count_success_curve,
    "amplify.simulate_majority": _count_simulate_majority,
    "trotter.trotter_evolve": _count_term_set,
    "trotter.commutator_error": _count_term_set,
    "decompose.color_edges": _count_coloring,
}
COUNTERS = (
    "statevector.n",
    "statevector.steps",
    "statevector.bytes_moved_computed",
    "amplify.trials",
    "trotter.dimension",
    "trotter.terms",
    "decompose.edges",
    "decompose.color_count",
    "decompose.max_degree",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        # One entry per span in four parallel arrays, which the garbage
        # collector does not scan, unlike a list of per-span objects.
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def wrap(self, index: int, fn):
        hook = COUNTER_HOOKS.get(SPAN_NAMES[index])
        name, start, end, parent = self.name, self.start, self.end, self.parent
        stack, counters = self.stack, self.counters

        def traced(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a hamsearch module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hamsearch" or name.startswith("hamsearch."))]
        for index, qualified in enumerate(SPAN_NAMES):
            mod_name, fn_name = qualified.split(".")
            original = getattr(sys.modules[f"hamsearch.{mod_name}"], fn_name)
            traced = self.wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            counter_names=np.array(COUNTERS),
            counters=np.array([self.counters[k] for k in COUNTERS], dtype=np.int64),
        )


def layer_metrics(path: str) -> dict:
    """Calls and self time per traced function, plus the counters.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    with np.load(path) as f:
        names = f["names"].tolist()
        name, parent = f["name"], f["parent"]
        duration = f["end"] - f["start"]
        counters = dict(zip(f["counter_names"].tolist(), f["counters"].tolist()))
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    self_time = np.bincount(name, weights=duration - child_time, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    metrics = {}
    for i, qualified in enumerate(names):
        metrics[f"{qualified}.calls"] = int(calls[i])
        metrics[f"{qualified}.self_s"] = float(self_time[i])
    metrics.update(counters)
    return metrics
