# Full N-dimensional search simulation from explicit reflections.
#
# The step applies -(1 - 2|s><s|)(1 - 2|t><t|) as two rank-1 updates per
# iteration (sign flip on the target, then inversion about the mean with an
# overall sign), O(N) per step in place, with no dense operator and no copy
# of the state. This is the brute-force oracle that validates the 2x2
# subspace models.

from __future__ import annotations

import numpy as np

from .search import SearchInstance, grover_power, step_params

__all__ = [
    "MAX_DIMENSION",
    "uniform_state",
    "grover_iterate",
    "success_curve",
    "peak_step",
    "expected_peak_step",
    "subspace_agreement",
]

MAX_DIMENSION = 2**22


def uniform_state(n: int) -> np.ndarray:
    """Uniform superposition: every amplitude 1/sqrt(N)."""
    n = int(n)
    if n < 2:
        raise ValueError("database size must be >= 2")
    if n > MAX_DIMENSION:
        raise ValueError(f"N={n} exceeds the cap {MAX_DIMENSION}")
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def _iterates(psi: np.ndarray, target: int, steps: int):
    """Yield psi after 0, 1, ..., steps search steps, stepping it in place."""
    if not (0 <= target < psi.size):
        raise ValueError(f"target index {target} outside [0, {psi.size})")
    yield psi
    for _ in range(steps):
        psi[target] = -psi[target]
        np.subtract(2.0 * psi.mean(), psi, out=psi)
        yield psi


def grover_iterate(state: np.ndarray, target: int, steps: int) -> np.ndarray:
    """Apply the search step ``steps`` times; returns a new state vector."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    psi = np.array(state, dtype=complex)
    for _ in _iterates(psi, target, steps):
        pass
    return psi


def success_curve(n: int, max_steps: int, target: int = 0) -> np.ndarray:
    """Success probability |<t|psi_k>|^2 for k = 0 .. max_steps."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    psi = uniform_state(n)
    return np.array([abs(p[target]) ** 2 for p in _iterates(psi, target, max_steps)])


def peak_step(curve: np.ndarray) -> int:
    """Step index of the first success-probability maximum."""
    return int(np.argmax(curve))


def subspace_agreement(n: int, steps: int, target: int = 0) -> float:
    """Worst deviation between the full-space run and the 2D model.

    Tracks (<t|psi>, ||psi - <t|psi> |t>||) after each of 0..steps full-space
    iterations against the state grover_power(k) |s> of the two-dimensional
    model, and returns the largest absolute difference seen.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    inst = SearchInstance(n)
    models = grover_power(inst, np.arange(steps + 1)) @ inst.source_state
    worst = 0.0
    for psi, model in zip(_iterates(uniform_state(n), target, steps), models):
        # ||psi - <t|psi> |t>||, read with the target zeroed for a moment.
        amp_t = psi[target]
        psi[target] = 0.0
        amp_perp = float(np.linalg.norm(psi))
        psi[target] = amp_t
        worst = max(worst, abs(amp_t - model[0]), abs(amp_perp - abs(model[1])))
    return worst


def expected_peak_step(n: int) -> int:
    """Closed-form optimal step count: nearest integer to Q_T."""
    q_total = step_params(SearchInstance(n)).q_total
    return int(np.floor(q_total + 0.5))
