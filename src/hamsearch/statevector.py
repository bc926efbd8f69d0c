# Full N-dimensional search simulation from explicit reflections.
#
# The step applies -(1 - 2|s><s|)(1 - 2|t><t|) as a sign flip on the target
# and an inversion about the mean read from the state: grover_iterate and
# subspace_agreement are the brute-force N-dimensional oracle that validates
# the 2x2 subspace models. success_curve, which the CLI plots, runs on two
# scalars: a step keeps mean(flip_t(psi)) = mean - 2 psi[t]/N and
# mean(2 mean - psi) = mean, so psi[t] and the mean summed once carry it.

from __future__ import annotations

import numpy as np

from .search import SearchInstance, grover_power

__all__ = [
    "MAX_DIMENSION",
    "MAX_STEPS",
    "uniform_state",
    "grover_iterate",
    "success_curve",
    "peak_step",
    "expected_peak_step",
    "subspace_agreement",
]

MAX_DIMENSION = 2**22
MAX_STEPS = 2**20


def _checked_dimension(n: int) -> int:
    n = int(n)
    if n < 2:
        raise ValueError("database size must be >= 2")
    if n > MAX_DIMENSION:
        raise ValueError(f"N={n} exceeds the cap {MAX_DIMENSION}")
    return n


def uniform_state(n: int) -> np.ndarray:
    """Uniform superposition: every amplitude 1/sqrt(N)."""
    n = _checked_dimension(n)
    return np.full(n, 1.0 / np.sqrt(n))


def _check_target(n: int, target: int) -> None:
    if not (0 <= target < n):
        raise ValueError(f"target index {target} outside [0, {n})")


def _iterates(psi: np.ndarray, target: int, steps: int):
    """Yield psi after 0, 1, ..., steps search steps, stepping it in place."""
    _check_target(psi.size, target)
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
    if max_steps > MAX_STEPS:
        raise ValueError(f"max_steps={max_steps} exceeds the cap {MAX_STEPS}")
    n = _checked_dimension(n)
    _check_target(n, target)
    amp = 1.0 / np.sqrt(n)  # a zero-stride view sums pairwise as the np.full array does
    mean, a = float(np.broadcast_to(amp, (n,)).mean()), float(amp)
    curve = np.empty(max_steps + 1)  # 8 bytes a step, where a list of floats took 40
    curve[0] = abs(a) ** 2  # libm pow, which can sit one rounding off np.square
    for k in range(1, max_steps + 1):
        mean -= 2.0 * a / n  # the target's sign flip, seen by the mean
        a = 2.0 * mean + a  # 2 mean - (-a): the flipped amplitude, inverted
        curve[k] = abs(a) ** 2
    return curve


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
    return int(np.floor(SearchInstance(n).q_total + 0.5))
