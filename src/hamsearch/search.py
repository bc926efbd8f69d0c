# Two-dimensional models of quantum search over an unstructured database of
# size N, in the invariant subspace spanned by the target |t> = (1, 0) and
# its orthogonal complement |t_perp> = (0, 1).
#
# Two routes from the uniform state |s> to |t>:
# - continuous: H = |s><s| + |t><t|, a fixed-rate rotation about the axis
#   bisecting the two states; reaches the target at time T = (pi/2) sqrt(N);
# - discrete: the Grover step U = -(1 - 2|s><s|)(1 - 2|t><t|), a rotation by
#   4 arcsin(1/sqrt(N)) per step along the geodesic.
# The two are linked by an exact identity: the continuous evolution at any
# t in [0, T] equals a fractional Grover power sandwiched between two
# z-phase rotations (equivalence_params / equivalence_residual below).

from __future__ import annotations

import numpy as np

from . import _Record
from .pauli import _su2_distance, _su2_product, _su2_rotation, rotation_unitary
from .trotter import HermitianTermSet

__all__ = [
    "SearchInstance",
    "EquivalenceParams",
    "GROVER_AXIS",
    "continuous_axis",
    "search_split",
    "evolve_continuous",
    "grover_power",
    "equivalence_params",
    "equivalence_residual",
    "endpoint_residual",
    "phase_rotation",
]

# Bloch axis of the Grover step. The step generator is -(sqrt(N-1)/N) s2,
# so the right-handed rotation axis points along -y; the rotation angle per
# step is 4 arcsin(1/sqrt(N)).
GROVER_AXIS = np.array([0.0, -1.0, 0.0])


class SearchInstance(_Record):
    """Database size N plus its derived 2D-subspace angles, times and step counts."""

    _fields = ("n",)

    def __init__(self, n: int) -> None:
        if int(n) != n or n < 2:
            raise ValueError("database size must be an integer >= 2")
        if n >= 2**64:  # numpy takes no integer past uint64 as a number
            raise ValueError(f"database size N={n} is not below 2^64")
        self._set(int(n))

    @property
    def overlap(self) -> float:
        """<t|s> = 1/sqrt(N)."""
        return 1.0 / np.sqrt(self.n)

    @property
    def half_step_angle(self) -> float:
        """alpha = 2 arcsin(1/sqrt(N)), the per-step jump resolution."""
        return 2.0 * np.arcsin(self.overlap)

    @property
    def total_time(self) -> float:
        """T = (pi/2) sqrt(N), the continuous-route search time."""
        return 0.5 * np.pi * np.sqrt(self.n)

    @property
    def q_total(self) -> float:
        """Q_T = arccos(1/sqrt(N)) / alpha ~ (pi/4) sqrt(N), the Grover step
        count of the search before integer rounding."""
        return np.arccos(self.overlap) / self.half_step_angle

    @property
    def tau(self) -> float:
        """tau = (2N/sqrt(N-1)) arcsin(1/sqrt(N)), the evolution time per Grover step."""
        return 2.0 * self.n / np.sqrt(self.n - 1.0) * np.arcsin(self.overlap)

    @property
    def target_state(self) -> np.ndarray:
        return np.array([1.0, 0.0], dtype=complex)

    @property
    def source_state(self) -> np.ndarray:
        s = self.overlap
        return np.array([s, np.sqrt(1.0 - s * s)], dtype=complex)


class EquivalenceParams(_Record):
    """Fractional Grover power Q_t and phase angle beta at evolution time t.

    Both fields have the shape of the t they were computed for.
    """

    _fields = ("q_t", "beta")

    def __init__(self, q_t: float | np.ndarray, beta: float | np.ndarray) -> None:
        self._set(q_t, beta)


def continuous_axis(inst: SearchInstance) -> np.ndarray:
    """Unit Bloch axis of the continuous evolution: (sqrt((N-1)/N), 0, 1/sqrt(N))."""
    s = inst.overlap
    return np.array([np.sqrt(1.0 - s * s), 0.0, s])


def search_split(inst: SearchInstance) -> HermitianTermSet:
    """H = |s><s| + |t><t| split into its two projectors."""
    s, t = inst.source_state, inst.target_state
    return HermitianTermSet(2, (np.outer(s, s.conj()), np.outer(t, t.conj())),
                            ("source-projector", "target-projector"))


def evolve_continuous(inst: SearchInstance, t: float | np.ndarray) -> np.ndarray:
    """Continuous evolution operator at time t, global phase stripped.

    exp(-i n.sigma t/sqrt(N)): a rotation by 2 t/sqrt(N) about continuous_axis.
    For an array of times (...) the result has shape (..., 2, 2).
    """
    return rotation_unitary(*_continuous(inst, t))


def _continuous(inst: SearchInstance, t: float | np.ndarray) -> tuple:
    # The (axis, angle) of evolve_continuous(inst, t).
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"evolution time must be nonnegative (t={float(np.min(t))!r})")
    return continuous_axis(inst), 2.0 * t / np.sqrt(inst.n)


def grover_power(inst: SearchInstance, q: float | np.ndarray) -> np.ndarray:
    """Fractional Grover power: rotation by q * 4 arcsin(1/sqrt(N)).

    Coincides exactly with the integer matrix power for integer q (the step
    is already in SU(2), so no global phase appears). For an array of powers
    (...) the result has shape (..., 2, 2).
    """
    return rotation_unitary(*_grover(inst, q))


def _grover(inst: SearchInstance, q: float | np.ndarray) -> tuple:
    # The (axis, angle) of grover_power(inst, q).
    return GROVER_AXIS, 2.0 * np.asarray(q, dtype=float) * inst.half_step_angle


def phase_rotation(beta: float | np.ndarray) -> np.ndarray:
    """exp(i beta s3) = diag(e^{i beta}, e^{-i beta}), shape (..., 2, 2) for beta (...)."""
    return rotation_unitary(*_phase(beta))


def _phase(beta: float | np.ndarray) -> tuple:
    # The (axis, angle) of phase_rotation(beta).
    return (0.0, 0.0, 1.0), -2.0 * np.asarray(beta, dtype=float)


def equivalence_params(inst: SearchInstance, t: float | np.ndarray) -> EquivalenceParams:
    """Fractional power Q_t and phase beta linking the two routes at time t.

    Q_t = arcsin(sqrt((N-1)/N) sin(t/sqrt(N))) / (2 arcsin(1/sqrt(N)))
    beta = -pi/4 - (1/2) arctan(tan(t/sqrt(N)) / sqrt(N))

    Valid for 0 <= t <= T (principal arcsin branch); beta is evaluated via
    atan2 so the t = T endpoint is finite. t may be an array; every element
    must lie in the domain, and a failure names the one farthest outside.
    """
    t = np.asarray(t, dtype=float)
    t_max = inst.total_time
    outside = ~((t >= 0) & (t <= t_max * (1.0 + 1e-12)))
    if np.any(outside):
        worst = t[outside][np.argmax(np.abs(t[outside] - 0.5 * t_max))]
        raise ValueError(f"t={float(worst)!r} outside the supported domain [0, {float(t_max)!r}]")
    s = inst.overlap
    c = np.sqrt(1.0 - s * s)
    x = t / np.sqrt(inst.n)
    q_t = np.arcsin(np.clip(c * np.sin(x), -1.0, 1.0)) / (2.0 * np.arcsin(s))
    beta = -0.25 * np.pi - 0.5 * np.arctan2(np.sin(x), np.cos(x) / s)
    return EquivalenceParams(q_t=q_t, beta=beta)


def equivalence_residual(inst: SearchInstance, t: float | np.ndarray,
                         params: EquivalenceParams | None = None) -> float | np.ndarray:
    """Phase-aligned distance between the two routes at time t.

    Left side: the continuous evolution at t. Right side:
    exp(i beta s3) U^{Q_t} exp(i (pi/2 + beta) s3) built from the fractional
    Grover power. Exact equality is expected up to floating round-off. For
    an array of times the result holds one distance per time. ``params``,
    if given, are equivalence_params(inst, t), which are then not computed again.

    Every factor is in SU(2), so the operators are composed and compared as
    quaternions of the same rotation angles (pauli._su2_*): the distance equals
    phase_aligned_distance of the matrices, with no matrix built.
    """
    params = equivalence_params(inst, t) if params is None else params
    lhs = _su2_rotation(*_continuous(inst, t))
    rhs = _su2_product(
        _su2_product(_su2_rotation(*_phase(params.beta)), _su2_rotation(*_grover(inst, params.q_t))),
        _su2_rotation(*_phase(0.5 * np.pi + params.beta)),
    )
    return _su2_distance(lhs, rhs)


def endpoint_residual(inst: SearchInstance) -> float:
    """Distance for the t = T special case: U_cont(T) = i (1 - 2|t><t|) U^{Q_T}.

    i (1 - 2|t><t|) = diag(-i, i) = rotation_unitary(z, pi) is the quaternion (0, 0, 0, 1).
    """
    lhs = _su2_rotation(*_continuous(inst, inst.total_time))
    rhs = _su2_product((0.0, 0.0, 0.0, 1.0), _su2_rotation(*_grover(inst, inst.q_total)))
    return _su2_distance(lhs, rhs)
