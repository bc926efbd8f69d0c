# Two-level (2x2) operator layer: Pauli decomposition, axis-angle rotations,
# Bloch-sphere geometry, and the phase-aligned distance between unitaries.
#
# Conventions:
# - Basis {I, s1, s2, s3} with the standard Pauli matrices.
# - rotation_unitary(n, theta) = exp(-i (theta/2) n.sigma); on the Bloch
#   sphere this is a right-handed rotation by theta about the unit axis n.
# - Distances between unitaries use the spectral norm, minimized over a
#   global phase:  d(U, V) = min_phi || U - e^{i phi} V ||_2.
#   For unitary W = V^dag U with eigenphases {theta_k}, the minimum is
#   2 sin(w/4) where w is the width of the smallest arc containing all
#   theta_k; the optimal phase is the arc midpoint. (The Frobenius-optimal
#   phase arg tr(V^dag U) coincides with the midpoint whenever the
#   eigenphases span less than a half turn, but not in general, so the arc
#   construction is used throughout. Tests cross-check against grid search.)

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA",
    "IDENTITY2",
    "PauliVector",
    "pauli_decompose",
    "rotation_unitary",
    "phase_aligned_distance",
    "bloch_point",
]

IDENTITY2 = np.eye(2, dtype=complex)
SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PauliVector:
    """Coefficients (a0, a1, a2, a3) of a 2x2 operator over {I, s1, s2, s3}.

    Coefficients are complex in general; they are all real exactly when the
    operator is Hermitian.
    """

    a0: complex
    a: np.ndarray  # shape (3,), complex

    def __post_init__(self) -> None:
        vec = np.asarray(self.a, dtype=complex)
        if vec.shape != (3,):
            raise ValueError("Pauli coefficient vector must have shape (3,)")
        object.__setattr__(self, "a0", complex(self.a0))
        object.__setattr__(self, "a", _readonly(vec))

    def coefficients(self) -> tuple[complex, complex, complex, complex]:
        return (self.a0, self.a[0], self.a[1], self.a[2])

    def matrix(self) -> np.ndarray:
        """Reconstruct a0*I + a.sigma."""
        m = self.a0 * IDENTITY2.copy()
        for k in range(3):
            m += self.a[k] * SIGMA[k]
        return m


AXIS_TOL = 1e-10


def pauli_decompose(m: np.ndarray) -> PauliVector:
    """Invert M = a0*I + a.sigma:  a0 = tr(M)/2, a_k = tr(s_k M)/2."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("pauli_decompose expects a 2x2 matrix")
    a0 = 0.5 * (m[0, 0] + m[1, 1])
    a1 = 0.5 * (m[0, 1] + m[1, 0])
    a2 = 0.5j * (m[0, 1] - m[1, 0])
    a3 = 0.5 * (m[0, 0] - m[1, 1])
    return PauliVector(a0, np.array([a1, a2, a3]))


def rotation_unitary(axis: np.ndarray, angle: float | np.ndarray) -> np.ndarray:
    """exp(-i (angle/2) n.sigma) for the unit vector n = axis.

    The angle may be an array of shape (...); the result then has shape
    (..., 2, 2), one rotation about the same axis per angle.
    """
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,):
        raise ValueError("axis must be a real 3-vector")
    norm = float(np.linalg.norm(ax))
    if abs(norm - 1.0) > AXIS_TOL:
        raise ValueError(f"axis norm {norm!r} deviates from 1 beyond {AXIS_TOL:.0e}")
    n = ax / norm
    half = 0.5 * np.asarray(angle, dtype=float)[..., None, None]
    n_dot_sigma = n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2]
    return np.cos(half) * IDENTITY2 - 1j * np.sin(half) * n_dot_sigma


def _eigenphase_arc_width(w: np.ndarray) -> np.ndarray:
    """Width of the smallest arc covering the eigenphases of each w[..., :, :]."""
    phases = np.sort(np.angle(np.linalg.eigvals(w)), axis=-1)
    spread = phases[..., -1] - phases[..., 0]
    largest_gap = np.max(np.diff(phases, axis=-1), axis=-1, initial=0.0)
    # If the largest gap lies inside (-pi, pi], the covering arc runs from its
    # upper end around the wrap; otherwise the largest gap is across the wrap
    # and the covering arc is contiguous.
    return np.where(largest_gap > 2.0 * np.pi - spread, 2.0 * np.pi - largest_gap, spread)


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """min over phi of || U - e^{i phi} V ||_2; zero iff U = e^{i phi} V.

    u and v are square matrices or stacks (..., n, n) of them; the result
    holds one distance per matrix (a scalar for two matrices).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim < 2 or u.shape[-2:] != v.shape[-2:] or u.shape[-1] != u.shape[-2]:
        raise ValueError("operands must be square matrices of equal shape")
    w = v.conj().swapaxes(-1, -2) @ u
    return (2.0 * np.sin(0.25 * _eigenphase_arc_width(w)))[()]


STATE_NORM_TOL = 1e-12


def bloch_point(state: np.ndarray) -> np.ndarray:
    """Bloch coordinates (<s1>, <s2>, <s3>) of normalized 2-vectors.

    Maps states of shape (..., 2) to points of shape (..., 3).
    """
    psi = np.asarray(state, dtype=complex)
    if psi.shape[-1:] != (2,):
        raise ValueError("states must have a last axis of length 2")
    deviation = np.abs(np.linalg.norm(psi, axis=-1) - 1.0)
    if np.any(deviation > STATE_NORM_TOL):
        worst = np.unravel_index(np.argmax(deviation), deviation.shape)
        norm = float(np.linalg.norm(psi[worst]))
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond {STATE_NORM_TOL:.0e}")
    a, b = psi[..., 0], psi[..., 1]
    cross = a.conj() * b
    z = np.square(np.hypot(a.real, a.imag)) - np.square(np.hypot(b.real, b.imag))
    return np.stack([2.0 * cross.real, 2.0 * cross.imag, z], axis=-1)

