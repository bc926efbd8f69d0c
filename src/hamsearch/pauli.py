# Two-level (2x2) operator layer: Pauli decomposition, axis-angle rotations,
# Bloch-sphere geometry, and the phase-aligned distance between unitaries.
# Operators are plain (..., 2, 2) complex arrays.
#
# Conventions:
# - Basis {I, s1, s2, s3} with the standard Pauli matrices; pauli_decompose
#   gives the coefficients (a0, a1, a2, a3) of M = a0*I + a.sigma as a (4,)
#   complex array, real exactly when M is Hermitian.
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
# - An SU(2) operator U = a0 I - i a.sigma can also be held as its unit
#   quaternion: the four real arrays (a0, a1, a2, a3), each of the stack's
#   shape (...). The private _su2_* helpers compose and compare such
#   operators with real arithmetic alone, without a matrix or an eigensolve.

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA",
    "IDENTITY2",
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
AXIS_TOL = 1e-10


def pauli_decompose(m: np.ndarray) -> np.ndarray:
    """Coefficients (a0, a1, a2, a3) of M = a0*I + a.sigma, as a (4,) complex array.

    a0 = tr(M)/2 and a_k = tr(s_k M)/2; all four are real exactly when M is
    Hermitian.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("pauli_decompose expects a 2x2 matrix")
    return 0.5 * np.array([m[0, 0] + m[1, 1], m[0, 1] + m[1, 0],
                           1j * (m[0, 1] - m[1, 0]), m[0, 0] - m[1, 1]])


def rotation_unitary(axis: np.ndarray, angle: float | np.ndarray) -> np.ndarray:
    """exp(-i (angle/2) n.sigma) for the unit vector n = axis.

    The angle may be an array of shape (...); the result then has shape
    (..., 2, 2), one rotation about the same axis per angle.
    """
    n = _unit_axis(axis)
    half = 0.5 * np.asarray(angle, dtype=float)[..., None, None]
    n_dot_sigma = n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2]
    return np.cos(half) * IDENTITY2 - 1j * np.sin(half) * n_dot_sigma


def _unit_axis(axis: np.ndarray) -> np.ndarray:
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,):
        raise ValueError("axis must be a real 3-vector")
    norm = float(np.linalg.norm(ax))
    if abs(norm - 1.0) > AXIS_TOL:
        raise ValueError(f"axis norm {norm!r} deviates from 1 beyond {AXIS_TOL:.0e}")
    return ax / norm


def _su2_rotation(axis: np.ndarray, angle: float | np.ndarray) -> tuple:
    """rotation_unitary(axis, angle) as its quaternion (cos(angle/2), sin(angle/2) n).

    The four numbers are those of the matrix's entries, bit for bit.
    """
    n = _unit_axis(axis)
    half = 0.5 * np.asarray(angle, dtype=float)
    s = np.sin(half)
    return np.cos(half), n[0] * s, n[1] * s, n[2] * s


def _su2_product(p: tuple, q: tuple) -> tuple:
    """The quaternion of U V, for U held as p and V as q (the Hamilton product)."""
    a0, a1, a2, a3 = p
    b0, b1, b2, b3 = q
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _su2_distance(u: tuple, v: tuple) -> float | np.ndarray:
    """phase_aligned_distance(U, V) for SU(2) operands held as quaternions.

    W = V^dag U = w0 - i w.sigma has the eigenphases +-atan2(|w|, w0). The
    smallest arc that covers both is 2 phi wide, phi = atan2(|w|, |w0|), so the
    distance is 2 sin(phi / 2), at most sqrt(2).
    """
    b0, b1, b2, b3 = v
    w0, w1, w2, w3 = _su2_product((b0, -b1, -b2, -b3), u)
    return (2.0 * np.sin(0.5 * np.arctan2(np.sqrt(w1 * w1 + w2 * w2 + w3 * w3),
                                          np.abs(w0))))[()]


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

