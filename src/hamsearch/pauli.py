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
    "AxisAngle",
    "pauli_decompose",
    "rotation_unitary",
    "phase_aligned_distance",
    "bloch_point",
    "bloch_rotation_matrix",
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

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(
            abs(self.a0.imag) <= tol and np.max(np.abs(self.a.imag)) <= tol
        )


AXIS_TOL = 1e-10


@dataclass(frozen=True)
class AxisAngle:
    """Rotation axis (unit 3-vector) and angle in radians."""

    axis: np.ndarray
    angle: float

    def __post_init__(self) -> None:
        ax = np.asarray(self.axis, dtype=float)
        if ax.shape != (3,):
            raise ValueError("axis must be a real 3-vector")
        norm = float(np.linalg.norm(ax))
        if abs(norm - 1.0) > AXIS_TOL:
            raise ValueError(f"axis norm {norm!r} deviates from 1 beyond {AXIS_TOL:.0e}")
        object.__setattr__(self, "axis", _readonly(ax / norm))
        object.__setattr__(self, "angle", float(self.angle))


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


def rotation_unitary(rotation: AxisAngle | tuple, angle: float | None = None) -> np.ndarray:
    """exp(-i (angle/2) n.sigma) for a unit axis n.

    Accepts either an AxisAngle or the pair (axis, angle).
    """
    if angle is not None:
        rotation = AxisAngle(np.asarray(rotation, dtype=float), angle)
    elif not isinstance(rotation, AxisAngle):
        raise TypeError("pass an AxisAngle or (axis, angle)")
    half = 0.5 * rotation.angle
    n = rotation.axis
    n_dot_sigma = n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2]
    return np.cos(half) * IDENTITY2 - 1j * np.sin(half) * n_dot_sigma


def _eigenphase_arc_width(w: np.ndarray) -> float:
    """Width of the smallest arc covering the eigenphases of w."""
    phases = np.sort(np.angle(np.linalg.eigvals(w)))
    if phases.size == 1:
        return 0.0
    gaps = np.diff(phases)
    wrap_gap = 2.0 * np.pi - (phases[-1] - phases[0])
    if gaps.size and np.max(gaps) > wrap_gap:
        # Covering arc runs from the largest gap's upper end around the wrap.
        return float(2.0 * np.pi - np.max(gaps))
    # Largest gap is across the +-pi wrap: the covering arc is contiguous.
    return float(phases[-1] - phases[0])


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over phi of || U - e^{i phi} V ||_2; zero iff U = e^{i phi} V."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operands must be square matrices of equal shape")
    w = v.conj().T @ u
    width = _eigenphase_arc_width(w)
    return 2.0 * float(np.sin(0.25 * width))


def bloch_point(state: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Bloch coordinates (<s1>, <s2>, <s3>) of a normalized 2-vector."""
    psi = np.asarray(state, dtype=complex).reshape(2)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond {tol:.0e}")
    cross = psi[0].conjugate() * psi[1]
    return np.array(
        [
            2.0 * cross.real,
            2.0 * cross.imag,
            float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2),
        ]
    )


def bloch_rotation_matrix(rotation: AxisAngle) -> np.ndarray:
    """SO(3) matrix of the Bloch rotation implemented by rotation_unitary.

    Rodrigues form: R v = v cos(t) + (n x v) sin(t) + n (n.v)(1 - cos(t)).
    """
    n = rotation.axis
    t = rotation.angle
    cross = np.array(
        [
            [0.0, -n[2], n[1]],
            [n[2], 0.0, -n[0]],
            [-n[1], n[0], 0.0],
        ]
    )
    return (
        np.cos(t) * np.eye(3)
        + np.sin(t) * cross
        + (1.0 - np.cos(t)) * np.outer(n, n)
    )
