# Shared dense linear-algebra helpers. All norms in this package are the
# spectral norm (largest singular value) unless a function says otherwise.

from __future__ import annotations

import numpy as np

__all__ = [
    "spectral_norm",
    "assert_hermitian",
    "random_unitary",
]

HERMITIAN_TOL = 1e-12


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def assert_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    """Raise unless m, a square matrix or a stack of them, is within
    HERMITIAN_TOL of its adjoint entry by entry."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} is not Hermitian (shape {m.shape} is not square)")
    dev = float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), initial=0.0))
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e}, tol {HERMITIAN_TOL:.1e})")


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
