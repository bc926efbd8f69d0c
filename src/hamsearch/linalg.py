# Shared dense linear-algebra helpers. All norms in this package are the
# spectral norm (largest singular value) unless a function says otherwise.

from __future__ import annotations

import numpy as np

__all__ = [
    "spectral_norm",
    "is_hermitian",
    "assert_hermitian",
    "random_unitary",
]


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    """True for a square matrix, or a stack of them, within tol of its adjoint."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return bool(_hermitian_deviation(m) <= tol)


def _hermitian_deviation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), initial=0.0))


def assert_hermitian(m: np.ndarray, tol: float = 1e-12, what: str = "matrix") -> None:
    if not is_hermitian(m, tol):
        dev = _hermitian_deviation(np.asarray(m))
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e}, tol {tol:.1e})")


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
