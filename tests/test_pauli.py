# Pauli decomposition, axis-angle rotations, Bloch geometry, and the
# phase-aligned distance. Derived expectations are cross-checked against
# independent oracles: an eigendecomposition-based matrix exponential and a
# grid + golden-section minimization of the phase distance.

import numpy as np
import pytest

from hamsearch.pauli import (
    IDENTITY2,
    SIGMA,
    bloch_point,
    pauli_decompose,
    phase_aligned_distance,
    rotation_unitary,
)
from oracles import bloch_rotation_matrix, random_unitary

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def _expm_eigh(h: np.ndarray) -> np.ndarray:
    """Oracle: exp(-i H) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _phase_distance_search(u: np.ndarray, v: np.ndarray) -> float:
    """Oracle: minimize ||u - e^{i phi} v||_2 by grid + golden-section."""

    def g(phi: float) -> float:
        return float(np.linalg.norm(u - np.exp(1j * phi) * v, 2))

    phis = np.linspace(-np.pi, np.pi, 721)
    values = [g(p) for p in phis]
    k = int(np.argmin(values))
    a, b = phis[k] - 0.02, phis[k] + 0.02
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - golden * (b - a), a + golden * (b - a)
    for _ in range(80):
        if g(c) < g(d):
            b = d
        else:
            a = c
        c, d = b - golden * (b - a), a + golden * (b - a)
    return g(0.5 * (a + b))


class TestPauliDecompose:
    def test_identity(self):
        pv = pauli_decompose(IDENTITY2)
        assert pv.coefficients() == (1.0, 0.0, 0.0, 0.0)

    def test_search_hamiltonian_at_n4(self):
        m = np.array([[1.25, np.sqrt(3.0) / 4.0], [np.sqrt(3.0) / 4.0, 0.75]])
        pv = pauli_decompose(m)
        want = (1.0, np.sqrt(3.0) / 4.0, 0.0, 0.25)
        assert np.allclose(pv.coefficients(), want, atol=1e-15)
        assert np.max(np.abs(np.imag(pv.coefficients()))) <= 1e-12

    def test_grover_step_at_n4(self):
        # (1 - 2/N) I + 2i (sqrt(N-1)/N) s2 at N = 4: the s2 coefficient is
        # imaginary because the operator is unitary, not Hermitian.
        u = 0.5 * IDENTITY2 + 1j * (np.sqrt(3.0) / 2.0) * SIGMA[1]
        pv = pauli_decompose(u)
        assert pv.a0 == pytest.approx(0.5)
        assert pv.a[1] == pytest.approx(1j * np.sqrt(3.0) / 2.0)
        assert abs(pv.a[0]) < 1e-15 and abs(pv.a[2]) < 1e-15
        assert np.max(np.abs(np.imag(pv.coefficients()))) > 1e-12

    def test_roundtrip_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            back = pauli_decompose(m).matrix()
            assert np.max(np.abs(back - m)) < 1e-14

    def test_hermitian_gives_real_coefficients(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = m + m.conj().T
            pv = pauli_decompose(h)
            assert np.max(np.abs(np.imag(pv.coefficients()))) <= 1e-13

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            pauli_decompose(np.eye(3))


class TestRotationUnitary:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rotation_unitary(Z_AXIS, 0.0), IDENTITY2)

    def test_half_turn_about_y(self):
        u = rotation_unitary(Y_AXIS, np.pi)
        assert np.allclose(u, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)

    def test_full_turn_is_minus_identity(self):
        u = rotation_unitary(X_AXIS, 2.0 * np.pi)
        assert np.allclose(u, -IDENTITY2, atol=1e-15)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            rotation_unitary(np.array([1.0, 1.0, 0.0]), 0.3)

    def test_matches_eigendecomposition_exponential(self):
        # Axis of the N = 4 search Hamiltonian, evolution time t = pi.
        axis = np.array([np.sqrt(3.0) / 2.0, 0.0, 0.5])
        t = np.pi
        angle = 2.0 * t / 2.0  # 2 t / sqrt(N)
        generator = 0.5 * angle * (axis[0] * SIGMA[0] + axis[2] * SIGMA[2])
        assert np.max(np.abs(rotation_unitary(axis, angle) - _expm_eigh(generator))) < 1e-13

    def test_unitary_and_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-8.0, 8.0)
            u = rotation_unitary(axis, angle)
            assert np.max(np.abs(u.conj().T @ u - IDENTITY2)) < 1e-12
            assert np.max(np.abs(u @ rotation_unitary(axis, -angle) - IDENTITY2)) < 1e-12


class TestPhaseAlignedDistance:
    def test_equal_operators(self):
        assert phase_aligned_distance(IDENTITY2, IDENTITY2) == 0.0

    def test_pure_global_phase(self):
        assert phase_aligned_distance(IDENTITY2, 1j * IDENTITY2) < 1e-15

    def test_identity_vs_sigma_x(self):
        # Frozen from the grid + golden-section oracle: sqrt(2).
        d = phase_aligned_distance(IDENTITY2, SIGMA[0])
        assert d == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert d == pytest.approx(_phase_distance_search(IDENTITY2, SIGMA[0]), abs=1e-9)

    def test_agrees_with_search_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            u = random_unitary(2, rng)
            v = random_unitary(2, rng)
            assert phase_aligned_distance(u, v) == pytest.approx(
                _phase_distance_search(u, v), abs=1e-7
            )

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            u, v, w = (random_unitary(2, rng) for _ in range(3))
            duv = phase_aligned_distance(u, v)
            assert duv == pytest.approx(phase_aligned_distance(v, u), abs=1e-12)
            assert duv <= phase_aligned_distance(u, w) + phase_aligned_distance(w, v) + 1e-9

    def test_invariant_under_global_phase(self):
        rng = np.random.default_rng(16)
        u = random_unitary(2, rng)
        v = random_unitary(2, rng)
        d = phase_aligned_distance(u, v)
        assert phase_aligned_distance(np.exp(0.71j) * u, v) == pytest.approx(d, abs=1e-12)

    def test_works_beyond_two_dimensions(self):
        rng = np.random.default_rng(17)
        u = random_unitary(5, rng)
        assert phase_aligned_distance(u, np.exp(2.1j) * u) < 1e-13


class TestBlochPoint:
    def test_basis_states(self):
        assert np.allclose(bloch_point([1.0, 0.0]), [0.0, 0.0, 1.0])
        assert np.allclose(bloch_point([0.0, 1.0]), [0.0, 0.0, -1.0])

    def test_uniform_state_at_n4(self):
        # |s> = (1/2, sqrt(3)/2): evaluated by hand from the expectations.
        point = bloch_point([0.5, np.sqrt(3.0) / 2.0])
        assert np.allclose(point, [np.sqrt(3.0) / 2.0, 0.0, -0.5], atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            bloch_point([1.0, 1.0])

    def test_unit_norm_for_pure_states(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            assert abs(np.linalg.norm(bloch_point(psi)) - 1.0) < 1e-10

    def test_rotation_acts_by_rodrigues_formula(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-6.0, 6.0)
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            rotated = bloch_point(rotation_unitary(axis, angle) @ psi)
            expected = bloch_rotation_matrix(axis, angle) @ bloch_point(psi)
            assert np.max(np.abs(rotated - expected)) < 1e-10
