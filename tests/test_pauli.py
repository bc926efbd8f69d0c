# Pauli decomposition, axis-angle rotations, Bloch geometry, and the
# phase-aligned distance. Derived expectations are cross-checked against
# independent oracles: an eigendecomposition-based matrix exponential and a
# grid + golden-section minimization of the phase distance.

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsearch.linalg import assert_hermitian
from hamsearch.pauli import (
    IDENTITY2,
    SIGMA,
    _su2_distance,
    _su2_rotation,
    bloch_point,
    pauli_decompose,
    phase_aligned_distance,
    rotation_unitary,
)
from oracles import bloch_rotation_matrix, random_unitary, seeds

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])


def _from_coefficients(c: np.ndarray) -> np.ndarray:
    """a0*I + a.sigma from the coefficients (a0, a1, a2, a3)."""
    return c[0] * IDENTITY2 + sum(c[k + 1] * SIGMA[k] for k in range(3))


def _unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_state(rng) -> np.ndarray:
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


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
        coefficients = pauli_decompose(IDENTITY2)
        assert coefficients.dtype == complex
        assert np.array_equal(coefficients, (1.0, 0.0, 0.0, 0.0))

    def test_search_hamiltonian_at_n4(self):
        m = np.array([[1.25, np.sqrt(3.0) / 4.0], [np.sqrt(3.0) / 4.0, 0.75]])
        coefficients = pauli_decompose(m)
        want = (1.0, np.sqrt(3.0) / 4.0, 0.0, 0.25)
        assert np.allclose(coefficients, want, atol=1e-15)
        assert np.max(np.abs(coefficients.imag)) <= 1e-12

    def test_grover_step_at_n4(self):
        # (1 - 2/N) I + 2i (sqrt(N-1)/N) s2 at N = 4: the s2 coefficient is
        # imaginary because the operator is unitary, not Hermitian.
        u = 0.5 * IDENTITY2 + 1j * (np.sqrt(3.0) / 2.0) * SIGMA[1]
        coefficients = pauli_decompose(u)
        assert coefficients[0] == pytest.approx(0.5)
        assert coefficients[2] == pytest.approx(1j * np.sqrt(3.0) / 2.0)
        assert abs(coefficients[1]) < 1e-15 and abs(coefficients[3]) < 1e-15
        assert np.max(np.abs(coefficients.imag)) > 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_roundtrip_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        back = _from_coefficients(pauli_decompose(m))
        assert np.max(np.abs(back - m)) < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_hermitian_gives_real_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = m + m.conj().T
        assert np.max(np.abs(pauli_decompose(h).imag)) <= 1e-13

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

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.floats(min_value=-8.0, max_value=8.0))
    def test_unitary_and_inverse(self, seed, angle):
        axis = _unit_vector(np.random.default_rng(seed))
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

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_agrees_with_search_oracle(self, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(2, rng)
        v = random_unitary(2, rng)
        assert phase_aligned_distance(u, v) == pytest.approx(
            _phase_distance_search(u, v), abs=1e-7
        )

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_pseudometric_properties(self, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (random_unitary(2, rng) for _ in range(3))
        duv = phase_aligned_distance(u, v)
        assert duv == pytest.approx(phase_aligned_distance(v, u), abs=1e-12)
        assert duv <= phase_aligned_distance(u, w) + phase_aligned_distance(w, v) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.floats(min_value=-np.pi, max_value=np.pi))
    def test_invariant_under_global_phase(self, seed, phi):
        rng = np.random.default_rng(seed)
        u = random_unitary(2, rng)
        v = random_unitary(2, rng)
        d = phase_aligned_distance(u, v)
        assert phase_aligned_distance(np.exp(1j * phi) * u, v) == pytest.approx(d, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.floats(min_value=-np.pi, max_value=np.pi))
    def test_works_beyond_two_dimensions(self, seed, phi):
        u = random_unitary(5, np.random.default_rng(seed))
        assert phase_aligned_distance(u, np.exp(1j * phi) * u) < 1e-13


class TestSU2Quaternions:
    @settings(max_examples=300, deadline=None)
    @given(seeds, st.floats(min_value=-20.0, max_value=20.0),
           st.floats(min_value=-20.0, max_value=20.0), st.sampled_from([None, 0.0, np.pi, 2 * np.pi]))
    def test_distance_is_the_phase_aligned_distance(self, seed, a, b, shift):
        # A shift turns the second rotation into the first one turned on about the same
        # axis, so that W = V^dag U is I (0), a half turn (sqrt(2), the largest
        # distance in SU(2)) or -I (0 again, across the phase wrap).
        rng = np.random.default_rng(seed)
        m, n = _unit_vector(rng), _unit_vector(rng)
        if shift is not None:
            n, b = m, a + shift
        u, v = _su2_rotation(m, a), _su2_rotation(n, b)
        a0, a1, a2, a3 = u  # the numbers of rotation_unitary's entries, bit for bit
        assert np.array_equal(rotation_unitary(m, a), [[a0 - 1j * a3, -a2 - 1j * a1],
                                                       [a2 - 1j * a1, a0 + 1j * a3]])
        d = _su2_distance(u, v)
        assert abs(d - phase_aligned_distance(rotation_unitary(m, a), rotation_unitary(n, b))) < 1e-15
        if shift == np.pi:
            assert d == pytest.approx(np.sqrt(2.0), abs=1e-14)
        elif shift is not None:
            assert d < 1e-14


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

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_unit_norm_for_pure_states(self, seed):
        psi = _random_state(np.random.default_rng(seed))
        assert abs(np.linalg.norm(bloch_point(psi)) - 1.0) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.floats(min_value=-6.0, max_value=6.0))
    def test_rotation_acts_by_rodrigues_formula(self, seed, angle):
        rng = np.random.default_rng(seed)
        axis = _unit_vector(rng)
        psi = _random_state(rng)
        rotated = bloch_point(rotation_unitary(axis, angle) @ psi)
        expected = bloch_rotation_matrix(axis, angle) @ bloch_point(psi)
        assert np.max(np.abs(rotated - expected)) < 1e-10


@pytest.mark.parametrize("call, message", [
    (lambda: rotation_unitary([1.0, 0.0], 0.1), "axis must be a real 3-vector"),
    (lambda: rotation_unitary(np.eye(3), 0.1), "axis must be a real 3-vector"),
    (lambda: phase_aligned_distance(np.eye(2), np.eye(3)),
     "operands must be square matrices of equal shape"),
    (lambda: phase_aligned_distance(np.ones(2), np.ones(2)),
     "operands must be square matrices of equal shape"),
    (lambda: phase_aligned_distance(np.ones((2, 3)), np.ones((2, 3))),
     "operands must be square matrices of equal shape"),
    (lambda: bloch_point([1.0, 0.0, 0.0]), "states must have a last axis of length 2"),
])
def test_input_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("matrix, message", [
    (np.zeros((2, 3)), "term 0 is not Hermitian (shape (2, 3) is not square)"),
    (np.zeros(3), "term 0 is not Hermitian (shape (3,) is not square)"),
    (np.zeros((4, 2, 3)), "term 0 is not Hermitian (shape (4, 2, 3) is not square)"),
])
def test_hermitian_check_names_a_shape_that_is_not_square(matrix, message):
    # linalg.assert_hermitian, the check every term set and decomposition input goes through.
    with pytest.raises(ValueError) as info:
        assert_hermitian(matrix, what="term 0")
    assert str(info.value) == message
