# Both search evolutions and the identities linking them. Oracles: direct
# reflection products, dense eigensolves, eigendecomposition matrix powers,
# fine-step product-formula state integration, and a 60-digit mpmath
# residual of the equivalence identity. H is the shipped
# search_split's sum, U is grover_power(inst, 1), and both are checked
# against the projectors |s><s| and |t><t| and the closed forms
# H = I + (sqrt(N-1)/N) s1 + (1/N) s3 and U = -(1 - 2|s><s|)(1 - 2|t><t|).

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsearch.pauli import bloch_point, pauli_decompose, phase_aligned_distance, rotation_unitary
from hamsearch.search import (
    GROVER_AXIS,
    SearchInstance,
    continuous_axis,
    endpoint_residual,
    equivalence_params,
    equivalence_residual,
    evolve_continuous,
    grover_power,
    phase_rotation,
    search_split,
)
from hamsearch.statevector import expected_peak_step
from hamsearch.trotter import HermitianTermSet, TrotterPlan, trotter_step


def _projectors(inst):
    s = inst.source_state
    t = inst.target_state
    return np.outer(s, s.conj()), np.outer(t, t.conj())


def _reflection_product(inst):
    ps, pt = _projectors(inst)
    return -(np.eye(2) - 2.0 * ps) @ (np.eye(2) - 2.0 * pt)


def _hamiltonian(inst):
    return search_split(inst).total()


class TestSearchInstance:
    def test_overlap_and_angles(self):
        inst = SearchInstance(1024)
        assert inst.overlap == pytest.approx(1.0 / 32.0)
        assert inst.half_step_angle == pytest.approx(2.0 * np.arcsin(1.0 / 32.0))
        assert 0.0 < inst.half_step_angle <= np.pi

    def test_source_state_normalized_with_exact_overlap(self):
        for n in (2, 3, 4, 17, 4096):
            inst = SearchInstance(n)
            assert np.linalg.norm(inst.source_state) == pytest.approx(1.0, abs=1e-15)
            assert inst.source_state[0].real == pytest.approx(1.0 / np.sqrt(n))

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            SearchInstance(1)


class TestContinuousHamiltonian:
    def test_coefficients_at_n4(self):
        coefficients = pauli_decompose(_hamiltonian(SearchInstance(4)))
        assert np.allclose(coefficients, (1.0, np.sqrt(3.0) / 4.0, 0.0, 0.25))

    def test_equals_projector_sum(self):
        # The sum of the split against the closed-form Pauli coefficients.
        for n in (2, 3, 16, 100):
            coefficients = pauli_decompose(_hamiltonian(SearchInstance(n)))
            want = (1.0, np.sqrt(n - 1.0) / n, 0.0, 1.0 / n)
            assert np.max(np.abs(coefficients - want)) < 1e-15

    def test_search_split_is_the_projector_pair(self):
        for n in (2, 3, 16, 100):
            inst = SearchInstance(n)
            split = search_split(inst)
            assert split.labels == ("source-projector", "target-projector")
            for term, projector in zip(split.terms, _projectors(inst)):
                assert np.array_equal(term, projector)
            assert np.max(np.abs(split.total() - sum(_projectors(inst)))) < 1e-15

    def test_large_n_coefficients_vanish(self):
        coefficients = pauli_decompose(_hamiltonian(SearchInstance(10**12)))
        assert abs(coefficients[1]) < 1.1e-6
        assert abs(coefficients[3]) < 1.1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=2**20))
    def test_axis_is_the_coefficient_direction(self, n):
        # a3 = 1/N is a difference of O(1) entries, so its round-off of about
        # eps turns the direction by up to eps sqrt(N).
        inst = SearchInstance(n)
        vector = pauli_decompose(_hamiltonian(inst))[1:]
        assert np.array_equal(vector.imag, np.zeros(3))
        direction = vector.real / np.linalg.norm(vector.real)
        error = np.max(np.abs(direction - continuous_axis(inst)))
        assert error <= np.finfo(float).eps * np.sqrt(n)

    def test_eigenvalues_at_n16(self):
        # 1 +- |v| with |v| = 1/sqrt(N); oracle: dense eigensolver.
        h = _hamiltonian(SearchInstance(16))
        values = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(values, [0.75, 1.25], atol=1e-14)

    def test_eigenvectors_bisect_source_and_target(self):
        inst = SearchInstance(16)
        h = _hamiltonian(inst)
        for sign in (+1.0, -1.0):
            vec = inst.source_state + sign * inst.target_state
            vec /= np.linalg.norm(vec)
            residual = h @ vec - (vec.conj() @ h @ vec) * vec
            assert np.linalg.norm(residual) < 1e-14


class TestEvolveContinuous:
    def test_time_zero_is_identity(self):
        assert np.allclose(evolve_continuous(SearchInstance(7), 0.0), np.eye(2))

    def test_reaches_target_at_search_time(self):
        for n in (2, 4, 16, 64, 1024):
            inst = SearchInstance(n)
            final = evolve_continuous(inst, inst.total_time) @ inst.source_state
            assert abs(final[0]) ** 2 >= 1.0 - 1e-10

    def test_search_time_value_at_n4(self):
        inst = SearchInstance(4)
        assert inst.total_time == pytest.approx(np.pi)

    def test_matches_fine_step_product_formula(self):
        # Oracle: integrate the projector split with dt = 1e-4 and compare
        # the mid-evolution fidelity.
        inst = SearchInstance(16)
        ps, pt = _projectors(inst)
        terms = HermitianTermSet(2, (ps, pt), ("s", "t"))
        t_half = 0.5 * inst.total_time
        steps = int(round(t_half / 1e-4))
        step = trotter_step(terms, TrotterPlan(t_half, steps).dt)
        psi = inst.source_state
        psi = np.linalg.matrix_power(step, steps) @ psi
        fid_oracle = abs(psi[0]) ** 2
        fid = abs((evolve_continuous(inst, t_half) @ inst.source_state)[0]) ** 2
        assert fid == pytest.approx(fid_oracle, abs=5e-4)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_continuous(SearchInstance(4), -0.1)


class TestGroverStep:
    def test_matrix_at_n4(self):
        u = grover_power(SearchInstance(4), 1)
        want = np.array([[0.5, np.sqrt(3.0) / 2.0], [-np.sqrt(3.0) / 2.0, 0.5]])
        assert np.max(np.abs(u - want)) < 1e-15

    def test_equals_reflection_product(self):
        for n in (2, 3, 4, 16, 97):
            inst = SearchInstance(n)
            assert np.max(np.abs(grover_power(inst, 1) - _reflection_product(inst))) < 1e-14

    def test_maps_source_to_target_at_n4(self):
        inst = SearchInstance(4)
        out = grover_power(inst, 1) @ inst.source_state
        assert np.max(np.abs(out - inst.target_state)) < 1e-15

    def test_rotation_angle_at_n2(self):
        # 4 arcsin(1/sqrt(2)) = pi about the step axis.
        u = _reflection_product(SearchInstance(2))
        assert phase_aligned_distance(u, rotation_unitary(GROVER_AXIS, np.pi)) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 16, 1024])
    def test_is_axis_angle_rotation(self, n):
        inst = SearchInstance(n)
        u = rotation_unitary(GROVER_AXIS, 4.0 * np.arcsin(inst.overlap))
        assert phase_aligned_distance(_reflection_product(inst), u) < 1e-12


class TestGroverHamiltonian:
    # The step generator i[|t><t|, |s><s|] = -(sqrt(N-1)/N) s2.
    @staticmethod
    def _generator(inst):
        ps, pt = _projectors(inst)
        return 1j * (pt @ ps - ps @ pt)

    def test_coefficient_values(self):
        for n, want in ((4, -np.sqrt(3.0) / 4.0), (2, -0.5)):
            assert pauli_decompose(self._generator(SearchInstance(n)))[2] == pytest.approx(want)

    def test_commutator_identity_at_n16(self):
        coefficients = pauli_decompose(self._generator(SearchInstance(16)))
        assert np.max(np.abs(coefficients - (0.0, 0.0, -np.sqrt(15.0) / 16.0, 0.0))) < 1e-14

    def test_generates_the_step(self):
        inst = SearchInstance(9)
        tau = inst.tau
        w, v = np.linalg.eigh(self._generator(inst))
        u = (v * np.exp(-1j * w * tau)) @ v.conj().T
        assert np.max(np.abs(u - grover_power(inst, 1))) < 1e-13

    def test_axes_are_orthogonal(self):
        for n in (2, 3, 4, 50, 4096):
            assert abs(np.dot(continuous_axis(SearchInstance(n)), GROVER_AXIS)) < 1e-14


class TestStepParams:
    def test_exact_small_cases(self):
        assert SearchInstance(4).q_total == pytest.approx(1.0, abs=1e-14)
        assert SearchInstance(2).q_total == pytest.approx(0.5, abs=1e-14)

    def test_asymptotic_step_count(self):
        # Q_T = (pi/4) sqrt(N) - 1/2 + O(1/sqrt(N)), so the half-step shift
        # tracks the asymptote tightly and the rounded step count is the
        # quantity within the quoted percentages.
        q = SearchInstance(1024).q_total
        assert np.floor(q + 0.5) == pytest.approx(np.pi / 4.0 * 32.0, rel=0.02)
        for n in (64, 256, 1024, 4096):
            q = SearchInstance(n).q_total
            asymptote = np.pi / 4.0 * np.sqrt(n)
            assert np.floor(q + 0.5) == pytest.approx(asymptote, rel=0.05)
            assert q + 0.5 == pytest.approx(asymptote, rel=0.005)

    def test_tau_positive_and_finite_at_edges(self):
        for n in (2, 3):
            inst = SearchInstance(n)
            assert np.isfinite(inst.tau) and inst.tau > 0
            assert np.isfinite(inst.q_total) and inst.q_total > 0


class TestGroverPower:
    def test_zero_power_is_identity(self):
        assert np.allclose(grover_power(SearchInstance(10), 0.0), np.eye(2))

    def test_unit_power_is_the_step(self):
        for n in (2, 4, 100):
            inst = SearchInstance(n)
            u = _reflection_product(inst)
            assert phase_aligned_distance(grover_power(inst, 1.0), u) < 1e-14

    def test_integer_powers_match_matrix_powers(self):
        inst = SearchInstance(16)
        u = _reflection_product(inst)
        for k in range(8):
            assert phase_aligned_distance(grover_power(inst, float(k)), np.linalg.matrix_power(u, k)) < 1e-11

    def test_fractional_power_matches_eigendecomposition(self):
        # Oracle: principal fractional power from the eigendecomposition.
        inst = SearchInstance(16)
        u = _reflection_product(inst)
        w, v = np.linalg.eig(u)
        oracle = (v * np.exp(2.5 * np.log(w))) @ np.linalg.inv(v)
        assert phase_aligned_distance(grover_power(inst, 2.5), oracle) < 1e-11
        half = grover_power(inst, 0.5)
        assert phase_aligned_distance(grover_power(inst, 2.5), u @ u @ half) < 1e-11


class TestEquivalence:
    def test_params_at_time_zero(self):
        params = equivalence_params(SearchInstance(25), 0.0)
        assert params.q_t == 0.0
        assert params.beta == pytest.approx(-np.pi / 4.0, abs=1e-15)

    def test_params_at_search_time_match_step_count(self):
        for n in (3, 4, 16, 64, 1024):
            inst = SearchInstance(n)
            q_t = equivalence_params(inst, inst.total_time).q_t
            assert q_t == pytest.approx(inst.q_total, abs=1e-12)

    def test_fractional_steps_approximate_half_time(self):
        # Q_t ~ t/2 away from the endpoints for large N.
        q_t = equivalence_params(SearchInstance(100), 5.0).q_t
        assert q_t == pytest.approx(2.5, rel=0.1)

    def test_q_t_monotone_in_time(self):
        inst = SearchInstance(64)
        grid = np.linspace(0.0, inst.total_time, 50)
        values = [equivalence_params(inst, t).q_t for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_times_outside_domain(self):
        inst = SearchInstance(16)
        with pytest.raises(ValueError):
            equivalence_params(inst, -0.5)
        with pytest.raises(ValueError):
            equivalence_params(inst, inst.total_time * 1.01)

    def test_residual_at_time_zero(self):
        assert equivalence_residual(SearchInstance(12), 0.0) < 1e-12

    def test_residual_at_search_time(self):
        assert equivalence_residual(SearchInstance(64), SearchInstance(64).total_time) < 1e-10

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_residual_sweep(self, n):
        inst = SearchInstance(n)
        worst = max(
            equivalence_residual(inst, t) for t in np.linspace(0.0, inst.total_time, 20)
        )
        assert worst < 1e-9

    def test_endpoint_identity(self):
        for n in (2, 3, 4, 16, 64, 256, 1024):
            assert endpoint_residual(SearchInstance(n)) < 1e-10

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-1e300, max_value=1e300))
    def test_phase_rotation_is_the_phase_diagonal(self, beta):
        expected = np.diag([np.exp(1j * beta), np.exp(-1j * beta)])
        assert np.array_equal(phase_rotation(beta), expected)


def _exact_residual(mp, n, t, q_t, beta):
    # The identity's residual at these float t, Q_t and beta, in 60-digit arithmetic:
    # both sides as matrices from their definitions, compared through the
    # eigenphases of V^dag U (the smallest arc covering both, 2 sin(arc / 4)).
    with mp.workdps(60):
        s = 1 / mp.sqrt(n)

        def rotation(nx, ny, nz, half):  # exp(-i half n.sigma)
            c, sn = mp.cos(half), mp.sin(half)
            return mp.matrix([[c - 1j * sn * nz, -1j * sn * (nx - 1j * ny)],
                              [-1j * sn * (nx + 1j * ny), c + 1j * sn * nz]])

        lhs = rotation(mp.sqrt(1 - s * s), 0, s, mp.mpf(t) * s)
        rhs = (rotation(0, 0, 1, -mp.mpf(beta))
               @ rotation(0, -1, 0, mp.mpf(q_t) * 2 * mp.asin(s))
               @ rotation(0, 0, 1, -(mp.pi / 2 + mp.mpf(beta))))
        first, second = (mp.arg(e) for e in mp.eig(rhs.H @ lhs)[0])
        gap = abs(first - second)
        return 2 * mp.sin(min(gap, 2 * mp.pi - gap) / 4)


class TestResidualOracle:
    # The SU(2) residual against the 60-digit residual of the same float inputs,
    # next to the matrix path it replaced: phase_aligned_distance of the stacked
    # matrices that evolve_continuous, phase_rotation and grover_power build.
    # Both paths start from the same rounded entries of the four factors, so at
    # a single point either may land closer (the SU(2) one does at about 5 of 8
    # points); at each N its worst and its mean error are the smaller.
    @pytest.mark.parametrize("n", [4, 64, 1024, 65536])
    def test_residual_is_as_close_to_the_exact_value_as_the_matrix_path(self, n):
        mp = pytest.importorskip("mpmath")
        inst = SearchInstance(n)
        t = np.linspace(0.0, inst.total_time, 200)
        params = equivalence_params(inst, t)
        su2 = equivalence_residual(inst, t, params)
        matrices = phase_aligned_distance(
            evolve_continuous(inst, t),
            phase_rotation(params.beta) @ grover_power(inst, params.q_t)
            @ phase_rotation(0.5 * np.pi + params.beta))
        exact = [_exact_residual(mp, n, *point) for point in zip(t, params.q_t, params.beta)]
        su2_error = np.array([float(abs(mp.mpf(x) - e)) for x, e in zip(su2, exact)])
        matrix_error = np.array([float(abs(mp.mpf(x) - e)) for x, e in zip(matrices, exact)])
        assert su2_error.max() < 1e-15
        assert su2_error.max() <= matrix_error.max()
        assert su2_error.mean() <= matrix_error.mean()


class TestTrajectories:
    def test_routes_separate_away_from_endpoints(self):
        for n in (4, 16, 64):
            inst = SearchInstance(n)
            total = inst.total_time
            largest = 0.0
            for t in np.linspace(0.0, total, 41):
                pc = bloch_point(evolve_continuous(inst, t) @ inst.source_state)
                pg = bloch_point(grover_power(inst, inst.q_total * t / total) @ inst.source_state)
                largest = max(largest, float(np.linalg.norm(pc - pg)))
            assert largest > 0.1

    def test_routes_meet_at_both_endpoints(self):
        inst = SearchInstance(16)
        for t, ref in ((0.0, inst.source_state), (inst.total_time, inst.target_state)):
            pc = bloch_point(evolve_continuous(inst, t) @ inst.source_state)
            pg = bloch_point(grover_power(inst, inst.q_total * t / inst.total_time)
                             @ inst.source_state)
            assert np.linalg.norm(pc - bloch_point(ref)) < 1e-9
            assert np.linalg.norm(pg - bloch_point(ref)) < 1e-9

    def test_integer_step_success_bound(self):
        # floor(Q_T + 1/2) whole steps succeed with probability >= 1 - 1/N.
        for n in range(2, 4097):
            inst = SearchInstance(n)
            final = grover_power(inst, float(expected_peak_step(n))) @ inst.source_state
            assert abs(final[0]) ** 2 >= 1.0 - 1.0 / n - 1e-12
