# Full-space search oracle: rank-1 reflection updates, success curves, and
# agreement with the two-dimensional subspace model.

import numpy as np
import pytest

from hamsearch.search import SearchInstance, step_params
from hamsearch.statevector import (
    expected_peak_step,
    grover_iterate,
    peak_step,
    subspace_agreement,
    success_curve,
    uniform_state,
)


class TestUniformState:
    def test_two_items(self):
        assert np.allclose(uniform_state(2), np.full(2, 1.0 / np.sqrt(2.0)))

    def test_four_items(self):
        assert np.allclose(uniform_state(4), np.full(4, 0.5))

    def test_overlap_with_target(self):
        psi = uniform_state(1024)
        assert psi[0] == pytest.approx(1.0 / 32.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            uniform_state(2**23)


class TestGroverIterate:
    def test_zero_steps_returns_input(self):
        psi = uniform_state(8)
        out = grover_iterate(psi, 3, 0)
        assert np.array_equal(out, psi)
        assert out is not psi

    def test_single_step_at_n4_is_exact(self):
        out = grover_iterate(uniform_state(4), 0, 1)
        want = np.zeros(4, dtype=complex)
        want[0] = 1.0
        assert np.max(np.abs(out - want)) < 1e-15

    def test_optimal_steps_at_n1024(self):
        assert expected_peak_step(1024) == 25
        out = grover_iterate(uniform_state(1024), 0, 25)
        assert abs(out[0]) ** 2 >= 1.0 - 1.0 / 1024.0

    def test_norm_preserved_over_many_steps(self):
        psi = grover_iterate(uniform_state(64), 5, 10_000)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10

    def test_non_target_amplitudes_stay_uniform(self):
        psi = uniform_state(32)
        for _ in range(40):
            psi = grover_iterate(psi, 7, 1)
            rest = np.delete(psi, 7)
            assert np.max(np.abs(rest - rest[0])) < 1e-12

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            grover_iterate(uniform_state(4), 4, 1)


class TestSuccessCurve:
    def test_n4_peaks_at_one_step_with_certainty(self):
        curve = success_curve(4, 3)
        assert peak_step(curve) == 1
        assert curve[1] == pytest.approx(1.0, abs=1e-14)

    def test_n16_peak_matches_closed_form(self):
        curve = success_curve(16, 8)
        assert peak_step(curve) == expected_peak_step(16) == 3
        assert curve[3] >= 15.0 / 16.0

    @pytest.mark.parametrize("n", [2, 8, 64, 500])
    def test_initial_probability(self, n):
        curve = success_curve(n, 2)
        assert curve[0] == pytest.approx(1.0 / n, abs=1e-14)

    def test_periodicity_of_success_probability(self):
        n = 64
        period = np.pi / (2.0 * np.arcsin(1.0 / np.sqrt(n)))
        first = expected_peak_step(n)
        curve = success_curve(n, int(np.ceil(first + period)) + 2)
        second = first + 1 + int(np.argmax(curve[first + 1 :]))
        assert abs((second - first) - period) <= 1.0

    def test_target_index_is_immaterial(self):
        rng = np.random.default_rng(41)
        targets = rng.integers(0, 32, size=4)
        curves = [success_curve(32, 10, target=int(t)) for t in targets]
        for other in curves[1:]:
            assert np.max(np.abs(other - curves[0])) < 1e-12


class TestSubspaceAgreement:
    def test_zero_steps(self):
        assert subspace_agreement(16, 0) < 1e-15

    def test_small_and_medium_sizes(self):
        assert subspace_agreement(64, 12) < 1e-10

    def test_large_size(self):
        assert subspace_agreement(4096, 50) < 1e-9

    def test_agreement_with_random_target(self):
        rng = np.random.default_rng(42)
        target = int(rng.integers(0, 128))
        assert subspace_agreement(128, 20, target=target) < 1e-10

    def test_covers_two_full_periods(self):
        n = 64
        steps = 2 * int(np.floor(step_params(SearchInstance(n)).q_total + 0.5))
        assert subspace_agreement(n, steps) < 1e-9
