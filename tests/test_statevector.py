# Full-space search oracle: rank-1 reflection updates, success curves, and
# agreement with the two-dimensional subspace model.

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamsearch.statevector import (
    MAX_STEPS,
    expected_peak_step,
    grover_iterate,
    peak_step,
    subspace_agreement,
    success_curve,
    uniform_state,
)
from oracles import carried_mean_curve


def closed_form_curve(n, max_steps):
    """sin^2((2k+1) asin(1/sqrt N)) for k = 0 .. max_steps."""
    return np.sin((2 * np.arange(max_steps + 1) + 1) * np.arcsin(1.0 / np.sqrt(n))) ** 2


@st.composite
def searches(draw, max_n=4096):
    """(N, target, steps): any target, up to 2 * expected_peak_step(N) + 2 steps."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    steps = draw(st.integers(min_value=1, max_value=2 * expected_peak_step(n) + 2))
    return n, target, steps


class TestUniformState:
    def test_real_amplitudes(self):
        # Every amplitude the search step reaches from |s> is real.
        assert uniform_state(16).dtype == np.float64

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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=2**22))
    @example(2**22)
    @example(2**22 - 1)
    def test_zero_stride_mean_is_the_state_mean(self, n):
        # success_curve reads the starting mean from a zero-stride view
        # instead of the N amplitudes; numpy sums both pairwise.
        view = np.broadcast_to(1.0 / np.sqrt(n), (n,))
        assert float(view.mean()) == float(uniform_state(n).mean())


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

    @settings(max_examples=60, deadline=None)
    @given(searches(max_n=256), st.data())
    def test_target_index_is_immaterial(self, search, data):
        n, target, steps = search
        other = data.draw(st.integers(min_value=0, max_value=n - 1))
        curve = success_curve(n, steps, target=target)
        assert np.max(np.abs(success_curve(n, steps, target=other) - curve)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(searches())
    def test_matches_closed_form(self, search):
        n, target, steps = search
        curve = success_curve(n, steps, target=target)
        assert np.max(np.abs(curve - closed_form_curve(n, steps))) < 1e-14

    @settings(max_examples=100, deadline=None)
    @given(searches())
    @example((2, 1, 3))
    @example((3, 2, 5))
    @example((255, 0, 30))
    @example((65536, 65535, 2 * expected_peak_step(65536)))
    @example((2**19, 2**19 - 1, 2 * expected_peak_step(2**19)))
    def test_keeps_the_bytes_of_the_full_space_step(self, search):
        # The two-scalar recurrence runs the float operations that the
        # N-dimensional step with a carried mean ran on psi[t] and the mean.
        n, target, steps = search
        want = carried_mean_curve(n, steps, target)
        assert success_curve(n, steps, target=target).tobytes() == want.tobytes()

    def test_the_step_cap_curve_is_held_as_float64(self):
        # The curve was a list of 2^20 + 1 Python floats, which peaked at 40 MiB;
        # a float64 array holds 8 MiB. Its bytes are those of the list version.
        tracemalloc.start()
        try:
            curve = success_curve(16, MAX_STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        mean, a = float(np.broadcast_to(0.25, (16,)).mean()), 0.25
        listed = [abs(a) ** 2]
        for _ in range(MAX_STEPS):
            mean -= 2.0 * a / 16
            a = 2.0 * mean + a
            listed.append(abs(a) ** 2)
        assert curve.tobytes() == np.array(listed).tobytes()

    @pytest.mark.parametrize("n, steps, target, message", [
        (16, 0, 0, "max_steps must be >= 1"),
        (16, MAX_STEPS + 1, 0, "max_steps=1048577 exceeds the cap 1048576"),
        (2**22 + 1, 10**8, 0, "max_steps=100000000 exceeds the cap"),
        (16, 3, 16, r"target index 16 outside \[0, 16\)"),
        (16, 3, -1, r"target index -1 outside \[0, 16\)"),
        (2**22 + 1, 3, 0, "exceeds the cap 4194304")])
    def test_rejects_bad_arguments(self, n, steps, target, message):
        with pytest.raises(ValueError, match=message):
            success_curve(n, steps, target=target)

    def test_matches_closed_form_at_two_to_the_twenty(self):
        n = 2**20
        steps = 2 * expected_peak_step(n)
        curve = success_curve(n, steps, target=n // 3)
        assert np.max(np.abs(curve - closed_form_curve(n, steps))) < 5e-15


class TestSubspaceAgreement:
    def test_zero_steps(self):
        assert subspace_agreement(16, 0) < 1e-15

    def test_small_and_medium_sizes(self):
        assert subspace_agreement(64, 12) < 1e-10

    def test_large_size(self):
        assert subspace_agreement(4096, 50) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(searches(max_n=1024))
    def test_agreement_with_random_target(self, search):
        n, target, steps = search
        assert subspace_agreement(n, steps, target=target) < 1e-10

    def test_covers_two_full_periods(self):
        n = 64
        steps = 2 * expected_peak_step(n)
        assert subspace_agreement(n, steps) < 1e-9
