# The 2x2 layer on stacks: each function given a leading sample axis must
# return, bit for bit, what it returns for each sample on its own, and its
# input checks must cover every sample and name the worst one.

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsearch.pauli import bloch_point, phase_aligned_distance, rotation_unitary
from hamsearch.search import (
    GROVER_AXIS,
    SearchInstance,
    continuous_axis,
    equivalence_params,
    equivalence_residual,
    evolve_continuous,
    grover_power,
    phase_rotation,
)
from oracles import random_unitary, seeds

sizes = st.integers(min_value=2, max_value=2**20)
fractions = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)
angles = st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=12)


def _assert_bitwise_per_element(stacked, singles):
    singles = [np.asarray(x) for x in singles]
    assert stacked.shape == (len(singles), *singles[0].shape)
    for row, single in zip(stacked, singles):
        assert row.dtype == single.dtype
        assert row.tobytes() == single.tobytes()


def _times(n, fractions):
    return np.asarray(fractions) * SearchInstance(n).total_time


@settings(max_examples=60, deadline=None)
@given(seeds, angles)
def test_rotation_unitary(seed, angles):
    axis = np.random.default_rng(seed).normal(size=3)
    axis /= np.linalg.norm(axis)
    stacked = rotation_unitary(axis, np.asarray(angles))
    _assert_bitwise_per_element(stacked, [rotation_unitary(axis, a) for a in angles])


@settings(max_examples=60, deadline=None)
@given(angles)
def test_phase_rotation(betas):
    _assert_bitwise_per_element(phase_rotation(np.asarray(betas)), [phase_rotation(b) for b in betas])


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=8))
def test_phase_aligned_distance(seed, n, k):
    rng = np.random.default_rng(seed)
    u = np.array([random_unitary(n, rng) for _ in range(k)])
    # Half the pairs differ by a global phase only, so distances near 0 and
    # the wrap-around arc case both occur.
    v = np.array([random_unitary(n, rng) if i % 2 else np.exp(1j * rng.uniform(-4, 4)) * u[i]
                  for i in range(k)])
    stacked = phase_aligned_distance(u, v)
    _assert_bitwise_per_element(stacked, [phase_aligned_distance(a, b) for a, b in zip(u, v)])


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=12))
def test_bloch_point(seed, k):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    stacked = bloch_point(psi)
    _assert_bitwise_per_element(stacked, [bloch_point(p) for p in psi])


@settings(max_examples=60, deadline=None)
@given(sizes, fractions)
def test_equivalence_params_and_residual(n, fractions):
    inst = SearchInstance(n)
    t = _times(n, fractions)
    stacked = equivalence_params(inst, t)
    singles = [equivalence_params(inst, x) for x in t]
    _assert_bitwise_per_element(stacked.q_t, [p.q_t for p in singles])
    _assert_bitwise_per_element(stacked.beta, [p.beta for p in singles])
    _assert_bitwise_per_element(equivalence_residual(inst, t),
                                [equivalence_residual(inst, x) for x in t])


@settings(max_examples=60, deadline=None)
@given(sizes, fractions)
def test_evolve_continuous_and_grover_power(n, fractions):
    inst = SearchInstance(n)
    t = _times(n, fractions)
    _assert_bitwise_per_element(evolve_continuous(inst, t), [evolve_continuous(inst, x) for x in t])
    q = 3.0 * np.asarray(fractions)
    _assert_bitwise_per_element(grover_power(inst, q), [grover_power(inst, x) for x in q])


def test_stacks_keep_leading_shape():
    inst = SearchInstance(16)
    grid = np.linspace(0.0, inst.total_time, 6).reshape(2, 3)
    assert rotation_unitary(GROVER_AXIS, grid).shape == (2, 3, 2, 2)
    assert phase_rotation(grid).shape == (2, 3, 2, 2)
    assert evolve_continuous(inst, grid).shape == (2, 3, 2, 2)
    assert equivalence_params(inst, grid).beta.shape == (2, 3)
    assert equivalence_residual(inst, grid).shape == (2, 3)
    assert bloch_point(evolve_continuous(inst, grid) @ inst.source_state).shape == (2, 3, 3)


def test_scalar_inputs_give_scalars():
    inst = SearchInstance(16)
    assert rotation_unitary(continuous_axis(inst), 0.3).shape == (2, 2)
    assert np.ndim(equivalence_residual(inst, 1.0)) == 0
    assert np.ndim(equivalence_params(inst, 1.0).q_t) == 0
    assert np.ndim(phase_aligned_distance(np.eye(2), np.eye(2))) == 0
    assert bloch_point([1.0, 0.0]).shape == (3,)


class TestChecksCoverEverySample:
    def test_domain_failure_names_the_farthest_time(self):
        inst = SearchInstance(16)
        t = np.array([0.0, -0.5, 1.0, inst.total_time * 1.2, -2.0])
        with pytest.raises(ValueError, match=r"t=-2\.0 outside"):
            equivalence_params(inst, t)
        with pytest.raises(ValueError, match=r"t=-2\.0 outside"):
            equivalence_residual(inst, t)

    def test_non_finite_time_is_outside_the_domain(self):
        with pytest.raises(ValueError, match="t=nan outside"):
            equivalence_params(SearchInstance(16), np.array([0.0, np.nan]))

    def test_negative_time_names_the_most_negative(self):
        inst, t = SearchInstance(4), np.array([1.0, -0.1, -3.0])
        params = equivalence_params(inst, np.abs(t))  # given params skip the domain check
        for call in (lambda: evolve_continuous(inst, t), lambda: equivalence_residual(inst, t, params)):
            with pytest.raises(ValueError, match=r"evolution time must be nonnegative \(t=-3\.0\)"):
                call()

    def test_state_norm_names_the_worst_state(self):
        psi = np.array([[1.0, 0.0], [1.0, 1.0], [0.6, 0.8], [0.0, 1.1]])
        with pytest.raises(ValueError, match=r"state norm 1\.414"):
            bloch_point(psi)

    def test_axis_norm_is_checked(self):
        with pytest.raises(ValueError, match="axis norm"):
            rotation_unitary(np.array([1.0, 1.0, 0.0]), np.zeros(4))
