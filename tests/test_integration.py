# Cross-module checks in the full N-dimensional space: the product-formula
# engine applied to the projector split of the search Hamiltonian, compared
# against the 2D model and the rank-1 reflection oracle.

import numpy as np
import pytest

from hamsearch.search import SearchInstance, evolve_continuous, grover_power
from hamsearch.statevector import grover_iterate, uniform_state
from hamsearch.trotter import (
    HermitianTermSet,
    TrotterPlan,
    commutator_error,
    plan_for_budget,
    trotter_evolve,
    trotter_step,
)


def _full_space_split(n):
    s = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    t = np.zeros(n, dtype=complex)
    t[0] = 1.0
    return HermitianTermSet(
        n,
        (np.outer(s, s.conj()), np.outer(t, t.conj())),
        ("source-projector", "target-projector"),
    )


class TestFullSpaceProjectorSplit:
    def test_commutator_norm_is_representation_independent(self):
        # The commutator lives in the 2D subspace, so the full-space
        # estimate must reproduce the closed form (1/2) sqrt(N-1)/N.
        for n in (4, 8, 16):
            assert commutator_error(_full_space_split(n)) == pytest.approx(0.5 * np.sqrt(n - 1.0) / n, abs=1e-13)

    def test_small_step_evolution_tracks_the_2d_model(self):
        n = 8
        inst = SearchInstance(n)
        terms = _full_space_split(n)
        total = inst.total_time
        plan = plan_for_budget(terms, total, 1e-3)
        final = trotter_evolve(terms, plan) @ uniform_state(n)
        model = evolve_continuous(inst, total) @ inst.source_state
        assert abs(abs(final[0]) - abs(model[0])) < 2e-3
        assert abs(final[0]) ** 2 > 0.99

    def test_reflection_sized_steps_generate_the_discrete_search(self):
        # With dt = pi each term exponential is a reflection, so one product
        # step is exactly minus the discrete search step; k steps from the
        # uniform state reproduce the reflection oracle up to global sign.
        n = 16
        terms = _full_space_split(n)
        psi0 = uniform_state(n)
        step = trotter_step(terms, np.pi)
        psi = psi0.copy()
        for k in range(1, 7):
            psi = step @ psi
            oracle = grover_iterate(psi0, 0, k)
            assert np.max(np.abs(psi - (-1.0) ** k * oracle)) < 1e-12

    def test_reflection_steps_match_the_2d_fractional_power(self):
        n = 16
        inst = SearchInstance(n)
        terms = _full_space_split(n)
        plan = TrotterPlan(total_time=5.0 * np.pi, steps=5)  # dt = pi exactly
        final = trotter_evolve(terms, plan) @ uniform_state(n)
        model = grover_power(inst, 5.0) @ inst.source_state
        assert abs(final[0]) == pytest.approx(abs(model[0]), abs=1e-12)
