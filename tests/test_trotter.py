# Product-formula engine: exact term exponentials, evolution, the
# commutator error estimate, budget planning, and the telescoping bound.
# Independent oracle for exponentials: scipy's scaling-and-squaring expm.

import numpy as np
import pytest
import scipy.linalg

from hamsearch.decompose import decompose, graph_laplacian, honeycomb_lattice, laplacian_chain
from hamsearch.linalg import random_unitary, spectral_norm
from hamsearch.pauli import phase_aligned_distance
from hamsearch.search import SearchInstance, evolve_continuous
from hamsearch.trotter import (
    BlockTerm,
    HermitianTermSet,
    TrotterPlan,
    commutator_error,
    energy_drift,
    exact_term_exponential,
    load_term_set,
    plan_for_budget,
    save_term_set,
    telescoping_bound_check,
    term_set_from_json,
    trotter_evolve,
)
from oracles import laplacian_matrix, search_split_of


def _chain_split(length, periodic=True):
    graph = laplacian_chain(length, periodic=periodic)
    values, _ = graph_laplacian(graph)
    return laplacian_matrix(graph, 2.0), decompose(graph, values, np.full(length, 2.0))


class TestTermSetValidation:
    def test_rejects_non_hermitian_term(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            HermitianTermSet(2, (bad,), ("bad",))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            HermitianTermSet(3, (np.eye(2),), ("a",))

    def test_total_is_the_sum(self):
        ts = search_split_of(16)
        h = ts.total()
        assert np.max(np.abs(h - (ts.terms[0] + ts.terms[1]))) == 0.0

    def test_rejects_non_hermitian_block(self):
        bad = BlockTerm([[0, 1]], [[[1.0, 2.0], [0.5, 1.0]]], np.zeros(3))
        with pytest.raises(ValueError, match="term 0 is not Hermitian"):
            HermitianTermSet(3, (bad,), ("bad",))

    def test_block_term_dimension_must_match(self):
        term = BlockTerm([[0, 1]], [[[1.0, 1.0], [1.0, 1.0]]], np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            HermitianTermSet(4, (term,), ("a",))

    def test_block_term_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            BlockTerm([[0, 1], [1, 2]], np.zeros((2, 2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="outside"):
            BlockTerm([[0, 3]], np.zeros((1, 2, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="vanish"):
            BlockTerm([[0, 1]], np.zeros((1, 2, 2)), np.ones(3))
        with pytest.raises(ValueError):
            BlockTerm([[0, 1]], np.zeros((2, 2, 2)), np.zeros(3))

    def test_block_term_densifies(self):
        term = BlockTerm([[2, 0]], [[[1.0, 2j], [-2j, 3.0]]], [0.0, -4.0, 0.0])
        expected = np.array([[3.0, 0, -2j], [0, -4.0, 0], [2j, 0, 1.0]])
        assert np.array_equal(term.dense(), expected)


class TestPlan:
    def test_step_size_times_steps_is_total_time(self):
        plan = TrotterPlan(6.283, 1000)
        assert plan.steps * plan.dt == pytest.approx(plan.total_time, abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TrotterPlan(1.0, 0)
        with pytest.raises(ValueError):
            TrotterPlan(-1.0, 5)


class TestExactTermExponential:
    def test_zero_time_is_identity(self):
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert np.allclose(exact_term_exponential(h, 0.0), np.eye(3))

    def test_projector_at_pi_is_a_reflection(self):
        # exp(-i pi P) = 1 - 2P for any projector P.
        inst = SearchInstance(9)
        p = np.outer(inst.source_state, inst.source_state.conj())
        u = exact_term_exponential(p, np.pi)
        assert np.max(np.abs(u - (np.eye(2) - 2.0 * p))) < 1e-14

    def test_even_chain_term_matches_scipy_expm(self):
        _, terms = _chain_split(8)
        mine = exact_term_exponential(terms.terms[0], 0.3)
        oracle = scipy.linalg.expm(-0.3j * terms.dense(0))
        assert np.max(np.abs(mine - oracle)) < 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = m + m.conj().T
        u = exact_term_exponential(h, 1.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-11

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            exact_term_exponential(np.array([[0.0, 1.0], [0.5, 0.0]]), 0.1)

    def test_block_path_has_zero_fill_in(self):
        _, terms = _chain_split(8)
        for k, term in enumerate(terms.terms):
            u = exact_term_exponential(term, 0.7)
            mask = np.ones_like(u, dtype=bool)
            np.fill_diagonal(mask, False)
            for i, j in term.pairs:
                mask[i, j] = mask[j, i] = False
            assert np.max(np.abs(u[mask])) < 1e-14
            assert np.max(np.abs(u - scipy.linalg.expm(-0.7j * terms.dense(k)))) < 1e-12

    def test_block_path_matches_eigh_on_general_blocks(self):
        # Complex off-diagonals, unequal diagonals, a pure-phase block
        # (r = 0) and a bare diagonal site.
        rng = np.random.default_rng(24)
        b = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        b = b + b.conj().transpose(0, 2, 1)
        b[2] = 0.7 * np.eye(2)
        term = BlockTerm([[0, 3], [1, 5], [6, 2]], b, [0, 0, 0, 0, -1.5, 0, 0])
        for tau in (0.0, 0.4, 2.9):
            u = exact_term_exponential(term, tau)
            assert np.max(np.abs(u - exact_term_exponential(term.dense(), tau))) < 1e-12


class TestTrotterEvolve:
    def test_commuting_terms_are_exact(self):
        d1 = np.diag([0.3, -1.1, 2.0]).astype(complex)
        d2 = np.diag([1.0, 0.5, -0.25]).astype(complex)
        terms = HermitianTermSet(3, (d1, d2), ("a", "b"))
        for steps in (1, 7):
            u = trotter_evolve(terms, TrotterPlan(2.5, steps))
            exact = exact_term_exponential(d1 + d2, 2.5)
            assert np.max(np.abs(u - exact)) < 1e-10

    def test_search_split_reaches_target(self):
        inst = SearchInstance(16)
        terms = search_split_of(16)
        total = inst.total_time
        plan = TrotterPlan(total, int(round(total / 1e-3)))
        final = trotter_evolve(terms, plan) @ inst.source_state
        assert abs(final[0]) ** 2 >= 1.0 - 1e-4

    def test_halving_dt_halves_the_error(self):
        h, terms = _chain_split(8)
        total = 2.0
        exact = exact_term_exponential(h, total)
        errors = []
        for steps in (10, 20, 40, 80):
            u = trotter_evolve(terms, TrotterPlan(total, steps))
            errors.append(spectral_norm(u - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(2.0, rel=0.15)

    def test_first_order_slope(self):
        for terms, total in ((search_split_of(16), SearchInstance(16).total_time),
                             (_chain_split(8)[1], 2.0)):
            exact = exact_term_exponential(terms.total(), total)
            dts, errs = [], []
            for steps in (32, 64, 128, 256):
                plan = TrotterPlan(total, steps)
                dts.append(plan.dt)
                errs.append(spectral_norm(trotter_evolve(terms, plan) - exact))
            slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            assert 0.9 <= slope <= 1.1

    def test_unitarity_preserved_over_many_steps(self):
        terms = search_split_of(4)
        plan = TrotterPlan(100.0, 100_000)
        u = trotter_evolve(terms, plan)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-9

    def test_three_term_split_scales_first_order(self):
        # 3-colorable lattice: the engine is not specific to two terms.
        g = honeycomb_lattice(3, 4, periodic=True)
        h = laplacian_matrix(g)
        terms = decompose(g, *graph_laplacian(g))
        assert len(terms) == 3
        norm_e2 = commutator_error(terms)
        assert norm_e2 > 1.0
        exact = exact_term_exponential(h, 1.0)
        dts, errs = [], []
        for steps in (8, 16, 32, 64):
            plan = TrotterPlan(1.0, steps)
            err = spectral_norm(trotter_evolve(terms, plan) - exact)
            assert err <= 2.0 * norm_e2 * plan.dt
            dts.append(plan.dt)
            errs.append(err)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_tensor_factor_matchings_commute_exactly(self):
        # The 2x2-cell periodic honeycomb is the cube graph: its three
        # matchings act on disjoint tensor factors, so the product formula
        # is exact and the planner takes a single step.
        g = honeycomb_lattice(2, 2, periodic=True)
        h = laplacian_matrix(g)
        terms = decompose(g, *graph_laplacian(g))
        assert commutator_error(terms) == 0.0
        plan = plan_for_budget(terms, 5.0, 1e-6)
        assert plan.steps == 1
        u = trotter_evolve(terms, plan)
        assert spectral_norm(u - exact_term_exponential(h, 5.0)) < 1e-12


class TestCommutatorError:
    def test_commuting_terms_give_zero(self):
        d1 = np.diag([1.0, 2.0]).astype(complex)
        d2 = np.diag([3.0, -1.0]).astype(complex)
        assert commutator_error(HermitianTermSet(2, (d1, d2), ("a", "b"))) == 0.0

    @pytest.mark.parametrize("n", [2, 4, 16, 256, 4096])
    def test_search_split_closed_form(self, n):
        # ||(1/2)[P_s, P_t]|| = (1/2) sqrt(N-1)/N, from the step generator.
        assert commutator_error(search_split_of(n)) == pytest.approx(0.5 * np.sqrt(n - 1.0) / n, abs=1e-12)

    def test_chain_split_matches_dense_commutator(self):
        _, terms = _chain_split(8)
        h_even, h_odd = terms.dense(0), terms.dense(1)
        oracle = 0.5 * spectral_norm(h_even @ h_odd - h_odd @ h_even)
        assert commutator_error(terms) == pytest.approx(oracle, abs=1e-12)
        assert commutator_error(terms) > 0.1

    def test_needs_two_terms(self):
        with pytest.raises(ValueError):
            commutator_error(HermitianTermSet(2, (np.eye(2),), ("only",)))


class TestPlanForBudget:
    def test_commuting_terms_take_one_step(self):
        d1 = np.diag([1.0, 2.0]).astype(complex)
        d2 = np.diag([0.0, 5.0]).astype(complex)
        plan = plan_for_budget(HermitianTermSet(2, (d1, d2), ("a", "b")), 3.0, 1e-6)
        assert plan.steps == 1
        assert plan.dt == 3.0

    def test_budget_is_met_with_slack_two(self):
        inst = SearchInstance(16)
        terms = search_split_of(16)
        eps = 1e-3
        plan = plan_for_budget(terms, inst.total_time, eps)
        u = trotter_evolve(terms, plan)
        err = phase_aligned_distance(u, evolve_continuous(inst, inst.total_time))
        assert err <= 2.0 * eps
        assert plan.total_time * commutator_error(terms) * plan.dt <= eps * (1 + 1e-9)

    def test_doubling_budget_doubles_step_size(self):
        # Grid-aligned case: eps chosen so the implied step count is 64.
        terms = search_split_of(16)
        norm_e2 = commutator_error(terms)
        total = 4.0
        eps = total * total * norm_e2 / 64.0
        fine = plan_for_budget(terms, total, eps)
        coarse = plan_for_budget(terms, total, 2.0 * eps)
        assert fine.steps == 64 and coarse.steps == 32
        assert coarse.dt == pytest.approx(2.0 * fine.dt, rel=1e-12)

    def test_step_cap_is_enforced(self):
        terms = search_split_of(16)
        with pytest.raises(ValueError, match="cap"):
            plan_for_budget(terms, 10.0, 1e-12, step_cap=1000)


class TestTelescopingBound:
    def test_equal_operators(self):
        u = np.eye(3, dtype=complex)
        assert telescoping_bound_check(u, u, 10) == (0.0, 0.0)

    def test_perturbed_rotation(self):
        from hamsearch.search import grover_step

        x = grover_step(SearchInstance(16))
        y = x @ scipy.linalg.expm(-1e-3j * np.diag([1.0, -1.0]))
        lhs, rhs = telescoping_bound_check(x, y, 100)
        assert lhs <= rhs
        assert lhs > 0.0

    def test_random_unitary_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            x = random_unitary(dim, rng)
            y = random_unitary(dim, rng)
            n = int(rng.integers(1, 65))
            lhs, rhs = telescoping_bound_check(x, y, n)
            assert lhs <= rhs + 1e-9


class TestEnergyDrift:
    def test_zero_for_commuting_terms(self):
        d1 = np.diag([1.0, 2.0]).astype(complex)
        d2 = np.diag([0.5, 0.5]).astype(complex)
        terms = HermitianTermSet(2, (d1, d2), ("a", "b"))
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert energy_drift(terms, TrotterPlan(1.0, 10), psi) < 1e-12

    def test_reports_nonzero_drift_for_coarse_steps(self):
        inst = SearchInstance(4)
        terms = search_split_of(4)
        drift = energy_drift(terms, TrotterPlan(inst.total_time, 4), inst.source_state)
        assert drift >= 0.0
        fine = energy_drift(terms, TrotterPlan(inst.total_time, 4000), inst.source_state)
        assert fine < drift


class TestJsonInterchange:
    def test_round_trip(self, tmp_path):
        _, terms = _chain_split(8)
        path = tmp_path / "terms.json"
        save_term_set(path, terms)
        back = load_term_set(path)
        assert back.dimension == terms.dimension
        assert back.labels == terms.labels
        for k, (a, b) in enumerate(zip(back.terms, terms.terms)):
            assert isinstance(a, BlockTerm)  # loaded terms keep their blocks
            assert np.array_equal(a.pairs, b.pairs)
            assert np.max(np.abs(back.dense(k) - terms.dense(k))) == 0.0

    def test_round_trip_of_open_chain_and_dense_terms(self, tmp_path):
        # The open chain adds a purely diagonal term; a dense term whose
        # support is not a matching loads back dense.
        _, chain = _chain_split(5, periodic=False)
        full = np.ones((5, 5)) + np.diag(np.arange(5.0))
        terms = HermitianTermSet(5, chain.terms + (full,), chain.labels + ("full",))
        path = tmp_path / "terms.json"
        save_term_set(path, terms)
        back = load_term_set(path)
        assert back.labels[-2:] == ("diagonal", "full")
        assert isinstance(back.terms[-2], BlockTerm) and len(back.terms[-2].pairs) == 0
        assert not isinstance(back.terms[-1], BlockTerm)
        for k in range(len(terms)):
            assert np.array_equal(back.dense(k), terms.dense(k))
        save_term_set(tmp_path / "again.json", back)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_rejects_non_hermitian_document(self):
        doc = {"dimension": 2, "terms": [{"label": "x", "entries": [[0, 1, 1.0, 0.0]]}]}
        with pytest.raises(ValueError):
            term_set_from_json(doc)

    def test_rejects_out_of_range_entries(self):
        doc = {"dimension": 2, "terms": [{"label": "x", "entries": [[0, 5, 1.0, 0.0]]}]}
        with pytest.raises(ValueError):
            term_set_from_json(doc)

    def test_rejects_malformed_document(self):
        with pytest.raises(ValueError):
            term_set_from_json({"terms": []})

    def test_rejects_duplicate_entries(self):
        entries = [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0], [0, 0, 5.0, 0.0]]
        doc = {"dimension": 2, "terms": [{"label": "x", "entries": entries}]}
        with pytest.raises(ValueError, match=r"term 0: duplicate entry \(0, 0\)"):
            term_set_from_json(doc)

    @pytest.mark.parametrize("value", [(float("nan"), 0.0), (1.0, float("inf")),
                                       (-float("inf"), 0.0)])
    def test_rejects_non_finite_entries(self, value):
        entries = [[0, 1, *value], [1, 0, 1.0, 0.0]]
        doc = {"dimension": 2, "terms": [{"label": "x", "entries": entries}]}
        with pytest.raises(ValueError, match=r"term 0: entry \(0, 1\) is non-finite"):
            term_set_from_json(doc)
