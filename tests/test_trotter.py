# Product-formula engine: exact term exponentials, evolution, the
# commutator error estimate, budget planning, and the telescoping bound.
# Independent oracle for exponentials: scipy's scaling-and-squaring expm.

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hamsearch
from hamsearch import trotter
from hamsearch.decompose import (
    decompose,
    decompose_matrix,
    graph_laplacian,
    honeycomb_lattice,
    laplacian_chain,
)
from hamsearch.linalg import spectral_norm
from hamsearch.pauli import phase_aligned_distance
from hamsearch.search import SearchInstance, evolve_continuous, grover_power
from hamsearch.trotter import (
    MAX_DENSE_DIMENSION,
    MAX_SITES,
    BlockTerm,
    HermitianTermSet,
    TrotterPlan,
    bloch_sectors,
    commutator_error,
    exact_term_exponential,
    load_term_set,
    plan_for_budget,
    save_term_set,
    telescoping_bound_check,
    trotter_evolve,
    trotter_scan,
)
from oracles import (
    dense_trotter_scan,
    laplacian_matrix,
    random_unitary,
    search_split_of,
    seeds,
    term_set_json,
)


reals = st.floats(min_value=-4.0, max_value=4.0)
nonzero = st.complex_numbers(max_magnitude=4.0).filter(lambda z: z != 0)


@st.composite
def _matching_terms(draw, d):
    # A BlockTerm on a random matching: Hermitian blocks with a nonzero
    # off-diagonal entry, and a residual diagonal on the uncovered sites.
    order = draw(st.permutations(range(d)))
    k = draw(st.integers(min_value=0, max_value=d // 2))
    blocks = []
    for _ in range(k):
        a, c, b = draw(reals), draw(reals), draw(nonzero)
        blocks.append([[a, b], [b.conjugate(), c]])
    values = [draw(reals) for _ in order[2 * k:]]
    return BlockTerm(d, np.reshape(order[:2 * k], (k, 2)), blocks, order[2 * k:], values)


@st.composite
def _star_terms(draw, d):
    # A dense Hermitian term whose support is not a matching: one site has
    # two neighbours, and further random entries may be added.
    center, left, right = draw(st.permutations(range(d)))[:3]
    extra = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)).filter(lambda e: e[0] != e[1])
    h = np.diag([draw(reals) for _ in range(d)]).astype(complex)
    for r, c in [(center, left), (center, right), *draw(st.lists(extra, max_size=d))]:
        h[r, c] = draw(nonzero)
        h[c, r] = h[r, c].conjugate()
    return h


@st.composite
def _term_sets(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    terms = draw(st.lists(_matching_terms(d), min_size=1, max_size=3))
    if d >= 3 and draw(st.booleans()):
        terms.append(draw(_star_terms(d)))
    labels = draw(st.lists(st.text(max_size=6), min_size=len(terms), max_size=len(terms)))
    return HermitianTermSet(d, tuple(terms), tuple(labels))


# Floats at the edges of repr's forms: signed zeros, the subnormal range, and
# both sides of the switch to exponent notation at 1e16 and below 1e-4.
EDGE_FLOATS = (0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-05,
               9.999999999999999e-05, 0.0001, 0.1, 1.0, 9999999999999998.0, 1e16,
               1.0000000000000002e16)


@st.composite
def _text_term_sets(draw):
    # Dense terms and BlockTerms with complex entries whose values repeat (a pool of
    # up to three) or are drawn apart, from EDGE_FLOATS of either sign or anywhere.
    finite = st.one_of(st.sampled_from(EDGE_FLOATS).flatmap(lambda x: st.sampled_from([x, -x])),
                       st.floats(min_value=-1e300, max_value=1e300))
    value = st.sampled_from(draw(st.lists(finite, min_size=1, max_size=3)))
    value = draw(st.sampled_from([value, finite]))

    def entry():
        return complex(draw(value), draw(value))

    d, terms = draw(st.integers(min_value=1, max_value=6)), []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            h = np.diag([draw(value) for _ in range(d)]).astype(complex)
            for r, c in zip(*np.triu_indices(d, 1)):
                h[r, c] = entry()
                h[c, r] = h[r, c].conjugate()
            terms.append(h)
            continue
        order = draw(st.permutations(range(d)))
        k = draw(st.integers(min_value=0, max_value=d // 2))
        blocks = [[[draw(value), z], [z.conjugate(), draw(value)]] for z in
                  (entry() for _ in range(k))]
        values = [draw(value) for _ in order[2 * k:]]
        terms.append(BlockTerm(d, np.reshape(order[:2 * k], (k, 2)), blocks, order[2 * k:], values))
    return HermitianTermSet(d, tuple(terms), tuple(f"t{k}" for k in range(len(terms))))


# An all-zero term, dense and as a BlockTerm ("entries": []), and a dense 4 x 4
# term of 15 nonzero entries, some values repeated, that spans chunks of two rows.
ZERO_TERMS = HermitianTermSet(3, (np.zeros((3, 3)), BlockTerm(3, np.zeros((0, 2)), np.zeros(
    (0, 2, 2)), [0, 1, 2], np.zeros(3))), ("zero dense", "zero block"))
DENSE_TERMS = HermitianTermSet(4, (np.add.outer(np.arange(4.0), np.arange(4.0))
                                   + 1j * np.subtract.outer(np.arange(4.0), np.arange(4.0)),),
                               ("dense",))


def _is_matching(h):
    # Every site has at most one off-diagonal neighbour.
    rows, _ = np.nonzero(h - np.diag(np.diag(h)))
    return np.bincount(rows, minlength=len(h)).max() <= 1


def _chain_split(length, periodic=True):
    g, values, diagonal = laplacian_chain(length, periodic=periodic)
    return laplacian_matrix(g, 2.0), decompose(g, values, diagonal)


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
        bad = BlockTerm(3, [[0, 1]], [[[1.0, 2.0], [0.5, 1.0]]])
        with pytest.raises(ValueError, match="term 0 is not Hermitian"):
            HermitianTermSet(3, (bad,), ("bad",))

    def test_block_term_dimension_must_match(self):
        term = BlockTerm(3, [[0, 1]], [[[1.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(ValueError, match="shape"):
            HermitianTermSet(4, (term,), ("a",))

    def test_block_term_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            BlockTerm(3, [[0, 1], [1, 2]], np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="outside"):
            BlockTerm(3, [[0, 3]], np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="disjoint"):
            BlockTerm(3, [[0, 1]], np.zeros((1, 2, 2)), [1, 2], [1.0, 1.0])
        with pytest.raises(ValueError):
            BlockTerm(3, [[0, 1]], np.zeros((2, 2, 2)))

    def test_block_term_densifies(self):
        term = BlockTerm(3, [[2, 0]], [[[1.0, 2j], [-2j, 3.0]]], [1], [-4.0])
        expected = np.array([[3.0, 0, -2j], [0, -4.0, 0], [2j, 0, 1.0]])
        assert np.array_equal(term.dense(), expected)

    def test_dense_terms_are_copied(self):
        # The term set freezes its own copy of a dense term, not the caller's array.
        h = np.eye(2, dtype=complex)
        terms = HermitianTermSet(2, (h,), ("a",))
        h[0, 0] = 2
        assert np.array_equal(terms.dense(0), np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            terms.dense(0)[0, 0] = 2

    @settings(max_examples=60, deadline=None)
    @given(_term_sets())
    @example(HermitianTermSet(3, (BlockTerm(3, [[2, 0]], [[[0.0, 1.0], [1.0, 0.0]]], [1], [5.0]),),
                              ("zeros inside a block",)))
    def test_entries_are_the_nonzero_entries_in_row_major_order(self, terms):
        # The order the term file lists them in: by row, then column, zeros left out.
        for h in terms.terms:
            block = isinstance(h, BlockTerm)
            dense = h.dense() if block else h
            rows, cols = np.nonzero(dense)
            got = h.entries() if block else trotter._nonzero_entries(h)
            for a, b in zip(got, (rows, cols, dense[rows, cols]), strict=True):
                assert np.array_equal(a, b)

    def test_dense_block_term_is_capped(self):
        # Above the cap the term stays block-sparse; only densifying fails.
        d = MAX_DENSE_DIMENSION + 1
        term = BlockTerm(d, [[0, 1]], [[[0.0, 1.0], [1.0, 0.0]]])
        for densify in (term.dense, HermitianTermSet(d, (term,), ("a",)).total,
                        lambda: exact_term_exponential(term, 0.1)):
            with pytest.raises(ValueError, match=f"d={d} exceeds the cap {MAX_DENSE_DIMENSION}"):
                densify()


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

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_unitarity(self, seed):
        rng = np.random.default_rng(seed)
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

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_block_path_matches_eigh_on_general_blocks(self, seed):
        # Complex off-diagonals, unequal diagonals, a pure-phase block
        # (r = 0) and a bare diagonal site.
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        b = b + b.conj().transpose(0, 2, 1)
        b[2] = 0.7 * np.eye(2)
        term = BlockTerm(7, [[0, 3], [1, 5], [6, 2]], b, [4], [-1.5])
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


def _bloch_basis(cells):
    # Columns |q, a> = sum_n exp(2 pi i q n / M) |2n + a> / sqrt(M), ordered
    # (q, a) as the sector stacks are.
    q, n = np.meshgrid(np.arange(cells), np.arange(cells))
    return np.kron(np.exp(2j * np.pi * q * n / cells) / np.sqrt(cells), np.eye(2))


class TestBlochSectors:
    @pytest.mark.parametrize("length", [4, 6, 16, 64, 512])
    def test_sector_scan_matches_dense_oracle(self, length):
        # The 4-site ring commutes, so its errors are round-off: they get an
        # absolute floor instead of a relative tolerance.
        _, terms = _chain_split(length)
        assert bloch_sectors(terms) is not None
        steps = (10, 20, 40, 80)
        norm_e2, rows = trotter_scan(terms, 2.0, steps)
        oracle_norm, oracle_errors = dense_trotter_scan(terms, 2.0, steps)
        floor = 1e-13 if length == 4 else 0.0
        assert norm_e2 == pytest.approx(oracle_norm, rel=1e-12, abs=floor)
        assert [row[1] for row in rows] == list(steps)
        for (dt, n, error), oracle in zip(rows, oracle_errors):
            assert dt == 2.0 / n
            assert error == pytest.approx(oracle, rel=1e-12, abs=floor)

    def test_blocks_reassemble_each_term(self):
        # A two-site-periodic chain with complex hoppings and an on-site
        # potential, so that the split has a diagonal term as well.
        length = 10
        h = np.diag(np.tile([3.0, 2.5], length // 2)).astype(complex)
        for i, hop in enumerate([0.5 - 1.25j, -0.75 + 0.5j] * (length // 2)):
            h[i, (i + 1) % length] = hop
            h[(i + 1) % length, i] = np.conj(hop)
        terms = decompose_matrix(h, laplacian_chain(length, periodic=True)[0])
        assert terms.labels == ("color0", "color1", "diagonal")
        sectors = bloch_sectors(terms)
        f = _bloch_basis(length // 2)
        for k, blocks in enumerate(sectors):
            assert blocks.shape == (length // 2, 2, 2)
            rebuilt = f @ scipy.linalg.block_diag(*blocks) @ f.conj().T
            assert np.max(np.abs(rebuilt - terms.dense(k))) < 1e-14

    def test_terms_without_the_symmetry_take_the_dense_path(self):
        # A ring with one heavier bond, the open chains of 2 sites (one
        # cell) and 8, the odd ring (three colors), a honeycomb torus and the
        # search split. The scan still agrees with the dense oracle.
        h, _ = _chain_split(8)
        h[3, 4] = h[4, 3] = -1.5
        bent = decompose_matrix(h, laplacian_chain(8, periodic=True)[0])
        honeycomb = honeycomb_lattice(3, 4, periodic=True)
        cases = [bent, _chain_split(2, periodic=False)[1], _chain_split(8, periodic=False)[1],
                 _chain_split(9)[1],
                 decompose(honeycomb, *graph_laplacian(honeycomb)), search_split_of(16)]
        for terms in cases:
            assert bloch_sectors(terms) is None
        norm_e2, rows = trotter_scan(bent, 2.0, (10, 20))
        oracle_norm, oracle_errors = dense_trotter_scan(bent, 2.0, (10, 20))
        assert norm_e2 == pytest.approx(oracle_norm, rel=1e-12)
        assert [row[2] for row in rows] == pytest.approx(oracle_errors, rel=1e-12)


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
            plan_for_budget(terms, 10.0, 1e-12)


class TestTelescopingBound:
    def test_equal_operators(self):
        u = np.eye(3, dtype=complex)
        assert telescoping_bound_check(u, u, 10) == (0.0, 0.0)

    def test_perturbed_rotation(self):
        x = grover_power(SearchInstance(16), 1)
        y = x @ scipy.linalg.expm(-1e-3j * np.diag([1.0, -1.0]))
        lhs, rhs = telescoping_bound_check(x, y, 100)
        assert lhs <= rhs
        assert lhs > 0.0

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=64))
    def test_random_unitary_pairs(self, seed, dim, n):
        rng = np.random.default_rng(seed)
        x = random_unitary(dim, rng)
        y = random_unitary(dim, rng)
        lhs, rhs = telescoping_bound_check(x, y, n)
        assert lhs <= rhs + 1e-9


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

    @settings(max_examples=60, deadline=None)
    @given(_term_sets())
    def test_round_trip_property(self, tmp_path_factory, terms):
        # Labels and every densified term come back exactly; a term loads
        # as a BlockTerm exactly when its support is a matching; and saving
        # the loaded set reproduces the file byte for byte.
        path = tmp_path_factory.mktemp("terms") / "terms.json"
        save_term_set(path, terms)
        back = load_term_set(path)
        assert back.labels == terms.labels
        for k in range(len(terms)):
            assert np.array_equal(back.dense(k), terms.dense(k))
            assert isinstance(back.terms[k], BlockTerm) == _is_matching(terms.dense(k))
        save_term_set(path.with_name("again.json"), back)
        assert path.with_name("again.json").read_bytes() == path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(_term_sets())
    @example(ZERO_TERMS)
    @example(DENSE_TERMS)
    def test_writer_matches_json_dump(self, tmp_path_factory, terms):
        # Entries formatted in chunks of two rows, so that most terms span several.
        path = tmp_path_factory.mktemp("terms") / "terms.json"
        with mock.patch.object(hamsearch, "CHUNK_ROWS", 2):
            save_term_set(path, terms)
        assert path.read_text(encoding="utf-8") == term_set_json(terms)

    @settings(max_examples=200, deadline=None)
    @given(_text_term_sets())
    @example(HermitianTermSet(2, (BlockTerm(2, [[0, 1]], [[[1.0, -0.0 + 1j], [-0.0 - 1j, 1.0]]]),),
                              ("zeros of both signs",)))
    @example(ZERO_TERMS)
    @example(DENSE_TERMS)
    def test_each_distinct_value_formats_as_json_dump_does(self, terms):
        # Each term's values are formatted once per bit pattern (0.0 and -0.0
        # apart), dense terms and BlockTerms alike, and its entries in chunks of
        # two rows; the text is json.dump's bytes.
        with mock.patch.object(hamsearch, "CHUNK_ROWS", 2):
            assert "".join(trotter._term_set_chunks(terms)) == term_set_json(terms)

    def test_a_failed_save_leaves_the_file_as_it_was(self, tmp_path, monkeypatch):
        # The document is written under a temporary name and renamed over the
        # target only once whole: a term that fails partway changes nothing.
        _, terms = _chain_split(8)
        path = tmp_path / "terms.json"
        path.write_bytes(b"earlier bytes")
        entries, calls = trotter._nonzero_entries, []

        def fail_on_the_second_term(h):
            calls.append(h)
            if len(calls) == 2:
                raise RuntimeError("term fails")
            return entries(h)

        monkeypatch.setattr(trotter, "_nonzero_entries", fail_on_the_second_term)
        with pytest.raises(RuntimeError, match="term fails"):
            save_term_set(path, terms)
        assert len(calls) == 2
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"earlier bytes"

    def test_the_term_text_goes_to_the_file_one_block_at_a_time(self, tmp_path):
        # The 200000-site honeycomb's two terms of about 400000 entries each: no
        # term's text is held whole, so the save adds under 40 MiB over the held term
        # set (27.5 MiB; 62.1 MiB while each term's text was held for its leading ",").
        graph = honeycomb_lattice(1, 100000)
        terms = decompose(graph, *graph_laplacian(graph))
        tracemalloc.start()
        try:
            save_term_set(tmp_path / "terms.json", terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_rejects_non_hermitian_document(self):
        doc = {"dimension": 2, "terms": [{"label": "x", "entries": [[0, 1, 1.0, 0.0]]}]}
        with pytest.raises(ValueError):
            load_term_set(doc)

    def test_rejects_out_of_range_entries(self):
        doc = {"dimension": 2, "terms": [{"label": "x", "entries": [[0, 5, 1.0, 0.0]]}]}
        with pytest.raises(ValueError):
            load_term_set(doc)

    def test_rejects_malformed_document(self):
        with pytest.raises(ValueError):
            load_term_set({"terms": []})

    @pytest.mark.parametrize("dimension, entry, match", [
        (2.5, [0, 0, 1.0, 0.0], r"dimension 2\.5 is not an integer"),
        (True, [0, 0, 1.0, 0.0], r"dimension True is not an integer"),
        (2, [0.9, 0, 1.0, 0.0], r"term 0: row 0\.9 is not an integer"),
        (2, [0, False, 1.0, 0.0], r"term 0: column False is not an integer"),
    ])
    def test_rejects_non_integer_indices(self, dimension, entry, match):
        doc = {"dimension": dimension, "terms": [{"label": "x", "entries": [entry]}]}
        with pytest.raises(ValueError, match=match):
            load_term_set(doc)

    @pytest.mark.parametrize("term", [5, [], "x", {"label": "x"}, {"entries": 5}])
    def test_rejects_a_term_without_entries(self, term):
        # save_term_set writes "entries" in every term; one missing was read
        # as an all-zero term, and a term that is no object raised AttributeError.
        doc = {"dimension": 2, "terms": [{"label": "a", "entries": []}, term]}
        with pytest.raises(ValueError, match='term 1 is not an object with an "entries" list'):
            load_term_set(doc)

    @pytest.mark.parametrize("terms, match", [
        (5, "terms 5 is not a list"),
        ([{"entries": [5]}], r"term 0: entry 5 is not \[row, col, re, im\]"),
        ([{"entries": [[0, 0, 1.0]]}], r"term 0: entry \[0, 0, 1\.0\] is not \[row, col"),
    ])
    def test_rejects_misshapen_terms_and_entries(self, terms, match):
        # Each raised TypeError, or a ValueError that named no term.
        with pytest.raises(ValueError, match=match):
            load_term_set({"dimension": 2, "terms": terms})

    @pytest.mark.parametrize("value, match", [
        (("1.5", 0.0), r"term 0: entry \(1, 1\) real part '1\.5' is not a float"),
        ((1.0, True), r"term 0: entry \(1, 1\) imaginary part True is not a float"),
        ((10**400, 0.0), r"term 0: entry \(1, 1\) real part 1000+ is not a float"),
    ])
    def test_rejects_entries_that_are_not_numbers(self, value, match):
        doc = {"dimension": 2, "terms": [{"label": "x", "entries": [[1, 1, *value]]}]}
        with pytest.raises(ValueError, match=match):
            load_term_set(doc)

    def test_integral_floats_are_indices(self):
        doc = {"dimension": 2.0, "terms": [{"label": "x", "entries": [[1.0, 1, 3.0, 0.0]]}]}
        assert np.array_equal(load_term_set(doc).dense(0), np.diag([0.0, 3.0]))

    @pytest.mark.parametrize("text, key", [
        ('{"dimension": 2, "dimension": 3, "terms": []}', "dimension"),
        ('{"dimension": 2, "terms": [{"label": "a", "label": "b", "entries": []}]}', "label"),
    ])
    def test_rejects_repeated_keys(self, tmp_path, text, key):
        path = tmp_path / "terms.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"key '{key}' given twice"):
            load_term_set(path)

    @pytest.mark.parametrize("dimension, entries, match", [
        (10**8, [[0, 0, 1.0, 0.0]], f"dimension 100000000 above the site cap {MAX_SITES}"),
        # A path's two edges are no matching: the term would be a dense
        # 2^20 x 2^20 matrix.
        (MAX_SITES, [[0, 1, 1.0, 0.0], [1, 0, 1.0, 0.0], [1, 2, 1.0, 0.0], [2, 1, 1.0, 0.0]],
         f"dense term of d={MAX_SITES} exceeds the cap {MAX_DENSE_DIMENSION}"),
    ])
    def test_sizes_over_a_cap_are_refused_before_allocating(self, dimension, entries, match):
        doc = {"dimension": dimension, "terms": [{"label": "x", "entries": entries}]}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                load_term_set(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_reads_a_document_at_its_path(self, tmp_path):
        # A file that is not JSON is named in the error.
        path = tmp_path / "terms.json"
        path.write_text('{"dimension": 2, "terms": [{"entries": [[0, 0, 1.0, 0.0]]}]}')
        assert load_term_set(path).labels == ("term0",)
        path.write_text('{"dimension": 2, "terms": [')
        with pytest.raises(ValueError, match=f"{path}: Expecting value"):
            load_term_set(path)

    def test_rejects_duplicate_entries(self):
        entries = [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0], [0, 0, 5.0, 0.0]]
        doc = {"dimension": 2, "terms": [{"label": "x", "entries": entries}]}
        with pytest.raises(ValueError, match=r"term 0: duplicate entry \(0, 0\)"):
            load_term_set(doc)

    @pytest.mark.parametrize("value", [(float("nan"), 0.0), (1.0, float("inf")),
                                       (-float("inf"), 0.0)])
    def test_rejects_non_finite_entries(self, value):
        entries = [[0, 1, *value], [1, 0, 1.0, 0.0]]
        doc = {"dimension": 2, "terms": [{"label": "x", "entries": entries}]}
        with pytest.raises(ValueError, match=r"term 0: entry \(0, 1\) is non-finite"):
            load_term_set(doc)
