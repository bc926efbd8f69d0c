# Graphs, edge coloring (Koenig fast path, Misra-Gries general case), and
# the block-diagonal splitting, including the lattice generators.

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hamsearch.decompose import (
    EdgeColoring,
    InteractionGraph,
    bipartition,
    color_edges,
    decompose,
    decompose_matrix,
    graph_laplacian,
    honeycomb_lattice,
    laplacian_chain,
    load_graph,
    save_graph,
)
from hamsearch.trotter import BlockTerm, exact_term_exponential
from oracles import laplacian_matrix


def _chain(length, periodic):
    g = laplacian_chain(length, periodic=periodic)
    return laplacian_matrix(g, 2.0), g, decompose(g, graph_laplacian(g)[0], np.full(length, 2.0))


def _path_graph(n):
    return InteractionGraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def _cycle_graph(n):
    edges = [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)]
    return InteractionGraph(n, tuple(edges))


def _random_bounded_graph(rng, n, degree_cap):
    candidates = (rng.integers(0, n, 2) for _ in range(4 * n * degree_cap))
    return _bounded_graph(n, degree_cap, candidates)


def _bounded_graph(n, degree_cap, candidates):
    # Keep each candidate vertex pair that is new and leaves both degrees
    # within the cap.
    edges = set()
    degree = [0] * n
    for pair in candidates:
        u, v = (int(x) for x in pair)
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        if (u, v) in edges or degree[u] >= degree_cap or degree[v] >= degree_cap:
            continue
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    return InteractionGraph(n, tuple((u, v, 1.0) for u, v in sorted(edges)))


@st.composite
def bounded_graphs(draw):
    n = draw(st.integers(min_value=4, max_value=39))
    cap = draw(st.integers(min_value=2, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    candidates = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n * cap))
    return _bounded_graph(n, cap, candidates)


@st.composite
def sparse_hermitian_matrices(draw):
    n = draw(st.integers(min_value=3, max_value=11))
    entries = st.floats(min_value=-3.0, max_value=3.0)
    real, imag = (draw(arrays(float, (n, n), elements=entries)) for _ in range(2))
    m = real + 1j * imag
    h = m + m.conj().T
    h[np.abs(h) < 1.0] = 0.0  # sparsify
    np.fill_diagonal(h, draw(arrays(float, n, elements=entries)))
    return 0.5 * (h + h.conj().T)


def _assert_proper(graph, coloring):
    seen = set()
    for k, (u, v, _) in enumerate(graph.edges):
        for vertex in (u, v):
            assert (vertex, coloring.colors[k]) not in seen
            seen.add((vertex, coloring.colors[k]))


class TestInteractionGraph:
    def test_normalizes_and_sorts_edges(self):
        g = InteractionGraph(3, ((2, 0, 1.0), (1, 0, 2.0)))
        assert g.edges == ((0, 1, 2.0), (0, 2, 1.0))
        assert g.max_degree == 2

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            InteractionGraph(2, ((1, 1, 1.0),))

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            InteractionGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            InteractionGraph(2, ((0, 5, 1.0),))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_weights(self, weight):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) has non-finite weight"):
            InteractionGraph(3, ((0, 1, 1.0), (2, 0, weight)))


class TestColorEdges:
    def test_path_alternates_two_colors(self):
        coloring = color_edges(_path_graph(5))
        assert coloring.color_count == 2
        assert coloring.colors == (0, 1, 0, 1)

    def test_even_cycle_needs_two_colors(self):
        coloring = color_edges(_cycle_graph(8))
        assert coloring.color_count == 2
        _assert_proper(_cycle_graph(8), coloring)

    def test_odd_cycle_needs_three_colors(self):
        g = _cycle_graph(7)
        coloring = color_edges(g)
        assert coloring.color_count == 3
        _assert_proper(g, coloring)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_honeycomb_three_colors(self, periodic):
        g = honeycomb_lattice(3, 4, periodic=periodic)
        assert g.vertex_count == 24
        assert bipartition(g) is not None
        coloring = color_edges(g)
        _assert_proper(g, coloring)
        assert coloring.color_count <= g.max_degree + 1  # <= 4
        assert coloring.color_count == 3  # bipartite fast path hits max degree

    @settings(max_examples=60, deadline=None)
    @given(bounded_graphs())
    def test_random_bounded_degree_graphs(self, g):
        coloring = color_edges(g)
        _assert_proper(g, coloring)
        assert coloring.color_count <= g.max_degree + 1
        if bipartition(g) is not None:
            assert coloring.color_count == g.max_degree

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        g = _random_bounded_graph(rng, 30, 5)
        assert color_edges(g).colors == color_edges(g).colors

    def test_empty_edge_set(self):
        g = InteractionGraph(3, ())
        assert color_edges(g).color_count == 0


class TestDecompose:
    def test_ring_splits_into_even_and_odd_projector_terms(self):
        h, _, terms = _chain(8, periodic=True)
        assert len(terms) == 2
        for k in range(len(terms)):
            term = terms.dense(k)
            assert np.max(np.abs(term @ term - 2.0 * term)) < 1e-12
        assert np.max(np.abs(terms.total() - h)) < 1e-12

    def test_open_chain_leaves_boundary_diagonal_term(self):
        h, _, terms = _chain(6, periodic=False)
        assert terms.labels[-1] == "diagonal"
        diag = np.real(np.diag(terms.dense(-1)))
        assert diag[0] == 1.0 and diag[-1] == 1.0
        assert np.all(diag[1:-1] == 0.0)
        assert np.max(np.abs(terms.total() - h)) < 1e-12

    def test_diagonal_matrix_gives_single_term(self):
        h = np.diag([1.0, -2.0, 0.5]).astype(complex)
        g = InteractionGraph(3, ())
        terms = decompose_matrix(h, g)
        assert len(terms) == 1
        assert terms.labels == ("diagonal",)
        assert np.max(np.abs(terms.dense(0) - h)) == 0.0

    @pytest.mark.parametrize("periodic", [False, True])
    def test_honeycomb_three_projector_terms(self, periodic):
        g = honeycomb_lattice(3, 4, periodic=periodic)
        terms = decompose(g, *graph_laplacian(g))
        assert len(terms) == 3  # degree diagonal fully absorbed by the blocks
        for k in range(len(terms)):
            term = terms.dense(k)
            assert np.max(np.abs(term @ term - 2.0 * term)) < 1e-12
        assert np.max(np.abs(terms.total() - laplacian_matrix(g))) < 1e-12

    def test_rejects_support_mismatch(self):
        h, _, _ = _chain(4, periodic=False)
        smaller = InteractionGraph(4, ((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(ValueError, match="support"):
            decompose_matrix(h, smaller)

    def test_rejects_non_hermitian_matrix(self):
        h, g, _ = _chain(4, periodic=False)
        h[0, 1] = 2.0
        with pytest.raises(ValueError, match="not Hermitian"):
            decompose_matrix(h, g)

    def test_records_match_the_dense_adapter(self):
        # Weighted non-bipartite graph: the records built from edge values
        # equal those the dense adapter reads off the matrix, bit for bit.
        g = InteractionGraph(5, ((0, 1, 0.3), (1, 2, 1.7), (0, 2, 2.5), (2, 3, 0.1),
                                 (3, 4, 1.1), (1, 4, 0.7)))
        sparse = decompose(g, *graph_laplacian(g))
        dense = decompose_matrix(laplacian_matrix(g), g)
        assert sparse.labels == dense.labels
        for a, b in zip(sparse.terms, dense.terms):
            for field in ("pairs", "blocks", "diagonal"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_graph_laplacian_sums_weights_in_edge_order(self):
        g = InteractionGraph(3, ((0, 1, 0.1), (0, 2, -0.2), (1, 2, 0.3)))
        values, diagonal = graph_laplacian(g)
        assert values.tolist() == [-0.1, 0.2, -0.3]
        assert diagonal.tolist() == [0.1 + 0.2, 0.1 + 0.3, 0.2 + 0.3]

    def test_rejects_misaligned_values(self):
        g = laplacian_chain(4)
        with pytest.raises(ValueError, match="one value per edge"):
            decompose(g, np.ones(2), np.zeros(4))

    def test_complex_weights_give_scaled_projector_blocks(self):
        # Each edge block is 2|h| times a projector even for complex h.
        rng = np.random.default_rng(34)
        n = 6
        ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        h = np.zeros((n, n), dtype=complex)
        for u, v in ring:
            h[u, v] = rng.normal() + 1j * rng.normal()
            h[v, u] = np.conj(h[u, v])
            h[u, u] += abs(h[u, v])
            h[v, v] += abs(h[u, v])
        terms = decompose_matrix(h)
        assert np.max(np.abs(terms.total() - h)) == 0.0
        for k, term in enumerate(terms.terms):
            for u, v in term.pairs:
                block = terms.dense(k)[np.ix_([u, v], [u, v])]
                mag = abs(h[u, v])
                assert np.max(np.abs(block @ block - 2.0 * mag * block)) < 1e-14

    def test_class_two_graphs_need_the_extra_color(self):
        # Odd complete graphs and the Petersen graph have chromatic index
        # max_degree + 1; the bound still holds.
        k5 = InteractionGraph(5, tuple((i, j, 1.0) for i in range(5) for j in range(i + 1, 5)))
        coloring = color_edges(k5)
        _assert_proper(k5, coloring)
        assert coloring.color_count == 5  # max_degree + 1
        petersen = InteractionGraph(
            10,
            tuple(
                (u, v, 1.0)
                for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6),
                             (2, 7), (3, 8), (4, 9), (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
            ),
        )
        coloring = color_edges(petersen)
        _assert_proper(petersen, coloring)
        assert coloring.color_count == 4

    @settings(max_examples=60, deadline=None)
    @given(sparse_hermitian_matrices())
    @example(np.zeros((3, 3), dtype=complex))  # no edges and a zero diagonal
    def test_random_hermitian_reconstruction(self, h):
        terms = decompose_matrix(h)
        assert np.max(np.abs(terms.total() - h)) < 1e-12

    def test_block_exponential_of_color_terms_has_no_fill_in(self):
        g = honeycomb_lattice(2, 3)
        terms = decompose(g, *graph_laplacian(g))
        for term in terms.terms:
            assert isinstance(term, BlockTerm)
            u = exact_term_exponential(term, 1.3)
            mask = np.ones(u.shape, dtype=bool)
            np.fill_diagonal(mask, False)
            for i, j in term.pairs:
                mask[i, j] = mask[j, i] = False
            assert np.max(np.abs(u[mask])) < 1e-14


class TestLaplacianChain:
    def test_rejects_periodic_two_sites(self):
        with pytest.raises(ValueError, match="multigraph"):
            laplacian_chain(2, periodic=True)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            laplacian_chain(1)

    @pytest.mark.parametrize("length", [4, 8, 16, 64])
    def test_ring_spectrum_law(self, length):
        h, _, terms = _chain(length, periodic=True)
        assert np.max(np.abs(terms.total() - h)) == 0.0
        observed = np.sort(np.linalg.eigvalsh(h))
        expected = np.sort(4.0 * np.sin(np.pi * np.arange(length) / length) ** 2)
        assert np.max(np.abs(observed - expected)) < 1e-10

    def test_split_terms_have_binary_spectrum(self):
        _, _, terms = _chain(4, periodic=True)
        for k in range(len(terms)):
            values = np.linalg.eigvalsh(terms.dense(k))
            assert np.all(np.min(np.abs(values[:, None] - np.array([0.0, 2.0])), axis=1) < 1e-12)


class TestHoneycomb:
    def test_torus_is_three_regular(self):
        g = honeycomb_lattice(3, 4, periodic=True)
        degree = np.zeros(g.vertex_count, dtype=int)
        for u, v, _ in g.edges:
            degree[u] += 1
            degree[v] += 1
        assert np.all(degree == 3)

    def test_open_patch_has_degree_three_interior(self):
        g = honeycomb_lattice(3, 4, periodic=False)
        degree = np.zeros(g.vertex_count, dtype=int)
        for u, v, _ in g.edges:
            degree[u] += 1
            degree[v] += 1
        assert degree.max() == 3
        assert np.count_nonzero(degree == 3) > 0

    def test_rejects_too_small_torus(self):
        with pytest.raises(ValueError):
            honeycomb_lattice(1, 4, periodic=True)


class TestBlockPairs:
    def test_chain_parity_rule(self):
        # Edge (i, i+1) lands in color i mod 2, so "odd" blocks start at odd
        # left-vertex indices: the last bit of the label addresses the term.
        g = _path_graph(8)
        terms = decompose(g, *graph_laplacian(g))
        assert terms.labels == ("color0", "color1")
        for color, term in enumerate(terms.terms):
            for u, _ in term.pairs:
                assert u % 2 == color

    def test_single_edge(self):
        g = InteractionGraph(2, ((0, 1, 1.0),))
        terms = decompose(g, *graph_laplacian(g))
        assert len(terms) == 1
        assert terms.terms[0].pairs.tolist() == [[0, 1]]

    def test_honeycomb_vertex_appears_once_per_color(self):
        g = honeycomb_lattice(3, 4, periodic=True)
        terms = decompose(g, *graph_laplacian(g))
        per_vertex = {}
        for term in terms.terms:
            pairs = term.pairs.tolist()
            seen = set()
            for u, v in pairs:
                assert u not in seen and v not in seen
                seen.update((u, v))
                per_vertex[u] = per_vertex.get(u, 0) + 1
                per_vertex[v] = per_vertex.get(v, 0) + 1
        assert max(per_vertex.values()) <= 3


class TestGraphJson:
    def test_round_trip(self, tmp_path):
        g = honeycomb_lattice(2, 2)
        path = tmp_path / "graph.json"
        save_graph(path, g)
        assert load_graph(path) == g

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"edges": [[0, 1, 1.0]]}')
        with pytest.raises(ValueError):
            load_graph(path)

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_weights(self, tmp_path, weight):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, %s]]}' % weight)
        with pytest.raises(ValueError, match=r"edge \(1, 2\) has non-finite weight"):
            load_graph(path)


class TestEdgeColoringType:
    def test_rejects_negative_colors(self):
        with pytest.raises(ValueError):
            EdgeColoring(colors=(-1,))
