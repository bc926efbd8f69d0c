# Graphs, edge coloring (Koenig fast path, Misra-Gries general case), and
# the block-diagonal splitting, including the lattice generators.

import json
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hamsearch.decompose import (
    MAX_WEIGHT,
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
)
from hamsearch.decompose import _verify_proper
from hamsearch.trotter import MAX_SITES, BlockTerm, exact_term_exponential
from oracles import (
    laplacian_matrix,
    per_color_terms,
    save_graph,
    scalar_adjacency,
    scalar_bipartition,
    scalar_coloring,
    scalar_graph,
    scalar_verify_proper,
    seeds,
)


def _chain(length, periodic):
    g, values, diagonal = laplacian_chain(length, periodic=periodic)
    return laplacian_matrix(g, 2.0), g, decompose(g, values, diagonal)


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


# Rows an edge list may hold besides valid ones, each at a drawn position.
FAULTS = ("self-loop", "outside", "non-integral", "non-finite", "past 2^511", "parallel",
          "misshapen")


@st.composite
def edge_lists(draw, faults=True, numpy=True):
    # (vertex count, rows): up to 60 distinct pairs on up to 40 vertices, in
    # either order, with weights up to the +-2^511 bound, then up to two rows
    # from FAULTS; with numpy, sometimes as numpy scalars of the same kinds.
    # A misshapen row is a list or no sequence at all, so its repr is the
    # same in Python and in a JSON document.
    n = draw(st.integers(min_value=1, max_value=40))
    vertex = st.integers(min_value=0, max_value=n - 1)
    weight = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, MAX_WEIGHT, -MAX_WEIGHT]))
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, unique_by=frozenset, max_size=60)) if n > 1 else []
    rows = [(u, v, draw(weight)) for u, v in pairs]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)) if faults else ():
        u, v = draw(vertex), draw(vertex)
        if fault == "self-loop":
            row = (u, u, draw(weight))
        elif fault == "outside":
            far = draw(st.sampled_from([-1, n, n + 7, -(2**40)]))
            row = draw(st.sampled_from([(u, far), (far, u)])) + (draw(weight),)
        elif fault == "non-integral":  # 2.0 is an integer endpoint; 1.5 and True are not
            odd = draw(st.sampled_from([float(u), u + 0.5, True, False]))
            row = draw(st.sampled_from([(odd, v), (v, odd)])) + (draw(weight),)
        elif fault == "non-finite":
            row = (u, v, draw(st.sampled_from([float("nan"), float("inf"), -float("inf")])))
        elif fault == "past 2^511":
            row = (u, v, draw(st.sampled_from([2.0**512, -1e300, 1e155,
                                               np.nextafter(MAX_WEIGHT, np.inf)])))
        elif fault == "misshapen":
            row = draw(st.sampled_from([[u, v], [u, v, 1.0, 0.0], u, None, "uvw", {"u": u}]))
        elif any(isinstance(r, tuple) for r in rows):  # parallel: an earlier pair again
            a, b, _ = draw(st.sampled_from([r for r in rows if isinstance(r, tuple)]))
            row = draw(st.sampled_from([(a, b), (b, a)])) + (draw(weight),)
        else:
            continue
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    if numpy and draw(st.booleans()):
        rows = [tuple(np.asarray(x)[()] for x in row) if isinstance(row, tuple) else row
                for row in rows]
    return n, tuple(rows)


@st.composite
def coloring_graphs(draw):
    # Graphs of up to 48 vertices in up to four components (vertex x is in
    # component x mod k), each vertex of degree up to 8, some vertices isolated;
    # for half of them, only edges across two drawn sides are kept, so the graph
    # is bipartite. numpy draws them, from a seed that hypothesis picks.
    rng = np.random.default_rng(draw(seeds))
    n, parts, cap = (int(rng.integers(1, top + 1)) for top in (48, 4, 8))
    across, side = rng.random() < 0.5, rng.integers(0, 2, n)
    candidates = [(u, v) for u, v in rng.integers(0, n, (rng.integers(n, 8 * n + 1), 2)).tolist()
                  if (u - v) % parts == 0 and not (across and side[u] == side[v])]
    return _bounded_graph(n, cap, candidates)


class _OneColorShort(InteractionGraph):
    # A graph whose coloring passes get one color fewer than they need.
    @property
    def max_degree(self):
        return super().max_degree - 1


def _coloring_outcome(color):
    try:
        return list(color())
    except AssertionError as exc:
        return str(exc)


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

    @pytest.mark.parametrize("rows, match", [
        (((0, 1.7, 1.0), (True, 2, 1.0)), r"edge \(0, 1.7\) endpoint 1.7 is not an integer"),
        (((0, 1, 1.0), (True, 2, 1.0)), r"edge \(True, 2\) endpoint True is not an integer"),
        (((0, 1, 1.0), (2, np.False_, 1.0)), r"edge \(2, False\) endpoint np.False_ is not"),
        (((np.int64(2), np.float64(0.5), 1.0),), r"edge \(2, 0.5\) endpoint np.float64\(0.5\)")])
    def test_rejects_non_integral_and_boolean_endpoints(self, rows, match):
        # A bool or a fraction used to be read as the integer it truncates to.
        with pytest.raises(ValueError, match=match):
            InteractionGraph(3, rows)

    @pytest.mark.parametrize("rows, match", [
        (((0, 1, True), (1, 2, "2.5")), r"edge \(0, 1\) weight True is not a float"),
        (((0, 1, 1.0), (2, 1, "2.5")), r"edge \(2, 1\) weight '2.5' is not a float"),
        (((0, 1, np.True_),), r"edge \(0, 1\) weight np.True_ is not a float"),
        (((0, 1, None),), r"edge \(0, 1\) weight None is not a float"),
        (((0, 1, 10**400),), r"edge \(0, 1\) weight 1000+ is not a float")])
    def test_rejects_weights_that_are_not_numbers(self, rows, match):
        # As a graph document reads them: float() read True as 1.0 and "2.5" as 2.5.
        with pytest.raises(ValueError, match=match):
            InteractionGraph(3, rows)

    def test_numeric_weights_of_every_kind_read_as_floats(self):
        rows = ((0, 1, 2), (1, 2, np.float32(0.5)), (0, 2, np.int64(-3)))
        assert InteractionGraph(3, rows).edges == ((0, 1, 2.0), (0, 2, -3.0), (1, 2, 0.5))

    def test_integral_float_endpoints_are_integers(self):
        assert InteractionGraph(3, ((2.0, np.float64(0.0), 1.0),)).edges == ((0, 2, 1.0),)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_weights(self, weight):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) has non-finite weight"):
            InteractionGraph(3, ((0, 1, 1.0), (2, 0, weight)))

    @pytest.mark.parametrize("weight", [1e154, -1e308, np.nextafter(MAX_WEIGHT, np.inf)])
    def test_rejects_weights_whose_blocks_square_past_the_float_range(self, weight):
        # A block's square holds 2 w^2: finite up to |w| = 2^511.
        with pytest.raises(ValueError, match=r"edge \(0, 2\) weight .* past \+-2\^511"):
            InteractionGraph(3, ((0, 1, 1.0), (2, 0, weight)))

    def test_weights_at_the_bound_square_to_finite_blocks(self):
        g = InteractionGraph(3, ((0, 1, MAX_WEIGHT), (1, 2, -MAX_WEIGHT)))
        for term in decompose(g, *graph_laplacian(g)).terms:
            assert np.all(np.isfinite(term.blocks @ term.blocks))


class TestScalarReference:
    # The array graph layer against the scalar loops it replaced (oracles).
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    @example((1, ()))
    @example((3, ((0, 1, 1.0), (1, 3, 1.0), (2, 2, 1.0))))
    @example((3, ((0, 1, 1.0), (0, 2**70, 1.0))))  # past the int64 range numpy reads
    @example((3, ((0, 1.7, 1.0), (True, 2, 1.0))))
    def test_graphs_match_the_scalar_reference(self, case):
        n, rows = case
        try:
            edges, max_degree = scalar_graph(n, rows)
        except ValueError as exc:
            event(re.sub(r"-?[\d.]+|\(.*?\)", "_", str(exc))[:28])  # --hypothesis-show-statistics
            with pytest.raises(ValueError) as raised:
                InteractionGraph(n, rows)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
            return
        event("a graph")
        g = InteractionGraph(n, rows)
        assert repr(g.edges) == repr(edges)
        assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in g.edges)
        assert g.max_degree == max_degree
        assert list(zip(*(a.tolist() for a in g.edge_arrays()))) == list(g.edges)
        start, other, edge = g.neighbors()
        adj = scalar_adjacency(n, g.edges)
        for x in range(n):
            here = slice(start[x], start[x + 1])
            assert list(zip(other[here].tolist(), edge[here].tolist())) == adj[x]
        assert bipartition(g) == scalar_bipartition(n, g.edges)

    @settings(max_examples=150, deadline=None)
    @given(edge_lists(faults=False), st.data())
    def test_a_clash_is_named_as_the_scalar_check_names_it(self, case, data):
        g = InteractionGraph(*case)
        colors = list(color_edges(g).colors)
        _verify_proper(g, colors)
        touching = [(k, j) for k, e in enumerate(g.edges) for j, f in enumerate(g.edges)
                    if j != k and set(e[:2]) & set(f[:2])]
        assume(touching)
        k, j = data.draw(st.sampled_from(touching))
        colors[k] = colors[j]
        with pytest.raises(AssertionError) as expected:
            scalar_verify_proper(g.edges, colors)
        with pytest.raises(AssertionError, match="improper coloring") as raised:
            _verify_proper(g, colors)
        assert str(raised.value) == str(expected.value)

    def test_arrays_are_read_only_and_built_once(self):
        g = honeycomb_lattice(2, 3)
        assert g.edge_arrays() is g.edge_arrays() and g.neighbors() is g.neighbors()
        for a in (*g.edge_arrays(), *g.neighbors()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestColoringOracle:
    # The bit-mask passes against the dict-per-vertex passes (oracles).
    @settings(max_examples=300, deadline=None)
    @given(coloring_graphs())
    def test_colors_match_the_dict_passes(self, g):
        event("bipartite" if bipartition(g) is not None else "odd cycle")
        event("several components" if len(set(_components(g))) > 1 else "one component")
        assert list(color_edges(g).colors) == scalar_coloring(g.vertex_count, g.edges)

    @settings(max_examples=300, deadline=None)
    @given(coloring_graphs())
    def test_a_palette_that_runs_out_fails_as_the_dict_passes_do(self, g):
        short = _OneColorShort.from_arrays(g.vertex_count, *g.edge_arrays())
        ours = _coloring_outcome(lambda: color_edges(short).colors)
        event("ran out" if isinstance(ours, str) else "colored")
        assert ours == _coloring_outcome(lambda: scalar_coloring(g.vertex_count, g.edges, 1))

    @pytest.mark.parametrize("extra", [(), ((1, 2, 1.0),)])  # a triangle takes Misra-Gries
    def test_a_star_colors_in_memory_linear_in_its_edges(self, extra):
        # A slot list of vertex count x palette would take a 1000-leaf star's
        # 1001 x 1001 x 8 bytes (8 MB); a bit mask per vertex is as wide as its
        # highest color, so the leaves' masks hold about 1000^2 / 16 bytes.
        g = InteractionGraph(1001, tuple((0, leaf, 1.0) for leaf in range(1, 1001)) + extra)
        tracemalloc.start()
        try:
            colors = color_edges(g).colors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert list(colors) == scalar_coloring(g.vertex_count, g.edges)


def _components(g):
    # A component label per vertex: the smallest vertex it reaches.
    label = list(range(g.vertex_count))
    for _ in range(g.vertex_count):
        for u, v, _ in g.edges:
            label[u] = label[v] = min(label[u], label[v])
    return label


class TestArrayConstructor:
    # InteractionGraph.from_arrays against the tuple form on the arrays' own rows.
    @settings(max_examples=300, deadline=None)
    @given(edge_lists(), st.data())
    @example((3, ((0, 1, 1.0), (0, 2**70, 1.0))), None)  # an object column
    @example((3, ((True, 2, 1.0),)), None)  # numpy reads the bool as the integer 1
    def test_arrays_build_the_graph_their_rows_build(self, case, data):
        n, rows = case
        rows = [row for row in rows if isinstance(row, tuple)]
        columns = [np.array(c) for c in zip(*rows)] or [np.zeros(0, int)] * 3
        if data is not None and columns[0].dtype == np.int64 and columns[1].dtype == np.int64:
            kind = data.draw(st.sampled_from([np.int64, np.int32, np.int16, np.uint64]))
            if all(np.array_equal(c.astype(kind).astype(np.int64), c) for c in columns[:2]):
                columns[:2] = [c.astype(kind) for c in columns[:2]]
        rows = tuple(zip(*(c.tolist() for c in columns)))
        event("columns of kinds " + "".join(c.dtype.kind for c in columns))
        try:
            expected = InteractionGraph(n, rows)
        except ValueError as exc:
            event(re.sub(r"-?[\d.]+|\(.*?\)", "_", str(exc))[:28])
            with pytest.raises(ValueError) as raised:
                InteractionGraph.from_arrays(n, *columns)
            assert str(raised.value) == str(exc)
            return
        event("a graph")
        g = InteractionGraph.from_arrays(n, *columns)
        assert g == expected and repr(g.edges) == repr(expected.edges)
        assert g.max_degree == expected.max_degree
        for ours, theirs in zip((*g.edge_arrays(), *g.neighbors()),
                                (*expected.edge_arrays(), *expected.neighbors())):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    @pytest.mark.parametrize("columns", [
        ([0, 1], [1, 2], [1.0]),
        ([[0, 1]], [[1, 2]], [[1.0, 1.0]]),
        (0, 1, 1.0),
    ])
    def test_columns_must_be_one_dimensional_and_of_one_length(self, columns):
        with pytest.raises(ValueError, match="must be 1-D and of one length"):
            InteractionGraph.from_arrays(3, *columns)

    def test_the_generators_build_their_edge_tuples_only_when_read(self):
        g = honeycomb_lattice(3, 4, periodic=True)
        assert "edges" not in vars(g)
        assert InteractionGraph(g.vertex_count, g.edges) == g and "edges" in vars(g)
        chain, _, _ = laplacian_chain(6, periodic=True)
        assert chain.edges == tuple(sorted([(i, i + 1, 1.0) for i in range(5)] + [(0, 5, 1.0)]))


class TestSiteCap:
    # Each size is refused before any per-site list is built.
    @pytest.mark.parametrize("build, match", [
        (lambda: laplacian_chain(MAX_SITES + 1), f"chain length {MAX_SITES + 1} above"),
        (lambda: laplacian_chain(10**9, periodic=True), "chain length 1000000000 above"),
        (lambda: honeycomb_lattice(1024, 513), "honeycomb of 1024 x 513 cells has 1050624 sites"),
        (lambda: honeycomb_lattice(10**5, 10**5, periodic=True), "has 20000000000 sites"),
        (lambda: InteractionGraph(MAX_SITES + 1, ((0, 1, 1.0),)), f"vertex count {MAX_SITES + 1}"),
    ])
    def test_sizes_over_the_cap_are_refused_before_allocating(self, build, match):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match + f".*site cap {MAX_SITES}"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_graph_at_the_cap_is_allowed(self):
        assert InteractionGraph(MAX_SITES, ()).vertex_count == MAX_SITES


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
        assert coloring.bipartite is (bipartition(g) is not None)
        if bipartition(g) is not None:
            assert coloring.color_count == g.max_degree

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_deterministic(self, seed):
        g = _random_bounded_graph(np.random.default_rng(seed), 30, 5)
        assert color_edges(g).colors == color_edges(g).colors

    def test_empty_edge_set(self):
        g = InteractionGraph(3, ())
        assert color_edges(g).color_count == 0

    def test_a_hub_with_an_odd_cycle_colors_without_rescanning_its_fan(self):
        # Misra-Gries builds a fan of up to all the hub's colored edges for each
        # new edge; a fan loop that rescans the hub per step is cubic in its
        # degree, and took about 40 s on this graph on a 2-vCPU VM.
        g = InteractionGraph(2001, tuple((0, leaf, 1.0) for leaf in range(1, 2001)) + ((1, 2, 1.0),))
        coloring = color_edges(g)
        _assert_proper(g, coloring)
        assert not coloring.bipartite and coloring.color_count <= g.max_degree + 1

    def test_a_hub_without_an_odd_cycle_colors_without_scanning_the_palette(self):
        # Koenig looks for the smallest color free at both ends of each edge; a
        # scan over the palette per edge is quadratic in the hub's degree, and
        # took about 17 s on this graph on a 2-vCPU VM.
        leaves = np.arange(1, 20001)
        g = InteractionGraph.from_arrays(20001, np.zeros_like(leaves), leaves, np.ones(leaves.size))
        start = time.perf_counter()
        coloring = color_edges(g)
        elapsed = time.perf_counter() - start
        assert coloring.bipartite and coloring.colors == tuple(range(20000))
        assert elapsed < 2.0


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

    @settings(max_examples=60, deadline=None)
    @given(coloring_graphs(), seeds)
    def test_terms_are_the_per_color_pass_bit_for_bit(self, g, seed):
        # Complex edge values (some zero) with a drawn diagonal, or the Laplacian.
        rng = np.random.default_rng(seed)
        m, coloring = g.edge_arrays()[0].size, color_edges(g)
        values = (rng.normal(size=m) + 1j * rng.normal(size=m)) * (rng.random(m) < 0.8)
        diagonal = 3.0 * rng.normal(size=g.vertex_count)
        if rng.random() < 0.5:
            values, diagonal = graph_laplacian(g)
        got = decompose(g, values, diagonal, coloring)
        want = per_color_terms(g, values, diagonal, coloring)
        assert got.labels == want.labels
        for a, b in zip(got.terms, want.terms):
            for x, y in zip((a.pairs, a.blocks, a.sites, a.values),
                            (b.pairs, b.blocks, b.sites, b.values)):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()

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
            for field in ("pairs", "blocks", "sites", "values"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_graph_laplacian_sums_weights_in_edge_order(self):
        g = InteractionGraph(3, ((0, 1, 0.1), (0, 2, -0.2), (1, 2, 0.3)))
        values, diagonal = graph_laplacian(g)
        assert values.tolist() == [-0.1, 0.2, -0.3]
        assert diagonal.tolist() == [0.1 + 0.2, 0.1 + 0.3, 0.2 + 0.3]

    def test_rejects_misaligned_values(self):
        g, _, _ = laplacian_chain(4)
        with pytest.raises(ValueError, match="one value per edge"):
            decompose(g, np.ones(2), np.zeros(4))

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_complex_weights_give_scaled_projector_blocks(self, seed):
        # Each edge block is 2|h| times a projector even for complex h.
        rng = np.random.default_rng(seed)
        n = 6
        ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        h = np.zeros((n, n), dtype=complex)
        for u, v in ring:
            h[u, v] = rng.normal() + 1j * rng.normal()
            h[v, u] = np.conj(h[u, v])
            h[u, u] += abs(h[u, v])
            h[v, v] += abs(h[u, v])
        terms = decompose_matrix(h)
        # The diagonal residual d - |h1| - |h2| and the sum of the terms
        # each round: a few ulps of the largest entry.
        assert np.max(np.abs(terms.total() - h)) <= 4 * np.finfo(float).eps * np.max(np.abs(h))
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

    @pytest.mark.parametrize("length, periodic", [(2, False), (5, False), (8, True), (9, True)])
    def test_returns_the_laplacian(self, length, periodic):
        # Edge values -1 and a diagonal of 2 on every site, the open ends too.
        g, values, diagonal = laplacian_chain(length, periodic=periodic)
        assert len(g.edges) == length - 1 + periodic
        assert values.tolist() == [-1.0] * len(g.edges)
        assert diagonal.tolist() == [2.0] * length
        assert np.array_equal(decompose(g, values, diagonal).total(), laplacian_matrix(g, 2.0))

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

    @pytest.mark.parametrize("edges, match", [
        ("[5]", r"edge 5 is not \[u, v, weight\]"),
        ("[[0, 1]]", r"edge \[0, 1\] is not \[u, v, weight\]"),
        ('[[0, 1, 1.0, 2.0]]', r"edge \[0, 1, 1\.0, 2\.0\] is not"),
        ('[{"u": 0}]', r"edge \{'u': 0\} is not"),
        ("5", "edges 5 is not a list"),
        ((5,), r"edge 5 is not \[u, v, weight\]"),
        ((None,), r"edge None is not \[u, v, weight\]"),
        (((0, 1),), r"edge \(0, 1\) is not \[u, v, weight\]"),
        (((0, 1, 1.0, 2.0),), r"edge \(0, 1, 1\.0, 2\.0\) is not \[u, v, weight\]"),
        ((range(1, 4),), r"edge range\(1, 4\) is not \[u, v, weight\]"),  # numpy reads it
    ])
    def test_rejects_misshapen_edges(self, tmp_path, edges, match):
        # A string is a document's edge list, read by load_graph; a tuple holds
        # Python rows for InteractionGraph. Both reach the one edge checker.
        # Each was read as an edge, or raised a TypeError or an unpacking
        # ValueError that named no edge.
        if isinstance(edges, tuple):
            with pytest.raises(ValueError, match=match):
                InteractionGraph(3, edges)
            return
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": 3, "edges": %s}' % edges)
        with pytest.raises(ValueError, match=match):
            load_graph(path)

    @settings(max_examples=200, deadline=None)
    @given(edge_lists(numpy=False))
    @example((3, ((0, 7, 1.0), (0, 1.5, 1.0))))  # the first bad row is named
    @example((3, (([0, 1], [1, 2], 1.0),)))  # endpoints numpy reads as a 2-D array
    def test_a_document_reads_as_its_rows_do(self, tmp_path_factory, case):
        # The rows written as a JSON document give load_graph the graph, or the
        # message, that InteractionGraph gives on the rows themselves.
        n, rows = case
        path = tmp_path_factory.mktemp("graph") / "graph.json"
        path.write_text(json.dumps({"vertices": n, "edges": rows}))
        try:
            g = InteractionGraph(n, rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                load_graph(path)
            assert str(raised.value) == str(exc)
            return
        assert repr(load_graph(path).edges) == repr(g.edges)

    def test_array_rows_read_as_tuples_do(self):
        g = InteractionGraph(3, (np.array([2, 0, 1.5]), np.array([1, 2, -1])))
        assert g.edges == ((0, 2, 1.5), (1, 2, -1.0))

    def test_integer_weights_read_as_floats(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"vertices": 3, "edges": [[0, 1, 2], [1, 2, 1.0]]}')
        assert load_graph(path).edges == ((0, 1, 2.0), (1, 2, 1.0))

    def test_a_declared_vertex_count_over_the_cap_is_named(self, tmp_path):
        # This 40-byte document used to be killed for memory: neighbors()
        # built a list for each of its 10^8 vertices.
        path = tmp_path / "big.json"
        path.write_text('{"vertices":100000000,"edges":[[0,1,1]]}')
        match = f"vertex count 100000000 above the site cap {MAX_SITES}"
        with pytest.raises(ValueError, match=match):
            load_graph(path)


class TestEdgeColoringType:
    def test_rejects_negative_colors(self):
        with pytest.raises(ValueError):
            EdgeColoring(colors=(-1,), bipartite=False)
