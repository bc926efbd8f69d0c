# Interaction graphs, proper edge coloring, and the block-diagonal splitting
# of sparse Hermitian matrices into one term per color class.
#
# Each color class is a matching, so its term is a direct sum of 2x2 blocks,
# stored as a trotter.BlockTerm record without any d x d array. An edge
# (u, v) with off-diagonal value h takes the block
#     [[|h|, h], [conj(h), |h|]]
# i.e. the edge's share of the diagonal; whatever remains of the matrix
# diagonal (boundary sites of open lattices, on-site potentials) goes into
# one extra diagonal term. Unit-weight Laplacian edges then give twice a
# projector: B^2 = 2B for B = [[1, -1], [-1, 1]].
#
# Coloring: bipartite graphs take a Koenig-style alternating-path pass with
# exactly max-degree colors; everything else takes Misra-Gries with at most
# max-degree + 1 colors. Edges are processed in sorted order and every
# choice takes the smallest available color, so the coloring is a pure
# function of the graph. Both passes change colors only through
# _ColorState.recolor, which flip_chain uses to swap two colors along an
# alternating path. Misra-Gries rotates the fan of u up to its first vertex
# where d is free, and that prefix is always a fan (Misra & Gries 1992): a
# c/d flip from u turns only the fan edge f_j that held d into c, and d stays
# free at f_{j-1}, with no c or d edge before it, unless the flip ends at
# f_{j-1}; then its c edge became d, c is free there, and d is free at f_k.

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .linalg import assert_hermitian
from .trotter import MAX_SITES, BlockTerm, HermitianTermSet, _number, read_document

__all__ = [
    "InteractionGraph",
    "EdgeColoring",
    "color_edges",
    "decompose",
    "decompose_matrix",
    "graph_laplacian",
    "laplacian_chain",
    "honeycomb_lattice",
    "bipartition",
    "load_graph",
]

# Largest |weight| of an edge: its block [[|w|, w], [w, |w|]] squares to
# entries of 2 w^2, which stay finite up to here.
MAX_WEIGHT = 2.0**511


def _check_edge(row, n: int) -> tuple:
    # One edge row, from a document or from Python, as (u, v, weight) with u < v, or
    # the ValueError naming its first fault: shape, endpoints, their range, weight.
    if not (isinstance(row, (list, tuple)) and len(row) == 3
            or isinstance(row, np.ndarray) and row.shape == (3,)):
        raise ValueError(f"edge {row!r} is not [u, v, weight]")
    u, v, w = row
    u, v = [_number(x, int, "edge ({}, {}) endpoint", u, v) for x in (u, v)]
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) outside vertex range")
    w = _number(w, float, "edge ({}, {}) weight", u, v)
    if u > v:
        u, v = v, u
    if not math.isfinite(w):
        raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
    if abs(w) > MAX_WEIGHT:
        raise ValueError(f"edge ({u}, {v}) weight {w!r} is past +-2^511, where its block "
                         "squares past the float range")
    return u, v, w


def _columns(rows: tuple) -> tuple:
    # (u, v, weight) arrays, u < v, of [u, v, weight] lists or tuples with integer
    # endpoints and int or float weights, or a TypeError or ValueError. A bool reads
    # as 0 or 1 in an integer column: only those rows' endpoint types are read.
    if set(map(type, rows)) - {list, tuple} or set(map(len, rows)) - {3}:
        raise TypeError("a row is not a list or tuple of three")
    cu, cv, cw = zip(*rows) if rows else ((), (), ())
    u, v = (np.array(c) if c else np.zeros(0, np.intp) for c in (cu, cv))
    if u.ndim != 1 or v.ndim != 1 or u.dtype.kind not in "iu" or v.dtype.kind not in "iu" or any(
            isinstance(x, (bool, np.bool_)) for k in np.flatnonzero((u <= 1) | (v <= 1))
            for x in rows[k][:2]):
        raise TypeError("an endpoint is not an integer")
    if set(map(type, cw)) - {int, float}:  # a bool, a str or a numpy scalar among them
        raise TypeError("a weight is not an int or a float")
    return np.minimum(u, v).astype(np.intp), np.maximum(u, v).astype(np.intp), np.array(cw, float)


@dataclass(frozen=True)
class InteractionGraph:
    """Simple undirected weighted graph; edges stored sorted with u < v, as
    (int, int, float) tuples and as read-only arrays with a CSR adjacency."""

    vertex_count: int
    edges: tuple  # of (u, v, weight)

    def __post_init__(self) -> None:
        n = int(self.vertex_count)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if n > MAX_SITES:
            raise ValueError(f"vertex count {n} above the site cap {MAX_SITES}")
        rows = tuple(self.edges)
        try:
            u, v, w = _columns(rows)
        except (TypeError, ValueError, OverflowError):
            u = None
        if u is None or not np.all((u < v) & (u >= 0) & (v < n) & (np.abs(w) <= MAX_WEIGHT)):
            # A row numpy cannot read or finds bad: the scalar check names the first.
            u, v, w = _columns([_check_edge(row, n) for row in rows])
        order = np.argsort(u * n + v)
        u, v, w = u[order], v[order], w[order]
        parallel = np.flatnonzero((u[1:] == u[:-1]) & (v[1:] == v[:-1]))
        if parallel.size:
            a, b = u[parallel[0]], v[parallel[0]]
            raise ValueError(f"parallel edges between {a} and {b} (multigraph rejected)")
        # CSR adjacency: each vertex's (other vertex, edge) pairs in vertex order.
        ends, others = np.concatenate([u, v]), np.concatenate([v, u])
        by_end = np.argsort(ends * n + others)
        start = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
        adjacency = (start, others[by_end], np.tile(np.arange(u.size), 2)[by_end])
        for a in (u, v, w, *adjacency):
            a.flags.writeable = False
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", tuple(zip(u.tolist(), v.tolist(), w.tolist())))
        object.__setattr__(self, "_arrays", ((u, v, w), adjacency))

    @property
    def max_degree(self) -> int:
        return int(np.diff(self.neighbors()[0]).max())

    def edge_arrays(self):
        """The edges as three read-only arrays: u, v and weight."""
        return self._arrays[0]

    def neighbors(self) -> tuple:
        """Read-only CSR adjacency ``(start, other, edge)``: vertex x meets the
        sorted ``other[start[x]:start[x + 1]]`` by the same slice of ``edge``."""
        return self._arrays[1]


@dataclass(frozen=True)
class EdgeColoring:
    """Color index per edge, aligned with graph.edges, and whether the
    coloring pass found the graph bipartite."""

    colors: tuple
    bipartite: bool

    def __post_init__(self) -> None:
        colors = tuple(map(int, self.colors))
        if min(colors, default=0) < 0:
            raise ValueError("colors must be nonnegative")
        object.__setattr__(self, "colors", colors)

    @property
    def color_count(self) -> int:
        """The palette size: one more than the largest color, 0 without edges."""
        return max(self.colors, default=-1) + 1


def bipartition(graph: InteractionGraph):
    """Two-coloring of the vertices by BFS, or None if an odd cycle exists."""
    start, other, _ = (a.tolist() for a in graph.neighbors())
    side = [-1] * graph.vertex_count
    for root in range(graph.vertex_count):
        if side[root] == -1:
            side[root], queue = 0, [root]
            for u in queue:  # the queue grows while it is read
                for v in other[start[u]:start[u + 1]]:
                    if side[v] == -1:
                        side[v] = 1 - side[u]
                        queue.append(v)
                    elif side[v] == side[u]:
                        return None
    return side


def _verify_proper(graph: InteractionGraph, colors) -> None:
    # The (vertex, color) keys (u0, c0), (v0, c0), (u1, c1), ... in edge order
    # must all differ; the first to repeat an earlier one is named.
    us, vs, _ = graph.edge_arrays()
    vertex, color = np.stack([us, vs], axis=1).ravel(), np.repeat(np.asarray(colors, np.int64), 2)
    again = np.ones(vertex.size, dtype=bool)
    again[np.unique(vertex + graph.vertex_count * (color - color.min(initial=0)),
                    return_index=True)[1]] = False
    if again.any():
        k = int(np.argmax(again))
        raise AssertionError(f"improper coloring: color {colors[k // 2]} repeated at vertex "
                             f"{vertex[k]}")


class _ColorState:
    """Mutable bookkeeping shared by both coloring passes."""

    def __init__(self, graph: InteractionGraph, palette: int):
        self.edges = graph.edges
        self.palette = palette
        self.colors = [-1] * len(graph.edges)
        self.by_vertex = [dict() for _ in range(graph.vertex_count)]  # color -> edge

    def smallest_free(self, vertex: int) -> int:
        for c in range(self.palette):
            if c not in self.by_vertex[vertex]:
                return c
        raise AssertionError(f"no free color at vertex {vertex} (palette {self.palette})")

    def recolor(self, edges: list, colors: list) -> None:
        """Give edges[i] colors[i]; all old colors go first, so colors may pass between edges."""
        for e in edges:
            if self.colors[e] != -1:
                u, v, _ = self.edges[e]
                del self.by_vertex[u][self.colors[e]]
                del self.by_vertex[v][self.colors[e]]
        for e, c in zip(edges, colors):
            u, v, _ = self.edges[e]
            self.colors[e] = c
            self.by_vertex[u][c] = self.by_vertex[v][c] = e

    def flip_chain(self, start: int, a: int, b: int) -> None:
        """Swap a and b along the maximal path from `start` alternating colors (a, b)."""
        chain, z, want = [], start, a
        while want in self.by_vertex[z]:
            e = self.by_vertex[z][want]
            chain.append(e)
            u, v, _ = self.edges[e]
            z = v if z == u else u
            want = b if want == a else a
        self.recolor(chain, [b if self.colors[e] == a else a for e in chain])


def _color_bipartite(graph: InteractionGraph) -> list:
    # Koenig: max-degree colors suffice. With no color free at both ends, flip
    # u's smallest free color c with v's along the alternating chain from v;
    # in a bipartite graph it cannot reach u, so the flip frees c at v.
    state = _ColorState(graph, max(1, graph.max_degree))
    for k, (u, v, _) in enumerate(graph.edges):
        shared = [c for c in range(state.palette)
                  if c not in state.by_vertex[u] and c not in state.by_vertex[v]]
        if shared:
            c = shared[0]
        else:
            c = state.smallest_free(u)
            state.flip_chain(v, c, state.smallest_free(v))
        state.colors[k] = c
        state.by_vertex[u][c] = state.by_vertex[v][c] = k
    return state.colors


def _color_misra_gries(graph: InteractionGraph) -> list:
    state = _ColorState(graph, graph.max_degree + 1)
    start, other, edge = (a.tolist() for a in graph.neighbors())

    for k, (u, v, _) in enumerate(graph.edges):
        # Maximal fan of u anchored at v, as (vertex, edge) pairs: the color
        # of each added edge is free at the previous fan vertex.
        fan = [(v, k)]
        in_fan = {v}
        around = list(zip(other[start[u]:start[u + 1]], edge[start[u]:start[u + 1]]))
        grown = True
        while grown:
            grown = False
            for y, e in around:
                if y in in_fan or state.colors[e] == -1:
                    continue
                if state.colors[e] not in state.by_vertex[fan[-1][0]]:
                    fan.append((y, e))
                    in_fan.add(y)
                    grown = True
                    break
        c = state.smallest_free(u)
        d = state.smallest_free(fan[-1][0])
        if d in state.by_vertex[u]:
            # Flip the maximal dc-path from u; afterwards d is free at u (the
            # path cannot loop back, c being free at u).
            state.flip_chain(u, d, c)
        # Rotate the fan up to its first vertex where d is free: each edge
        # takes the next one's color and the last takes d.
        w = 0
        while d in state.by_vertex[fan[w][0]]:
            w += 1
        edges = [e for _, e in fan[:w + 1]]
        state.recolor(edges, [state.colors[e] for e in edges[1:]] + [d])
    return state.colors


def color_edges(graph: InteractionGraph) -> EdgeColoring:
    """Proper edge coloring: max-degree colors on bipartite graphs,
    at most max-degree + 1 (Misra-Gries) otherwise."""
    bipartite = bipartition(graph) is not None
    colors = _color_bipartite(graph) if bipartite else _color_misra_gries(graph)
    _verify_proper(graph, colors)
    return EdgeColoring(colors=tuple(colors), bipartite=bipartite)


def graph_laplacian(graph: InteractionGraph):
    """The weighted graph Laplacian as ``(values, diagonal)``: ``values[k]
    = -w`` is its (u, v) entry on edge k, and each diagonal entry sums |w|
    over the vertex's edges."""
    us, vs, w = graph.edge_arrays()
    degree = np.zeros(graph.vertex_count)
    # Edges are sorted, so a vertex meets its edges (u, x) before its edges
    # (x, v); adding in that order keeps the sums of a pass over the edges.
    np.add.at(degree, vs, np.abs(w))
    np.add.at(degree, us, np.abs(w))
    return (-w).astype(complex), degree


def decompose(
    graph: InteractionGraph,
    values,
    diagonal,
    coloring: EdgeColoring | None = None,
) -> HermitianTermSet:
    """Split a sparse Hermitian matrix into block-diagonal color terms.

    The matrix is given by ``values[k]``, its (u, v) entry on edge k of
    ``graph.edges``, and its real ``diagonal``. Each edge contributes
    [[|h|, h], [conj(h), |h|]] to its color's term; the residual diagonal,
    if any, becomes one extra term labeled "diagonal" (so does the zero
    diagonal of a graph without edges). The terms sum to the matrix: exactly
    off the diagonal, and to round-off on it.
    """
    n = graph.vertex_count
    values = np.asarray(values, dtype=complex)
    residual = np.array(diagonal, dtype=float)
    if values.shape != (len(graph.edges),) or residual.shape != (n,):
        raise ValueError(f"need one value per edge and a diagonal of {n} vertices")
    if coloring is None:
        coloring = color_edges(graph)
    if len(coloring.colors) != len(graph.edges):
        raise ValueError("coloring does not match the graph's edge list")

    us, vs, _ = graph.edge_arrays()
    colors = np.array(coloring.colors, dtype=np.intp)
    terms, labels = [], []
    for color in range(coloring.color_count):
        k = np.flatnonzero(colors == color)
        val = values[k]
        mag = np.hypot(val.real, val.imag)  # abs() bit for bit; np.abs may differ
        blocks = np.stack([mag, val, val.conj(), mag], axis=1)
        # A color is a matching, so these subtract once per vertex, in the
        # same order as a pass over the colors and their edges.
        residual[us[k]] -= mag
        residual[vs[k]] -= mag
        terms.append(BlockTerm(np.stack([us[k], vs[k]], axis=1), blocks, np.zeros(n)))
        labels.append(f"color{color}")
    if np.any(residual != 0.0) or not terms:
        terms.append(BlockTerm((), (), residual))
        labels.append("diagonal")
    return HermitianTermSet(dimension=n, terms=tuple(terms), labels=tuple(labels))


def decompose_matrix(h: np.ndarray, graph: InteractionGraph | None = None) -> HermitianTermSet:
    """``decompose`` for a dense Hermitian matrix. Its off-diagonal support
    must lie on the graph's edges; without a graph, the support is the graph."""
    h = np.asarray(h, dtype=complex)
    n = len(h) if graph is None else graph.vertex_count
    if h.shape != (n, n):
        raise ValueError(f"matrix shape {h.shape} does not match {n} vertices")
    assert_hermitian(h, what="input matrix")
    rows, cols = np.nonzero(np.triu(h, 1))
    if graph is None:
        weights = np.abs(h[rows, cols]).tolist()
        graph = InteractionGraph(n, tuple(zip(rows.tolist(), cols.tolist(), weights)))
    us, vs, _ = graph.edge_arrays()
    missing = np.setdiff1d(rows * n + cols, us * n + vs)
    if missing.size:
        r, c = divmod(int(missing[0]), n)
        raise ValueError(f"off-diagonal support at ({r}, {c}) has no matching edge")
    return decompose(graph, h[us, vs], np.real(np.diag(h)))


def laplacian_chain(length: int, periodic: bool = False):
    """The 1D lattice Laplacian as the ``(graph, values, diagonal)`` that
    ``decompose`` takes: ``graph_laplacian``'s values and 2 on every site.

    Periodic rings have eigenvalues 4 sin^2(pi j / L). A periodic 2-site
    chain would need a double edge and is rejected.
    """
    if length < 2:
        raise ValueError("chain needs at least 2 sites")
    if periodic and length == 2:
        raise ValueError("periodic 2-site chain is a multigraph")
    if length > MAX_SITES:
        raise ValueError(f"chain length {length} above the site cap {MAX_SITES}")
    edges = tuple(zip(range(length - 1), range(1, length), repeat(1.0)))
    graph = InteractionGraph(length, edges + ((0, length - 1, 1.0),) * periodic)
    return graph, graph_laplacian(graph)[0], np.full(length, 2.0)


def honeycomb_lattice(cells_x: int, cells_y: int, periodic: bool = False) -> InteractionGraph:
    """Graph of a honeycomb patch; ``graph_laplacian`` gives its Laplacian.

    Two sites per unit cell, 2 * cells_x * cells_y sites total; interior
    sites have degree 3. With ``periodic`` the patch closes into a torus and
    every site has degree 3 (needs at least 2 cells per direction to stay a
    simple graph). The lattice is bipartite either way.
    """
    if cells_x < 1 or cells_y < 1:
        raise ValueError("need at least one cell per direction")
    if periodic and (cells_x < 2 or cells_y < 2):
        raise ValueError("periodic honeycomb needs >= 2 cells per direction")
    if 2 * cells_x * cells_y > MAX_SITES:
        raise ValueError(f"honeycomb of {cells_x} x {cells_y} cells has {2 * cells_x * cells_y} "
                         f"sites, above the site cap {MAX_SITES}")

    # Site (x, y, s) is 2 (x cells_y + y) + s; the A site of each cell bonds
    # to the B sites of its own cell and of the cells at x - 1 and y - 1.
    a = 2 * np.arange(cells_x * cells_y).reshape(cells_x, cells_y)
    cut = slice(0 if periodic else 1, None)  # an open patch has no bond across its edge
    us = np.concatenate([a.ravel(), a[cut].ravel(), a[:, cut].ravel()])
    vs = np.concatenate([(a + 1).ravel(), np.roll(a + 1, 1, axis=0)[cut].ravel(),
                         np.roll(a + 1, 1, axis=1)[:, cut].ravel()])
    edges = tuple(zip(us.tolist(), vs.tolist(), repeat(1.0)))
    return InteractionGraph(2 * cells_x * cells_y, edges)


def load_graph(path) -> InteractionGraph:
    """The graph of a {"vertices": V, "edges": [[u, v, weight]]} document."""
    return InteractionGraph(*read_document(path, "vertices", "edges"))
