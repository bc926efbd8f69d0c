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
# function of the graph. Both passes swap two colors along an alternating
# path with _ColorState.flip_chain. Misra-Gries rotates the fan of u up to
# its first vertex where d is free, and that prefix is always a fan (Misra &
# Gries 1992): a c/d flip from u turns only the fan edge f_j that held d into
# c, and d stays free at f_{j-1}, with no c or d edge before it, unless the
# flip ends at f_{j-1}; then its c edge became d, c is free there, and d is
# free at f_k.

from __future__ import annotations

import math

import numpy as np

from . import _Record
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
    # The (u, v, weight) columns numpy reads from [u, v, weight] lists or tuples with
    # integer endpoints and int or float weights, or a TypeError or ValueError. A bool
    # reads as 0 or 1 in an integer column: only those rows' endpoint types are read.
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
    return u, v, np.array(cw, float)


class InteractionGraph(_Record):
    """Simple undirected weighted graph, held as read-only (u, v, weight) arrays
    sorted with u < v and a CSR adjacency; ``edges`` holds the same edges as
    (int, int, float) tuples, built when first read."""

    _fields = ("vertex_count", "edges")  # edges: (u, v, weight) tuples

    def __init__(self, vertex_count: int, edges: tuple) -> None:
        rows = tuple(edges)
        try:
            columns = _columns(rows)
        except (TypeError, ValueError, OverflowError):
            columns = None
        self._hold(vertex_count, columns, lambda: rows)

    @classmethod
    def from_arrays(cls, vertex_count: int, u, v, weight) -> InteractionGraph:
        """The graph of the edges (u[k], v[k], weight[k]): the tuple form's
        checks and messages on those rows, without building them."""
        columns = [np.asarray(a) for a in (u, v, weight)]
        if len({a.shape for a in columns}) > 1 or columns[0].ndim != 1:
            raise ValueError("edge arrays u, v and weight must be 1-D and of one length")
        graph = object.__new__(cls)
        graph._hold(vertex_count, columns, lambda: zip(*(a.tolist() for a in columns)))
        return graph

    def _hold(self, n: int, columns, rows) -> None:
        # Check, sort and hold the edges with their CSR. One mask checks integer
        # columns; when they are not (or None) or the mask finds a bad edge, each
        # of rows() goes through _check_edge in order, so the first bad row is named.
        n = int(n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if n > MAX_SITES:
            raise ValueError(f"vertex count {n} above the site cap {MAX_SITES}")
        readable = columns is not None and all(
            a.dtype.kind in kinds for a, kinds in zip(columns, ("iu", "iu", "iuf")))
        if readable:
            a, b = (c.astype(np.intp) for c in columns[:2])  # past int64 wraps negative
            u, v, w = np.minimum(a, b), np.maximum(a, b), columns[2].astype(float)
        if not readable or not np.all((u < v) & (u >= 0) & (v < n) & (np.abs(w) <= MAX_WEIGHT)):
            u, v, w = _columns([_check_edge(row, n) for row in rows()])
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
        object.__setattr__(self, "_arrays", ((u, v, w), adjacency))

    def __getattr__(self, name: str):  # edges, built the first time it is read
        if name != "edges":
            raise AttributeError(name)
        object.__setattr__(self, "edges", tuple(zip(*(a.tolist() for a in self.edge_arrays()))))
        return self.edges

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


class EdgeColoring(_Record):
    """Color index per edge, aligned with graph.edges, and whether the
    coloring pass found the graph bipartite."""

    _fields = ("colors", "bipartite")

    def __init__(self, colors: tuple, bipartite: bool) -> None:
        colors = tuple(map(int, colors))
        if min(colors, default=0) < 0:
            raise ValueError("colors must be nonnegative")
        self._set(colors, bipartite)

    @property
    def color_count(self) -> int:
        """The palette size: one more than the largest color, 0 without edges."""
        return max(self.colors, default=-1) + 1


def bipartition(graph: InteractionGraph):
    """Two-coloring of the vertices by BFS, or None if an odd cycle exists."""
    start, other = (a.tolist() for a in graph.neighbors()[:2])
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
    """Bookkeeping shared by both coloring passes: the endpoint and CSR lists, a
    color per edge (-1 while uncolored) and one bit mask per vertex, ``used[x]``,
    whose bit c is set while an edge of color c meets x."""

    def __init__(self, graph: InteractionGraph, palette: int):
        self.us, self.vs = (a.tolist() for a in graph.edge_arrays()[:2])
        self.start, self.other, self.edge = (a.tolist() for a in graph.neighbors())
        self.palette = palette
        self.colors = [-1] * len(self.us)
        self.used = [0] * graph.vertex_count

    def smallest_free(self, vertex: int) -> int:
        m = self.used[vertex]
        c = (~m & (m + 1)).bit_length() - 1  # the lowest clear bit
        if c >= self.palette:
            raise AssertionError(f"no free color at vertex {vertex} (palette {self.palette})")
        return c

    def flip_chain(self, start: int, a: int, b: int) -> None:
        """Swap a and b along the maximal path from `start` alternating colors
        (a, b); b is free at `start`, so the path cannot come back to it."""
        used, now, first, other, edge = self.used, self.colors, self.start, self.other, self.edge
        chain, z, want = [], start, a
        while used[z] >> want & 1:  # z's one edge of color want, from its CSR row
            i = next(i for i in range(first[z], first[z + 1]) if now[edge[i]] == want)
            chain.append(edge[i])
            z, want = other[i], b if want == a else a
        for e in chain:
            now[e] = b if now[e] == a else a
        if chain:  # inner vertices keep both colors; each end trades one for the other
            used[start] ^= 1 << a | 1 << b
            used[z] ^= 1 << a | 1 << b


def _color_bipartite(graph: InteractionGraph) -> list:
    # Koenig: max-degree colors suffice. With no color free at both ends, flip
    # u's smallest free color c with v's along the alternating chain from v;
    # in a bipartite graph it cannot reach u, so the flip frees c at v.
    state = _ColorState(graph, max(1, graph.max_degree))
    used, colors = state.used, state.colors
    for k, (u, v) in enumerate(zip(state.us, state.vs)):
        both = used[u] | used[v]
        c = (~both & (both + 1)).bit_length() - 1  # the smallest color free at both ends
        if c >= state.palette:
            c = state.smallest_free(u)
            state.flip_chain(v, c, state.smallest_free(v))
        colors[k] = c
        used[u] |= 1 << c
        used[v] |= 1 << c
    return colors


def _color_misra_gries(graph: InteractionGraph) -> list:
    state = _ColorState(graph, graph.max_degree + 1)
    used, colors = state.used, state.colors
    start, other, edge = state.start, state.other, state.edge

    for k, (u, v) in enumerate(zip(state.us, state.vs)):
        if k == 0 or u != state.us[k - 1]:  # edges come sorted by u
            around = list(zip(other[start[u]:start[u + 1]], edge[start[u]:start[u + 1]]))
            j = edge.index(k, start[u]) - start[u]  # v's place among u's neighbours
        # Maximal fan of u anchored at v, as (vertex, edge) pairs. u's colored edges
        # are those before v (edge indices rise along u's neighbours); each step adds
        # the first of them not yet in the fan (rest, last first) whose color is free
        # at the last fan vertex x.
        rest, j = around[:j][::-1], j + 1
        fan, x = [(v, k)], v
        while rest:
            i = len(rest) - 1
            while i >= 0 and used[x] >> colors[rest[i][1]] & 1:
                i -= 1
            if i < 0:
                break
            x = rest[i][0]
            fan.append(rest.pop(i))
        c = state.smallest_free(u)
        d = state.smallest_free(x)
        if used[u] >> d & 1:
            # Flip the maximal dc-path from u; afterwards d is free at u (the
            # path cannot loop back, c being free at u).
            state.flip_chain(u, d, c)
        # Rotate the fan up to its first vertex where d is free: each edge
        # takes the next one's color and the last takes d. At u only d is new;
        # every other color passes from one fan edge to the one before it.
        w = 0
        while used[fan[w][0]] >> d & 1:
            w += 1
        used[u] |= 1 << d
        for y, e in reversed(fan[:w + 1]):
            if colors[e] != -1:
                used[y] ^= 1 << colors[e]
            colors[e], d = d, colors[e]
            used[y] |= 1 << colors[e]
    return colors


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
    us, vs, _ = graph.edge_arrays()
    values = np.asarray(values, dtype=complex)
    residual = np.array(diagonal, dtype=float)
    if values.shape != us.shape or residual.shape != (n,):
        raise ValueError(f"need one value per edge and a diagonal of {n} vertices")
    if coloring is None:
        coloring = color_edges(graph)
    if len(coloring.colors) != us.size:
        raise ValueError("coloring does not match the graph's edge list")

    # Each color's edges, in edge order, from one stable sort of the colors and their counts.
    colors = np.array(coloring.colors, dtype=np.intp)
    order = np.argsort(colors, kind="stable")
    mag = np.hypot(values.real, values.imag)  # abs() bit for bit; np.abs may differ
    pairs, blocks = np.stack([us, vs], axis=1), np.stack([mag, values, values.conj(), mag], axis=1)
    # A color is a matching, so each site meets it at most once: subtracting in color
    # order keeps the order of a pass over the colors and their edges.
    np.subtract.at(residual, pairs[order].ravel(), np.repeat(mag[order], 2))
    terms = [BlockTerm(n, pairs[k], blocks[k])
             for k in np.split(order, np.cumsum(np.bincount(colors)))[:-1]]
    labels = [f"color{color}" for color in range(len(terms))]
    if np.any(residual != 0.0) or not terms:
        sites = np.flatnonzero(residual)
        terms.append(BlockTerm(n, (), (), sites, residual[sites]))
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
        graph = InteractionGraph.from_arrays(n, rows, cols, np.abs(h[rows, cols]))
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
    u = np.arange(length - 1 + periodic)  # a ring's last edge is (L - 1, 0)
    graph = InteractionGraph.from_arrays(length, u, (u + 1) % length, np.ones(u.size))
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
    return InteractionGraph.from_arrays(2 * cells_x * cells_y, us, vs, np.ones(us.size))


def load_graph(path) -> InteractionGraph:
    """The graph of a {"vertices": V, "edges": [[u, v, weight]]} document."""
    return InteractionGraph(*read_document(path, "vertices", "edges"))
