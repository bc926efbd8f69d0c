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
# function of the graph.

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import assert_hermitian
from .trotter import BlockTerm, HermitianTermSet

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
    "save_graph",
    "load_graph",
]


@dataclass(frozen=True)
class InteractionGraph:
    """Simple undirected weighted graph; edges stored sorted with u < v."""

    vertex_count: int
    edges: tuple  # of (u, v, weight)

    def __post_init__(self) -> None:
        n = int(self.vertex_count)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = []
        for u, v, w in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            if u > v:
                u, v = v, u
            if not math.isfinite(float(w)):
                raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
            normalized.append((u, v, float(w)))
        normalized.sort()
        for a, b in zip(normalized, normalized[1:]):
            if a[:2] == b[:2]:
                raise ValueError(
                    f"parallel edges between {a[0]} and {a[1]} (multigraph rejected)"
                )
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def max_degree(self) -> int:
        deg = [0] * self.vertex_count
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg, default=0)

    def edge_arrays(self):
        """The edges as three arrays: u, v and weight."""
        e = np.array(self.edges, dtype=float).reshape(-1, 3)
        return e[:, 0].astype(np.intp), e[:, 1].astype(np.intp), e[:, 2]

    def neighbors(self) -> dict:
        """Adjacency as {vertex: sorted list of (other_vertex, edge_index)}."""
        adj = {v: [] for v in range(self.vertex_count)}
        for k, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, k))
            adj[v].append((u, k))
        for v in adj:
            adj[v].sort()
        return adj


@dataclass(frozen=True)
class EdgeColoring:
    """Color index per edge, aligned with graph.edges."""

    colors: tuple

    def __post_init__(self) -> None:
        colors = tuple(int(c) for c in self.colors)
        if any(c < 0 for c in colors):
            raise ValueError("colors must be nonnegative")
        object.__setattr__(self, "colors", colors)

    @property
    def color_count(self) -> int:
        """The palette size: one more than the largest color, 0 without edges."""
        return max(self.colors, default=-1) + 1


def bipartition(graph: InteractionGraph):
    """Two-coloring of the vertices by BFS, or None if an odd cycle exists."""
    side = [-1] * graph.vertex_count
    adj = graph.neighbors()
    for start in range(graph.vertex_count):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, _ in adj[u]:
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return None
    return side


def _verify_proper(graph: InteractionGraph, colors) -> None:
    seen = set()
    for k, (u, v, _) in enumerate(graph.edges):
        for vertex in (u, v):
            key = (vertex, colors[k])
            if key in seen:
                raise AssertionError(
                    f"improper coloring: color {colors[k]} repeated at vertex {vertex}"
                )
            seen.add(key)


class _ColorState:
    """Mutable bookkeeping shared by both coloring passes."""

    def __init__(self, graph: InteractionGraph, palette: int):
        self.edges = graph.edges
        self.palette = palette
        self.colors = [-1] * len(graph.edges)
        self.by_vertex = [dict() for _ in range(graph.vertex_count)]  # color -> edge

    def is_free(self, vertex: int, c: int) -> bool:
        return c not in self.by_vertex[vertex]

    def smallest_free(self, vertex: int) -> int:
        for c in range(self.palette):
            if c not in self.by_vertex[vertex]:
                return c
        raise AssertionError(f"no free color at vertex {vertex} (palette {self.palette})")

    def assign(self, e: int, c: int) -> None:
        u, v, _ = self.edges[e]
        old = self.colors[e]
        if old != -1:
            del self.by_vertex[u][old]
            del self.by_vertex[v][old]
        self.colors[e] = c
        if c != -1:
            self.by_vertex[u][c] = e
            self.by_vertex[v][c] = e

    def alternating_chain(self, start: int, first: int, second: int) -> list:
        """Maximal path from `start` whose edges alternate colors (first, second)."""
        chain = []
        z, want = start, first
        while want in self.by_vertex[z]:
            e = self.by_vertex[z][want]
            chain.append(e)
            u, v, _ = self.edges[e]
            z = v if z == u else u
            want = second if want == first else first
        return chain

    def swap_chain(self, chain: list, a: int, b: int) -> None:
        for e in chain:
            u, v, _ = self.edges[e]
            del self.by_vertex[u][self.colors[e]]
            del self.by_vertex[v][self.colors[e]]
            self.colors[e] = b if self.colors[e] == a else a
        for e in chain:
            u, v, _ = self.edges[e]
            self.by_vertex[u][self.colors[e]] = e
            self.by_vertex[v][self.colors[e]] = e


def _color_bipartite(graph: InteractionGraph) -> list:
    # Koenig: max-degree colors suffice. When no color is free at both ends,
    # swap the two candidate colors along the alternating chain from v; in a
    # bipartite graph that chain cannot reach u, so the swap frees a shared
    # color.
    state = _ColorState(graph, max(1, graph.max_degree))
    for k, (u, v, _) in enumerate(graph.edges):
        shared = [
            c
            for c in range(state.palette)
            if state.is_free(u, c) and state.is_free(v, c)
        ]
        if shared:
            state.assign(k, shared[0])
            continue
        a = state.smallest_free(u)
        b = state.smallest_free(v)
        chain = state.alternating_chain(v, a, b)
        state.swap_chain(chain, a, b)
        state.assign(k, a)
    return state.colors


def _color_misra_gries(graph: InteractionGraph) -> list:
    state = _ColorState(graph, graph.max_degree + 1)
    adj = graph.neighbors()
    edge_of = {}
    for e, (u, v, _) in enumerate(graph.edges):
        edge_of[(u, v)] = e
        edge_of[(v, u)] = e

    for k, (u, v, _) in enumerate(graph.edges):
        # Maximal fan of u anchored at v: the color of each added edge is
        # free at the previous fan vertex.
        fan = [v]
        in_fan = {v}
        grown = True
        while grown:
            grown = False
            for y, e in adj[u]:
                if y in in_fan or state.colors[e] == -1:
                    continue
                if state.is_free(fan[-1], state.colors[e]):
                    fan.append(y)
                    in_fan.add(y)
                    grown = True
                    break
        c = state.smallest_free(u)
        d = state.smallest_free(fan[-1])
        if not state.is_free(u, d):
            # Swap colors along the maximal cd-path from u; afterwards d is
            # free at u (the path cannot loop back, c being free at u).
            chain = state.alternating_chain(u, d, c)
            state.swap_chain(chain, c, d)
        # First fan vertex where d is free and the prefix is still a fan
        # under the current (possibly path-swapped) colors.
        w_index = None
        for idx, y in enumerate(fan):
            if not state.is_free(y, d):
                continue
            ok = True
            for i in range(1, idx + 1):
                col = state.colors[edge_of[(u, fan[i])]]
                if col == -1 or not state.is_free(fan[i - 1], col):
                    ok = False
                    break
            if ok:
                w_index = idx
                break
        if w_index is None:
            raise AssertionError("no rotatable fan prefix; coloring invariant broken")
        # Rotate the prefix: each fan edge inherits the next one's color.
        shifted = [state.colors[edge_of[(u, fan[i + 1])]] for i in range(w_index)]
        for i in range(w_index):
            state.assign(edge_of[(u, fan[i + 1])], -1)
        for i in range(w_index):
            state.assign(edge_of[(u, fan[i])], shifted[i])
        state.assign(edge_of[(u, fan[w_index])], d)
    return state.colors


def color_edges(graph: InteractionGraph) -> EdgeColoring:
    """Proper edge coloring: max-degree colors on bipartite graphs,
    at most max-degree + 1 (Misra-Gries) otherwise."""
    if bipartition(graph) is not None:
        colors = _color_bipartite(graph)
    else:
        colors = _color_misra_gries(graph)
    _verify_proper(graph, colors)
    return EdgeColoring(colors=tuple(colors))


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
    diagonal of a graph without edges). The terms sum to the matrix exactly.
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
    edge_set = {(u, v) for u, v, _ in graph.edges}
    for r, c in zip(rows.tolist(), cols.tolist()):
        if (r, c) not in edge_set:
            raise ValueError(f"off-diagonal support at ({r}, {c}) has no matching edge")
    us, vs, _ = graph.edge_arrays()
    return decompose(graph, h[us, vs], np.real(np.diag(h)))


def laplacian_chain(length: int, periodic: bool = False) -> InteractionGraph:
    """Graph of the 1D lattice Laplacian (diagonal 2, off-diagonal -1).

    Its matrix has ``graph_laplacian``'s edge values and diagonal 2 on every
    site; periodic rings have eigenvalues 4 sin^2(pi j / L). A periodic
    2-site chain would need a double edge and is rejected.
    """
    if length < 2:
        raise ValueError("chain needs at least 2 sites")
    if periodic and length == 2:
        raise ValueError("periodic 2-site chain is a multigraph")
    edges = [(i, i + 1, 1.0) for i in range(length - 1)]
    if periodic:
        edges.append((0, length - 1, 1.0))
    return InteractionGraph(vertex_count=length, edges=tuple(edges))


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

    def site(x: int, y: int, s: int) -> int:
        return 2 * (x * cells_y + y) + s

    edges = []
    for x in range(cells_x):
        for y in range(cells_y):
            a = site(x, y, 0)
            edges.append((a, site(x, y, 1), 1.0))
            if x > 0 or periodic:
                edges.append((a, site((x - 1) % cells_x, y, 1), 1.0))
            if y > 0 or periodic:
                edges.append((a, site(x, (y - 1) % cells_y, 1), 1.0))
    return InteractionGraph(vertex_count=2 * cells_x * cells_y, edges=tuple(edges))


def save_graph(path, graph: InteractionGraph) -> None:
    doc = {
        "vertices": graph.vertex_count,
        "edges": [[u, v, w] for u, v, w in graph.edges],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_graph(path) -> InteractionGraph:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return InteractionGraph(
            vertex_count=int(doc["vertices"]),
            edges=tuple((int(u), int(v), float(w)) for u, v, w in doc["edges"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
