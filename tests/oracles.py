# Reference constructions shared by several test modules: the hypothesis
# strategy for numpy seeds, the dense graph Laplacian, the two-projector
# search split of a given database size, Haar random unitaries, the graph
# JSON writer, the Rodrigues rotation of the Bloch sphere, the
# product-formula error scan on dense d x d matrices, the term-set document
# as json.dump writes it, the color terms of a decomposition one color at a
# time and their reconstruction residual as one sum over all entries, the
# majority Monte Carlo and single binomial draws as numpy's
# Generator.binomial makes them, the success curve of the
# full-space step with a carried mean, the graph layer as scalar loops (the
# edge coloring with one dict per vertex), the CSV table one row at a time
# and the JSON table as json.dumps writes it, and a CLI run that reports its
# own peak memory.

import ctypes
import json
import math
import textwrap
import threading
from collections import deque
from functools import reduce
from math import ceil

import numpy as np
from hypothesis import strategies as st

from hamsearch.amplify import SHARD_SIZE
from hamsearch.decompose import MAX_WEIGHT
from hamsearch.search import SearchInstance, search_split
from hamsearch.trotter import BlockTerm, HermitianTermSet

# Seeds for np.random.default_rng, so that a property test draws its arrays
# from numpy while hypothesis picks, shrinks and replays the seed.
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def laplacian_matrix(graph, diagonal=None):
    # Dense reference: -w off the diagonal; weighted degree, or `diagonal`, on it.
    h = np.zeros((graph.vertex_count,) * 2, dtype=complex)
    for u, v, w in graph.edges:
        h[u, v] = h[v, u] = -w
        h[u, u] += abs(w)
        h[v, v] += abs(w)
    if diagonal is not None:
        np.fill_diagonal(h, diagonal)
    return h


def search_split_of(n):
    return search_split(SearchInstance(n))


def random_unitary(n, rng):
    # Haar-distributed n x n unitary via QR of a complex Ginibre matrix.
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def save_graph(path, graph):
    # The graph document that hamsearch.decompose.load_graph reads.
    doc = {
        "vertices": graph.vertex_count,
        "edges": [[u, v, w] for u, v, w in graph.edges],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def bloch_rotation_matrix(axis, angle):
    # SO(3) matrix of the Bloch rotation that rotation_unitary(axis, angle)
    # implements, for a unit axis n. Rodrigues form:
    # R v = v cos(t) + (n x v) sin(t) + n (n.v)(1 - cos(t)).
    n = np.asarray(axis, dtype=float)
    cross = np.array(
        [
            [0.0, -n[2], n[1]],
            [n[2], 0.0, -n[0]],
            [-n[1], n[0], 0.0],
        ]
    )
    return (
        np.cos(angle) * np.eye(3)
        + np.sin(angle) * cross
        + (1.0 - np.cos(angle)) * np.outer(n, n)
    )


def dense_trotter_scan(terms, total_time, step_counts):
    # (||E2||, errors) of the first-order product formula, all on dense
    # d x d matrices: eigh exponentials, matrix powers and svd norms.
    hs = [terms.dense(k) for k in range(len(terms))]

    def expm(h, tau):
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w * tau)) @ v.conj().T

    commutator = sum(a @ b - b @ a for i, a in enumerate(hs) for b in hs[i + 1:])
    exact = expm(sum(hs), total_time)
    errors = []
    for n in step_counts:
        step = reduce(np.matmul, [expm(h, total_time / n) for h in hs])
        errors.append(np.linalg.norm(np.linalg.matrix_power(step, n) - exact, 2))
    return 0.5 * np.linalg.norm(commutator, 2), errors


def term_set_json(terms):
    # The term-set document, as json.dump(doc, indent=1) and a newline give
    # it, built from the dense terms: nonzero entries in (row, col) order.
    doc_terms = []
    for k, label in enumerate(terms.labels):
        h = terms.dense(k)
        rows, cols = np.nonzero(h)
        entries = [[r, c, v.real, v.imag]
                   for r, c, v in zip(rows.tolist(), cols.tolist(), h[rows, cols].tolist())]
        doc_terms.append({"label": label, "entries": entries})
    return json.dumps({"dimension": terms.dimension, "terms": doc_terms}, indent=1) + "\n"


def per_color_terms(graph, values, diagonal, coloring):
    # decompose's term set from one pass per color: the color's edges by a scan of
    # every edge's color, their blocks, and their |h| taken off the diagonal.
    n = graph.vertex_count
    us, vs, _ = graph.edge_arrays()
    residual = np.array(diagonal, dtype=float)
    colors = np.array(coloring.colors, dtype=np.intp)
    terms, labels = [], []
    for color in range(coloring.color_count):
        k = np.flatnonzero(colors == color)
        val = values[k]
        mag = np.hypot(val.real, val.imag)
        residual[us[k]] -= mag
        residual[vs[k]] -= mag
        terms.append(BlockTerm(n, np.stack([us[k], vs[k]], axis=1),
                               np.stack([mag, val, val.conj(), mag], axis=1)))
        labels.append(f"color{color}")
    if np.any(residual != 0.0) or not terms:
        sites = np.flatnonzero(residual)
        terms.append(BlockTerm(n, (), (), sites, residual[sites]))
        labels.append("diagonal")
    return HermitianTermSet(dimension=n, terms=tuple(terms), labels=tuple(labels))


def reconstruction_residual(term_set, graph, values, diagonal):
    # max |sum_k H_k - H| entry by entry, as one sum over all entries: every term's
    # nonzero entries and H's negated ones joined, summed per position by np.unique
    # and np.add.at. Entries off every edge are summed with each other.
    n = graph.vertex_count
    us, vs, _ = graph.edge_arrays()
    sites = np.arange(n)
    h = (np.concatenate([us, vs, sites]), np.concatenate([vs, us, sites]),
         -np.concatenate([values, values.conj(), diagonal]))
    rows, cols, vals = (np.concatenate(x) for x in zip(*(t.entries() for t in term_set.terms), h))
    keys, position = np.unique(rows * n + cols, return_inverse=True)
    total = np.zeros(keys.size, dtype=complex)
    np.add.at(total, position, vals)
    return float(np.max(np.abs(total), initial=0.0))


def binomial_majority_failures(plan):
    # Majority failures of an AmplificationPlan, one Generator.binomial(R, p)
    # draw per trial from shard i's Philox(key=(seed, i)) stream.
    failures = 0
    for shard, done in enumerate(range(0, plan.trials, SHARD_SIZE)):
        count = min(SHARD_SIZE, plan.trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([plan.seed, shard], dtype=np.uint64)))
        wrong = rng.binomial(plan.runs, plan.per_run_error, size=count)
        failures += int(np.count_nonzero(wrong >= ceil(plan.runs / 2)))
    return failures


_NEXT_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_NEXT_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitgenT(ctypes.Structure):
    # numpy's bitgen_t: the state pointer and the four draw functions.
    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", _NEXT_U64),
                ("next_uint32", _NEXT_U32), ("next_double", _NEXT_DOUBLE),
                ("next_raw", _NEXT_U64)]


class ScriptedDoubles:
    # A bit generator for np.random.Generator whose next_double returns the
    # given values in turn; `used` counts the values drawn. Generator needs
    # only a "BitGenerator" capsule around a bitgen_t and a lock.
    def __init__(self, values):
        self.values, self.used = list(values), 0

        def next_double(_):
            self.used += 1
            return self.values[self.used - 1]

        def unscripted(_):
            raise AssertionError("only next_double is scripted")

        self._fns = (_NEXT_U64(unscripted), _NEXT_U32(unscripted),
                     _NEXT_DOUBLE(next_double), _NEXT_U64(unscripted))
        self._bitgen = _BitgenT(None, *self._fns)
        new = ctypes.pythonapi.PyCapsule_New
        new.restype = ctypes.py_object
        new.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p]
        self.capsule = new(ctypes.addressof(self._bitgen), b"BitGenerator", None)
        self.lock = threading.Lock()


def binomial_draw(runs, p, u):
    # (X, draws): numpy's Generator.binomial(runs, p) when next_double gives
    # u and then 0.0, which ends any redraw at X = 0.
    bitgen = ScriptedDoubles([u, 0.0])
    x = int(np.random.Generator(bitgen).binomial(runs, p))
    return x, bitgen.used


def carried_mean_curve(n, max_steps, target):
    # |<t|psi_k>|^2 of the full N-dimensional step on a real state, one pass
    # over all amplitudes per step, the mean summed once and then carried by
    # mean(flip_t(psi)) = mean - 2 psi[t]/N and mean(2 mean - psi) = mean.
    psi = np.full(n, 1.0 / np.sqrt(n))
    mean = psi.mean()
    curve = [abs(psi[target]) ** 2]
    for _ in range(max_steps):
        mean -= 2.0 * psi[target] / psi.size
        psi[target] = -psi[target]
        np.subtract(2.0 * mean, psi, out=psi)
        curve.append(abs(psi[target]) ** 2)
    return np.array(curve)


def scalar_graph(vertex_count, edges):
    # (edges, max_degree) of an InteractionGraph as a loop over its edge rows
    # makes them: each row checked in order, then sorted and compared with
    # its neighbour for parallel edges. A row is a list or tuple of three. An
    # endpoint is an integer, or a float of integral value, and never a bool.
    # Raises what the constructor raises.
    n = int(vertex_count)
    normalized = []
    for row in edges:
        if not (isinstance(row, (list, tuple)) and len(row) == 3):
            raise ValueError(f"edge {row!r} is not [u, v, weight]")
        u, v, w = row
        for x in (u, v):
            if isinstance(x, (bool, np.bool_)) or not float(x).is_integer():
                raise ValueError(f"edge ({u}, {v}) endpoint {x!r} is not an integer")
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")
        if u > v:
            u, v = v, u
        w = float(w)
        if not math.isfinite(w):
            raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
        if abs(w) > MAX_WEIGHT:
            raise ValueError(f"edge ({u}, {v}) weight {w!r} is past +-2^511, where its block "
                             "squares past the float range")
        normalized.append((u, v, w))
    normalized.sort()
    for a, b in zip(normalized, normalized[1:]):
        if a[:2] == b[:2]:
            raise ValueError(f"parallel edges between {a[0]} and {a[1]} (multigraph rejected)")
    degree = [0] * n
    for u, v, _ in normalized:
        degree[u] += 1
        degree[v] += 1
    return tuple(normalized), max(degree)


def scalar_adjacency(vertex_count, edges):
    # {vertex: sorted list of (other vertex, edge index)} of normalized edges.
    adj = {v: [] for v in range(vertex_count)}
    for k, (u, v, _) in enumerate(edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    for v in adj:
        adj[v].sort()
    return adj


def scalar_bipartition(vertex_count, edges):
    # Sides of a BFS two-coloring from each smallest unseen vertex, or None.
    side = [-1] * vertex_count
    adj = scalar_adjacency(vertex_count, edges)
    for start in range(vertex_count):
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


def scalar_verify_proper(edges, colors):
    # Raises at the first (vertex, color) seen twice, in edge order.
    seen = set()
    for k, (u, v, _) in enumerate(edges):
        for vertex in (u, v):
            key = (vertex, colors[k])
            if key in seen:
                raise AssertionError(
                    f"improper coloring: color {colors[k]} repeated at vertex {vertex}"
                )
            seen.add(key)


class _DictColorState:
    # The coloring passes' bookkeeping as one dict per vertex (color -> edge).
    def __init__(self, edges, vertex_count, palette):
        self.edges, self.palette = edges, palette
        self.colors = [-1] * len(edges)
        self.by_vertex = [dict() for _ in range(vertex_count)]

    def smallest_free(self, vertex):
        for c in range(self.palette):
            if c not in self.by_vertex[vertex]:
                return c
        raise AssertionError(f"no free color at vertex {vertex} (palette {self.palette})")

    def recolor(self, edges, colors):
        for e in edges:
            if self.colors[e] != -1:
                u, v, _ = self.edges[e]
                del self.by_vertex[u][self.colors[e]]
                del self.by_vertex[v][self.colors[e]]
        for e, c in zip(edges, colors):
            u, v, _ = self.edges[e]
            self.colors[e] = c
            self.by_vertex[u][c] = self.by_vertex[v][c] = e

    def flip_chain(self, start, a, b):
        chain, z, want = [], start, a
        while want in self.by_vertex[z]:
            e = self.by_vertex[z][want]
            chain.append(e)
            u, v, _ = self.edges[e]
            z = v if z == u else u
            want = b if want == a else a
        self.recolor(chain, [b if self.colors[e] == a else a for e in chain])


def scalar_coloring(vertex_count, edges, short=0):
    # Colors of normalized edges as the dict-based passes chose them: Koenig on
    # max(1, max degree - short) colors when the BFS finds two sides, Misra-Gries
    # on max degree + 1 - short colors otherwise, the fan taken from the sorted
    # adjacency. Raises the passes' AssertionError when a vertex has no free color.
    degree = [0] * vertex_count
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    top = max(degree) - short
    if scalar_bipartition(vertex_count, edges) is not None:
        state = _DictColorState(edges, vertex_count, max(1, top))
        for k, (u, v, _) in enumerate(edges):
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
    state = _DictColorState(edges, vertex_count, top + 1)
    adj = scalar_adjacency(vertex_count, edges)
    for k, (u, v, _) in enumerate(edges):
        # The fan grows by the first (y, e) of adj[u], y new and e colored, whose color is
        # free at the fan's last vertex. Colors hold while it grows, so an entry passed over
        # for a color taken there stays in `passed`, in adj[u] order, to be tried at the next
        # vertex before the scan goes on from where it stopped.
        fan, in_fan, passed, rest = [(v, k)], {v}, [], iter(adj[u])
        while True:
            taken = state.by_vertex[fan[-1][0]]
            grow = next((p for p in passed
                         if p[0] not in in_fan and state.colors[p[1]] not in taken), None)
            if grow is not None:
                passed.remove(grow)
            else:
                for y, e in rest:
                    if y in in_fan or state.colors[e] == -1:
                        continue
                    if state.colors[e] not in taken:
                        grow = (y, e)
                        break
                    passed.append((y, e))
            if grow is None:
                break
            fan.append(grow)
            in_fan.add(grow[0])
        c = state.smallest_free(u)
        d = state.smallest_free(fan[-1][0])
        if d in state.by_vertex[u]:
            state.flip_chain(u, d, c)
        w = 0
        while d in state.by_vertex[fan[w][0]]:
            w += 1
        chosen = [e for _, e in fan[:w + 1]]
        state.recolor(chosen, [state.colors[e] for e in chosen[1:]] + [d])
    return state.colors


def table_text_reference(columns, rows, extra=None, fmt="csv"):
    # A CSV table as one '%.17g' row at a time makes it: the header, a line
    # per row, then the extra fields as a '# ' JSON line; a newline at the end.
    # A JSON table as json.dumps lays out the whole document, and a newline.
    if fmt == "json":
        doc = {"columns": columns, "rows": rows, **(extra or {})}
        return json.dumps(doc, indent=1, allow_nan=False) + "\n"
    lines = [",".join(columns)] + [",".join("%.17g" % x for x in row) for row in rows]
    if extra:
        lines.append("# " + json.dumps(extra, sort_keys=True, allow_nan=False))
    return "\n".join(lines) + "\n"


# Runs hamsearch.cli.main on its arguments and prints, as JSON, [exit code,
# this process's peak resident set (VmHWM: ru_maxrss would carry the peak of
# the process that started it across fork and exec), the largest ru_maxrss
# of the workers it forked], the two peaks in MiB.
PEAK_SCRIPT = textwrap.dedent("""
    import json, resource, sys
    from hamsearch.cli import main
    rc = main(sys.argv[1:])
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(json.dumps([rc, hwm / 1024.0,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]))
""")
