# Reference constructions shared by several test modules: the dense graph
# Laplacian, the two-projector search split of a given database size, Haar
# random unitaries, the graph JSON writer, the Rodrigues rotation of the
# Bloch sphere, the product-formula error scan on dense d x d matrices, and
# the term-set document as json.dump writes it.

import json
from functools import reduce

import numpy as np

from hamsearch.search import SearchInstance, search_split


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
