# Reference constructions shared by several test modules: the dense graph
# Laplacian and the two-projector search split of a given database size.

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
