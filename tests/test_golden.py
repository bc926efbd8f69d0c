# Byte-identity pins: sha256 digests of CLI outputs. Any change that moves
# one output byte fails here.
#
# - decompose and the search-split trotter-scan were recorded from the
#   dense d x d term implementation that block-sparse term records replaced.
# - The periodic chain trotter-scan was re-recorded when the scan moved to
#   Bloch sectors (one 2x2 block per momentum instead of d x d matrices).
#   Its error cells moved by at most 2e-14 relative, its bounds and
#   norm_e2 by one or two roundings: the sector sums and the per-block
#   eigh/svd round differently from the dense ones. The dense-path outputs
#   kept every byte: the open chain and odd ring pins were recorded from the
#   d x d scan that the sector scan replaced.
# - equivalence was recorded from the per-sample 2x2 layer, before the
#   stacked layer replaced it. The grover amplification table was recorded
#   from the copying full-space step and has kept every byte since.
# - The grover curve was re-recorded when the full-space step moved to a
#   real state and a running mean (one pass per step instead of three,
#   old digest 85d86993...). 93 of its 101 probability cells moved, by at
#   most 8.9e-15 each, and their largest distance from the closed form
#   sin^2((2k+1) asin(1/sqrt N)) fell from 8.2e-15 to 1.0e-15: the mean
#   is carried by an exact identity instead of being summed again over all
#   N amplitudes at every step. Both grover pins then held unedited when
#   the curve moved to the two-scalar recurrence (the target amplitude and
#   the carried mean, no N-dimensional step) and the amplification table
#   to one shard loop that draws each shard's words once for every R.
# - The equivalence sweeps of 8 x 2000 rows were recorded while one process
#   computed every row and forked workers only formatted CSV text, and held
#   unedited when each share came to compute its own rows.
# - All three equivalence pins were re-recorded when the residual moved from
#   stacked complex matrices and LAPACK eigvals to SU(2) quaternion products
#   (old digests 88b55089..., 088b1375..., 9e45eb20...). Only the residual
#   column and the footer's max_residual moved: 400 of 400 residual cells
#   (by at most 2.5e-16) in the 8 x 50 table and 15998 of 16000 (by at most
#   3.4e-16) in the sweeps; the N, t, Q_t and beta cells kept every byte.
#   Against a 60-digit mpmath residual of the same float t, Q_t and beta
#   (tests/test_search.py), the quaternion residual's largest error on the
#   oracle grid is 3.3e-16 against the matrix path's 6.0e-16, and its mean
#   error is lower at every N of the grid.
# - trajectory was recorded from the stacked layer. It differs from the
#   per-sample output in 24 z cells, by at most 2.2e-16 each: the stacked
#   |a|^2 is a correctly rounded square, the per-sample one went through
#   libm pow.
# - cost was recorded from the CostModel / trotter_complexity /
#   grover_complexity records with the report assembled in the CLI, and its
#   pins held unedited when amplify.cost_report took over the whole report.
# - COLORINGS was recorded from the coloring passes that changed colors
#   through assign / swap_chain and re-checked every fan prefix before a
#   Misra-Gries rotation, and held unedited when both passes moved to one
#   recolor primitive and the first d-free rotation vertex.
#
# The graph's weights are multiples of 1/4, so its residuals are exact in
# binary floating point and do not depend on how a product is summed. The
# trotter-scan rows go through LAPACK (eigh, svd) and the equivalence
# residuals through numpy's sin, cos and arctan2, so their digests assume the
# same numpy/BLAS build (recorded with numpy 2.4.6 and OpenBLAS).

import hashlib
import json
import random

import pytest

from hamsearch.cli import EXIT_OK, main
from hamsearch.decompose import InteractionGraph, color_edges

GRAPH = {
    "vertices": 6,
    "edges": [[0, 1, 1.0], [1, 2, 0.5], [0, 2, 2.0], [2, 3, 1.25],
              [3, 4, 0.75], [4, 5, 1.5], [3, 5, 0.25], [1, 4, 1.0]],
}

DECOMPOSE = {
    "honeycomb": (
        ["--lattice", "honeycomb", "--cells-x", "3", "--cells-y", "4", "--periodic"],
        "72eb9a6fa3d21936c57b0683d72127ce6fd64ea7e6acb8ec16d288254f68a1cc",
        "4ac294854766c350603b7388c2f0431ac4b2a3d030fcf69ea42d8c1d33960261",
    ),
    "ring": (
        ["--lattice", "ring", "--length", "8"],
        "8ab2236ff1d3aa7876f83e9461cc4c0fd9b1046bdde1c5b7f694da8498955efa",
        "0e04c911d8de35535d93fe678ad7a90a26f41239d3225571fe561ff23afff908",
    ),
    "graph": (
        ["--graph", "{graph}"],
        "2b208ed8cd68c86f72222772aff830d671170788e86de20d10f3b541be36dffc",
        "5fd5f17dc2c3f8a0ba3361beb97d97b9588c4da01b7ab36600794e3bc329fbc6",
    ),
}

SCAN = {
    "chain": (
        ["--problem", "chain", "--length", "16", "--periodic"],
        "b65410a35b93aa8aa18ac3314d44e709e5ea672a5b97ba9fa3093b967624c016",
    ),
    "open-chain-8": (
        ["--problem", "chain", "--length", "8"],
        "10bf97f0caf50d67ae9fb3a09d4216c1d54633db450ad17d46d7000f95d99e2c",
    ),
    "open-chain-64": (
        ["--problem", "chain", "--length", "64"],
        "23ca7970ebb2ecdce219d715cbf3974bc5303b2da8d38967dbff5d6d7ad8d57e",
    ),
    "odd-ring-9": (
        ["--problem", "chain", "--length", "9", "--periodic"],
        "44f0a2a153f813aab91bfc216774dbf341dcb82e1fb8a10608fe81208595c17b",
    ),
    "search-split": (
        ["--problem", "search-split"],
        "a05a8f5caf1be027eb6953bae6678b05db97d662593c28405e0506106246b2e5",
    ),
}


SUBSPACE = {
    "equivalence": (
        ["equivalence", "--n-list", "4,16,64,256,1024,4096,16384,65536", "--samples", "50"],
        "4e6a4b9712440084aed4b99fe6a303c141919e03076e3ea6a4554f778f1dd0b9",
    ),
    "equivalence-sweep": (
        ["equivalence", "--n-list", "4,16,64,256,1024,4096,16384,65536", "--samples", "2000"],
        "903e28f3db9835db86b8d4ee964be7fa4b221fc53cb69d811e93ffacb8d866c6",
    ),
    "equivalence-sweep-json": (
        ["equivalence", "--n-list", "4,16,64,256,1024,4096,16384,65536", "--samples", "2000",
         "--format", "json"],
        "c3c4e0beba8d5648967cabef78d19ab4d317229202fbce35884b97bdebd3ebdf",
    ),
    "trajectory": (
        ["trajectory", "--n", "1024", "--samples", "10001"],
        "5344fa48adb9f58d6a6fba6b2594b4d7269153ea023a5ea75b53e36369caf681",
    ),
}

GROVER = (
    ["grover", "--n", "4096", "--runs", "5", "--trials", "20000"],
    "30def926cc57939116015c2d8d22b627c0b73ad66152c713fa360ee6042e7875",
    "b512afc27761b6462c4cf3539a6c35575ca619f4268cb76cd932f4147c51d030",
)

COST = {
    "n-2^20-eps-1e-12": (
        ["--n", "1048576", "--eps", "1e-12"],
        "018836b248a3185f27ad5ddf05f4a3808cbcd37413f9eed9db01003987fb9a9d",
    ),
    "step-costs": (
        ["--n", "16", "--t", "2", "--step-cost", "2", "--grover-step-cost", "3"],
        "bffe63004403651adfd65c98ca2fb105b41de9914caf0fda46ef4df566954280",
    ),
    "eps-1e-300": (
        ["--n", "1024", "--eps", "1e-300"],
        "91ad370e984b6c6201a587d57dfa101f65fbbefbd6bfad95279db45a2f7c4064",
    ),
    "zero-step-cost": (
        ["--step-cost", "0"],
        "6ca49b3fbb047bd01abdf6503aa39bd91a992262edb7f0e35e26dab14447e16a",
    ),
}

# sha256 of repr([(colors, bipartite), ...]) over _coloring_graphs(). The family
# reaches every branch of both passes: the Koenig chain flip, the Misra-Gries
# path flip and rotations past the first fan edge.
COLORINGS = "70d32c5bf3dd254b05eebcf6f029e24a2ed4074844852890ac157577dfff2ae8"


def _pairing_graph(rng, n, degree):
    # Random simple degree-regular graph: the pairing model, redrawn until simple.
    stubs = [v for v in range(n) for _ in range(degree)]
    while True:
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == len(stubs) // 2 and all(a != b for a, b in pairs):
            return InteractionGraph(n, tuple((u, v, 1.0) for u, v in sorted(pairs)))


def _coloring_graphs():
    # Random graphs with n in [2, 40] and edge density in [0.05, 1]; one in
    # three keeps only the edges across a random bipartition.
    rng = random.Random(15)
    graphs = []
    for k in range(300):
        n, density = rng.randint(2, 40), rng.uniform(0.05, 1.0)
        side = [rng.randrange(2) for _ in range(n)]
        edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density and (k % 3 or side[u] != side[v])]
        graphs.append(InteractionGraph(n, tuple(edges)))
    return graphs + [_pairing_graph(rng, 64, 4)]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DECOMPOSE))
def test_decompose_outputs_are_pinned(tmp_path, name):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(GRAPH))
    flags, terms_digest, report_digest = DECOMPOSE[name]
    terms, report = tmp_path / "terms.json", tmp_path / "report.json"
    argv = [flag.format(graph=graph) for flag in flags]
    rc = main(["decompose", *argv, "--out", str(terms), "--report", str(report)])
    assert rc == EXIT_OK
    assert _sha256(terms) == terms_digest
    assert _sha256(report) == report_digest


@pytest.mark.parametrize("name", sorted(SCAN))
def test_trotter_scan_outputs_are_pinned(tmp_path, name):
    flags, digest = SCAN[name]
    out = tmp_path / "scan.csv"
    assert main(["trotter-scan", *flags, "--out", str(out)]) == EXIT_OK
    assert _sha256(out) == digest


@pytest.mark.parametrize("name", sorted(SUBSPACE))
def test_subspace_outputs_are_pinned(tmp_path, name):
    argv, digest = SUBSPACE[name]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert _sha256(out) == digest


def test_grover_outputs_are_pinned(tmp_path):
    argv, curve_digest, amplification_digest = GROVER
    out = tmp_path / "curve.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert _sha256(out) == curve_digest
    assert _sha256(tmp_path / "curve.csv.amplification.csv") == amplification_digest


@pytest.mark.parametrize("name", sorted(COST))
def test_cost_reports_are_pinned(tmp_path, name):
    flags, digest = COST[name]
    out = tmp_path / "cost.json"
    assert main(["cost", *flags, "--out", str(out)]) == EXIT_OK
    assert _sha256(out) == digest


def test_edge_colorings_are_pinned():
    colorings = [color_edges(g) for g in _coloring_graphs()]
    text = repr([(c.colors, c.bipartite) for c in colorings])
    assert hashlib.sha256(text.encode()).hexdigest() == COLORINGS
