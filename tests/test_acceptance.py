# Acceptance suite: one test per shipped criterion, each at its stated
# tolerance, printing one PASS line on success (run with -s or -rA to see
# them). Everything is deterministic; the only Monte Carlo (criterion 9)
# is seed-pinned.

import time

import numpy as np
import pytest

from hamsearch.amplify import (
    AmplificationPlan,
    averaging_error,
    cost_report,
    majority_bound,
    majority_error_exact,
    simulate_majority,
)
from hamsearch.decompose import (
    color_edges,
    decompose,
    graph_laplacian,
    honeycomb_lattice,
    laplacian_chain,
)
from hamsearch.search import (
    SearchInstance,
    endpoint_residual,
    equivalence_residual,
    evolve_continuous,
)
from hamsearch.statevector import (
    expected_peak_step,
    peak_step,
    subspace_agreement,
    success_curve,
)
from hamsearch.trotter import commutator_error, trotter_scan
from oracles import laplacian_matrix, search_split_of

EQUIVALENCE_SIZES = (4, 16, 64, 256, 1024)
CURVE_SIZES = (4, 16, 64, 1024, 4096)


def test_criterion_01_equivalence_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in EQUIVALENCE_SIZES:
        inst = SearchInstance(n)
        for t in np.linspace(0.0, inst.total_time, 20):
            worst = max(worst, equivalence_residual(inst, t))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    print(f"ACCEPTANCE 01 PASS - equivalence residual {worst:.2e} < 1e-9 in {elapsed:.2f}s")


def test_criterion_02_endpoint_identity():
    worst = max(endpoint_residual(SearchInstance(n)) for n in EQUIVALENCE_SIZES)
    assert worst < 1e-10
    print(f"ACCEPTANCE 02 PASS - endpoint residual {worst:.2e} < 1e-10")


def test_criterion_03_continuous_search_time():
    lowest = 1.0
    for n in EQUIVALENCE_SIZES:
        inst = SearchInstance(n)
        final = evolve_continuous(inst, inst.total_time) @ inst.source_state
        lowest = min(lowest, abs(final[0]) ** 2)
    assert lowest >= 1.0 - 1e-10
    print(f"ACCEPTANCE 03 PASS - fidelity at T >= {lowest:.12f}")


def test_criterion_04_discrete_step_count():
    start = time.perf_counter()
    for n in CURVE_SIZES:
        predicted = expected_peak_step(n)
        curve = success_curve(n, max(1, 2 * predicted))
        assert peak_step(curve) == predicted
        assert curve[predicted] >= 1.0 - 1.0 / n
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 04 PASS - closed-form step counts match curve peaks in {elapsed:.2f}s")


def test_criterion_05_step_count_asymptotics():
    # floor(Q_T + 1/2), the operational step count, sits within 5% of
    # (pi/4) sqrt(N); raw Q_T runs 8% low at N = 64 (= (pi/4) sqrt(N) - 1/2
    # asymptotically), so the criterion is pinned to the rounded count.
    worst = 0.0
    for n in (64, 256, 1024, 4096):
        asymptote = np.pi / 4.0 * np.sqrt(n)
        worst = max(worst, abs(expected_peak_step(n) - asymptote) / asymptote)
    assert worst < 0.05
    print(f"ACCEPTANCE 05 PASS - step count within {100 * worst:.2f}% of (pi/4) sqrt(N)")


def test_criterion_06_first_order_scaling():
    grid = (0.2, 0.1, 0.05, 0.025)
    problems = [
        ("projector split", search_split_of(16), SearchInstance(16).total_time),
        ("even/odd chain", decompose(*laplacian_chain(8, periodic=True)), 2.0),
    ]
    slopes = []
    for name, terms, total in problems:
        # The scan the CLI runs, on the step counts of the dt grid.
        norm_e2, rows = trotter_scan(terms, total, [max(1, round(total / dt)) for dt in grid])
        dts, _, errors = np.array(rows).T
        slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
        assert 0.9 <= slope <= 1.1, name
        assert np.all(errors <= 2.0 * total * norm_e2 * dts), name
        slopes.append(slope)
    print(f"ACCEPTANCE 06 PASS - first-order slopes {slopes[0]:.3f}, {slopes[1]:.3f}; bound holds")


def test_criterion_07_commutator_estimator():
    worst = 0.0
    for n in (4, 16, 64, 1024):
        measured = commutator_error(search_split_of(n))
        worst = max(worst, abs(measured - 0.5 * np.sqrt(n - 1.0) / n))
    assert worst < 1e-12
    print(f"ACCEPTANCE 07 PASS - ||E2|| = (1/2) sqrt(N-1)/N to {worst:.2e}")


def test_criterion_08_decomposition_identities():
    # Chain and ring: two colors, projector squaring, binary term spectrum.
    for periodic in (False, True):
        g, values, diagonal = laplacian_chain(8, periodic=periodic)
        h = laplacian_matrix(g, 2.0)
        coloring = color_edges(g)
        assert coloring.color_count == 2
        terms = decompose(g, values, diagonal, coloring)
        for k, label in enumerate(terms.labels):
            if not label.startswith("color"):
                continue
            term = terms.dense(k)
            assert np.max(np.abs(term @ term - 2.0 * term)) < 1e-12
            values = np.linalg.eigvalsh(term)
            assert np.all(np.min(np.abs(values[:, None] - np.array([0.0, 2.0])), axis=1) < 1e-12)
        assert np.max(np.abs(terms.total() - h)) < 1e-12
    # Ring spectrum law across sizes.
    for length in (4, 8, 16, 64):
        h = laplacian_matrix(laplacian_chain(length, periodic=True)[0], 2.0)
        observed = np.sort(np.linalg.eigvalsh(h))
        expected = np.sort(4.0 * np.sin(np.pi * np.arange(length) / length) ** 2)
        assert np.max(np.abs(observed - expected)) < 1e-10
    # Honeycomb (open patch and torus): at most d+1 colors, exactly d via
    # the bipartite pass, exact reconstruction.
    for periodic in (False, True):
        g = honeycomb_lattice(3, 4, periodic=periodic)
        coloring = color_edges(g)
        assert coloring.color_count <= g.max_degree + 1
        assert coloring.color_count == 3
        terms = decompose(g, *graph_laplacian(g), coloring)
        assert np.max(np.abs(terms.total() - laplacian_matrix(g))) == 0.0
    print("ACCEPTANCE 08 PASS - chain/ring/honeycomb decompositions verified")


def test_criterion_09_majority_amplification():
    start = time.perf_counter()
    for n in range(4, 4097):
        p = 1.0 / n
        for runs in range(1, 16, 2):
            assert majority_error_exact(p, runs) <= majority_bound(runs, n=n)
    for runs in (3, 5):
        exact = majority_error_exact(1.0 / 16.0, runs)
        est = simulate_majority(AmplificationPlan(1.0 / 16.0, runs, 1_000_000, seed=0))
        assert est.ci_low <= exact <= est.ci_high
    assert averaging_error(16, 1) == pytest.approx(1.0 / 16.0)
    assert averaging_error(16, 100) == pytest.approx(1.0 / 160.0)
    assert averaging_error(4096, 9) == pytest.approx(1.0 / (4096.0 * 3.0))
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    print(f"ACCEPTANCE 09 PASS - binomial tails below bound; Monte Carlo in CI ({elapsed:.1f}s)")


def test_criterion_10_efficiency_separation():
    ratios = []
    for eps in [10.0**-k for k in range(2, 13)]:
        # The search split at N = 1024 over its search time (pi/2) sqrt(N).
        cost = cost_report(1024, None, eps, 1.0, 1.0)["cost"]
        ratios.append(cost["grover"] / cost["trotter"])
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-10
    print(f"ACCEPTANCE 10 PASS - cost ratio falls monotonically to {ratios[-1]:.2e}")


def test_criterion_11_subspace_agreement():
    worst = 0.0
    for n in (64, 4096):
        steps = 2 * expected_peak_step(n)
        worst = max(worst, subspace_agreement(n, steps))
    assert worst < 1e-9
    print(f"ACCEPTANCE 11 PASS - full-space vs 2D deviation {worst:.2e} < 1e-9")
