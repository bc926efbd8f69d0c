# End-to-end checks of the experiment front end: exit codes, output file
# formats, determinism, and config/flag precedence.

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import hamsearch
from hamsearch import amplify, cli, decompose, statevector, trotter
from hamsearch.cli import EXIT_CLAIM, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from hamsearch.decompose import honeycomb_lattice
from hamsearch.trotter import load_term_set
from oracles import PEAK_SCRIPT, reconstruction_residual, save_graph, seeds


# Invocations that between them take every branch that reads an option.
OPTION_RUNS = {
    "trajectory": ["--n 4 --samples 3"],
    "equivalence": ["--n-list 4 --samples 3"],
    "trotter-scan": ["--problem search-split --n 4 --t 1",
                     "--problem chain --length 4 --periodic"],
    "decompose": ["--lattice ring --length 4",
                  "--lattice honeycomb --cells-x 2 --cells-y 2 --periodic",
                  "--graph {graph.json}"],
    "grover": ["--n 16 --runs 3 --trials 10000 --seed 1 --measured-error "
               "--amplification-out {amp.csv}"],
    "cost": ["--n 16 --t 2 --step-cost 2 --grover-step-cost 3"],
}


def _scaled_scan_errors(monkeypatch):
    # Every measured error times 1e3: the slope stays, the bound breaks.
    scan = trotter.trotter_scan

    def scaled(*args):
        norm_e2, rows = scan(*args)
        return norm_e2, [(dt, steps, 1e3 * error) for dt, steps, error in rows]

    monkeypatch.setattr(trotter, "trotter_scan", scaled)


# One invocation per claim branch, the settings that make it fail and the
# words its stderr line must hold.
CLAIM_FAILURES = {
    "trajectory-endpoints": ("trajectory --n 4 --samples 3", {"ENDPOINT_TOL": -1.0},
                             "trajectory endpoints deviate"),
    "equivalence-residual": ("equivalence --n-list 4 --samples 3", {"RESIDUAL_LIMIT": -1.0},
                             "above -1.0e+00 at N=4"),
    "scan-commuting": ("trotter-scan --problem chain --length 2", {"ROUNDOFF_PER_STEP": -1.0},
                       "commuting split is off"),
    "scan-bound": ("trotter-scan --problem search-split --n 16", _scaled_scan_errors,
                   "above the slack-2 commutator bound"),
    "scan-slope": ("trotter-scan --problem search-split --n 16", {"SLOPE_WINDOW": (5.0, 6.0)},
                   "fitted slope"),
    "decompose-reconstruction": ("decompose --lattice chain --length 5 --report {report.json}",
                                 {"RECONSTRUCTION_LIMIT": -1.0},
                                 "reconstruction residual 0.000e+00 above -1e+00"),
    "decompose-spectrum": ("decompose --lattice ring --length 8 --report {report.json}",
                           {"SPECTRUM_LIMIT": -1.0}, "spectrum residual"),
    "grover-peak": ("grover --n 1024 --max-steps 3", {}, "peak probability"),
}


def _read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _footer(path):
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            return json.loads(line[2:])
    return None


class TestTrajectory:
    def test_endpoints_at_n4(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(["trajectory", "--n", "4", "--samples", "3", "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = _read_rows(out)
        assert header == ["t", "x_C", "y_C", "z_C", "x_G", "y_G", "z_G"]
        start = [np.sqrt(3.0) / 2.0, 0.0, -0.5]
        assert np.allclose(rows[0][1:4], start, atol=1e-9)
        assert np.allclose(rows[0][4:7], start, atol=1e-9)
        assert np.allclose(rows[-1][1:4], [0.0, 0.0, 1.0], atol=1e-9)
        assert np.allclose(rows[-1][4:7], [0.0, 0.0, 1.0], atol=1e-9)

    def test_points_stay_on_the_sphere(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["trajectory", "--n", "16", "--samples", "33", "--out", str(out)]) == EXIT_OK
        _, rows = _read_rows(out)
        for row in rows:
            assert abs(np.linalg.norm(row[1:4]) - 1.0) < 1e-9
            assert abs(np.linalg.norm(row[4:7]) - 1.0) < 1e-9

    def test_midpoints_differ_between_routes(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["trajectory", "--n", "16", "--samples", "33", "--out", str(out)]) == EXIT_OK
        _, rows = _read_rows(out)
        mid = rows[len(rows) // 2]
        assert np.linalg.norm(np.array(mid[1:4]) - np.array(mid[4:7])) > 0.1

    def test_validation_failure(self, tmp_path):
        out = tmp_path / "x.csv"
        for flag, value in (("--samples", "1"), ("--n", "1")):
            assert main(["trajectory", flag, value, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()


class TestEquivalence:
    def test_residual_table(self, tmp_path):
        out = tmp_path / "eq.csv"
        rc = main(["equivalence", "--n-list", "4,16", "--samples", "6", "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = _read_rows(out)
        assert header == ["N", "t", "Q_t", "beta", "residual"]
        assert len(rows) == 12
        assert max(row[4] for row in rows) < 1e-9
        assert rows[0][3] == pytest.approx(-np.pi / 4.0)

    def test_claim_failure_names_worst_point(self, tmp_path, capsys, monkeypatch):
        # With a zero limit every nonzero residual fails; stderr names the
        # largest one and its (N, t), and the table is written unchanged.
        monkeypatch.setattr(cli, "RESIDUAL_LIMIT", 0.0)
        out = tmp_path / "eq.csv"
        rc = main(["equivalence", "--n-list", "4,16", "--samples", "6", "--out", str(out)])
        assert rc == EXIT_CLAIM
        _, rows = _read_rows(out)
        n, t, _, _, residual = max(rows, key=lambda row: row[4])
        err = capsys.readouterr().err
        assert f"{residual:.3e}" in err
        assert f"at N={n:.0f}, t={t!r}" in err
        assert "at N=" not in out.read_text()

    def test_json_format(self, tmp_path):
        out = tmp_path / "eq.json"
        assert main(["equivalence", "--n-list", "4", "--samples", "4", "--format", "json",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["N", "t", "Q_t", "beta", "residual"]
        assert doc["max_residual"] < 1e-9


class TestTrotterScan:
    def test_search_split_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["trotter-scan", "--problem", "search-split", "--n", "16", "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = _read_rows(out)
        assert header == ["dt", "n", "error", "bound"]
        assert all(row[2] <= row[3] for row in rows)
        footer = _footer(out)
        assert 0.9 <= footer["slope"] <= 1.1

    def test_chain_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["trotter-scan", "--problem", "chain", "--length", "8", "--periodic",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert 0.9 <= _footer(out)["slope"] <= 1.1

    def test_commuting_split_is_exact(self, tmp_path, capsys):
        # The open 2-site chain splits into a block and a multiple of the
        # identity: the bound is 0, so the errors must be round-off and no
        # slope is fitted.
        out = tmp_path / "scan.csv"
        rc = main(["trotter-scan", "--problem", "chain", "--length", "2", "--out", str(out)])
        assert rc == EXIT_OK, capsys.readouterr().err
        _, rows = _read_rows(out)
        assert len(rows) == 4
        assert all(row[2] <= 1e-12 and row[3] == 0.0 for row in rows)
        footer = _footer(out)
        assert footer["commuting"] is True
        assert footer["slope"] is None
        assert footer["norm_e2"] == 0.0

    def test_four_site_ring_commutes(self, tmp_path, capsys):
        # Its two bond terms commute in both Bloch sectors.
        out = tmp_path / "scan.csv"
        rc = main(["trotter-scan", "--problem", "chain", "--length", "4", "--periodic",
                   "--out", str(out)])
        assert rc == EXIT_OK, capsys.readouterr().err
        footer = _footer(out)
        assert footer["commuting"] is True
        assert footer["slope"] is None
        assert footer["norm_e2"] == 0.0

    @pytest.mark.parametrize("argv", [
        "--length 4 --periodic --t 1000 --dt-grid 1,0.5,0.25,0.125",
        "--length 3 --t 1e-9 --dt-grid 1e-9,5e-10,2.5e-10,1.25e-10",
    ])
    def test_round_off_is_no_false_claim(self, tmp_path, capsys, argv):
        # The commuting ring's errors grow to 3.6e-12 at 8000 steps, about
        # 4.5e-16 a step; at t = 1e-9 the errors are 4.8e-16 of round-off
        # against bounds of 2.2e-18 and less, and show no slope. Both exited 3.
        out = tmp_path / "scan.csv"
        rc = main(["trotter-scan", "--problem", "chain", *argv.split(), "--out", str(out)])
        assert rc == EXIT_OK, capsys.readouterr().err
        _, rows = _read_rows(out)
        assert max(row[2] for row in rows) > 1e-16

    def test_long_ring_runs_on_sectors(self, tmp_path):
        # 4096 sites: a dense d x d term would take 256 MiB and each eigh
        # minutes; the 2048 Bloch sectors are 2x2.
        out = tmp_path / "scan.csv"
        rc = main(["trotter-scan", "--problem", "chain", "--length", "4096", "--periodic",
                   "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_rows(out)
        footer = _footer(out)
        assert footer["norm_e2"] == pytest.approx(1.0, rel=1e-12)
        assert 0.9 <= footer["slope"] <= 1.1
        assert all(0.0 < row[2] <= row[3] for row in rows)

    def test_needs_four_grid_points(self, tmp_path):
        out = tmp_path / "x.csv"
        for grid in ("0.2,0.1,0.05", "0.1,0.2"):
            assert main(["trotter-scan", "--dt-grid", grid, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    def test_step_cap(self, tmp_path, capsys):
        # 2 pi / 1e-7 steps for N = 16; the cap is checked before any evolution.
        out = tmp_path / "x.csv"
        rc = main(["trotter-scan", "--dt-grid", "1e-7,2e-7,4e-7,8e-7", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "above cap 10000000" in capsys.readouterr().err
        assert not out.exists()

    def test_step_cap_message_stays_short(self, tmp_path, capsys):
        # The exact count round(1e300 / 0.2) had 301 digits.
        out = tmp_path / "x.csv"
        rc = main(["trotter-scan", "--problem", "search-split", "--n", "16", "--t", "1e300",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "hamsearch: dt=0.2 needs 5e+300 steps, above cap 10000000\n"
        assert not out.exists()

    def test_step_count_past_the_float_range_is_refused(self, tmp_path, capsys):
        # T / 5e-324 overflows the float range: the count reads inf, with no
        # numpy overflow warning.
        out = tmp_path / "x.csv"
        assert main(["trotter-scan", "--dt-grid=5e-324", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "hamsearch: dt=4.94066e-324 needs inf steps, above cap 10000000\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.1,0.1,0.1,0.1", "0.2,0.1,0.1,0.05"])
    def test_needs_four_distinct_step_counts(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["trotter-scan", "--dt-grid", grid, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "distinct step counts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, dt", [("nan,0.1,0.05,0.025", "nan"),
                                          ("inf,0.1,0.05,0.025,0.0125", "inf"),
                                          ("0.2,0.1,0,0.025", "0")])
    def test_dt_must_be_positive_and_finite(self, tmp_path, capsys, grid, dt):
        # nan failed converting to an integer, with a message naming neither
        # the option nor the value; inf gave one step of size T and a slope
        # claim failure (exit 3).
        out = tmp_path / "x.csv"
        assert main(["trotter-scan", "--dt-grid", grid, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"hamsearch: dt values must be positive and finite, got {dt}\n")
        assert not out.exists()

    @pytest.mark.parametrize("t", ["inf", "nan", "0", "-1"])
    def test_total_time_must_be_positive_and_finite(self, tmp_path, capsys, t):
        # round(inf / dt) raised OverflowError, a traceback and exit 1.
        out = tmp_path / "x.csv"
        rc = main(["trotter-scan", "--problem", "search-split", "--n", "16", "--t", t,
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"hamsearch: total time must be positive and finite, got {t}\n"
        assert not out.exists()


class TestDecompose:
    def test_ring_term_set_and_report(self, tmp_path, capsys):
        out = tmp_path / "terms.json"
        rc = main(["decompose", "--lattice", "ring", "--length", "8", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["color_count"] == 2
        assert report["pass"] is True
        assert report["spectrum_residual"] < 1e-10
        assert max(report["projector_squaring_residuals"].values()) < 1e-12
        terms = load_term_set(out)
        assert terms.labels == ("color0", "color1")

    def test_honeycomb_report(self, tmp_path):
        out = tmp_path / "terms.json"
        report_path = tmp_path / "report.json"
        rc = main(["decompose", "--lattice", "honeycomb", "--cells-x", "3", "--cells-y", "4",
                   "--out", str(out), "--report", str(report_path)])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["vertices"] == 24
        assert report["color_count"] == 3
        assert report["bipartite"] is True
        assert report["reconstruction_residual"] < 1e-12

    def test_external_graph_input(self, tmp_path, capsys):
        graph = honeycomb_lattice(2, 2)
        gpath = tmp_path / "graph.json"
        save_graph(gpath, graph)
        out = tmp_path / "terms.json"
        rc = main(["decompose", "--graph", str(gpath), "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert load_term_set(out).dimension == 8

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_rejects_non_finite_weight(self, tmp_path, capsys, weight):
        gpath = tmp_path / "graph.json"
        gpath.write_text('{"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, %s]]}' % weight)
        out = tmp_path / "terms.json"
        rc = main(["decompose", "--graph", str(gpath), "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "edge (1, 2) has non-finite weight" in err
        assert "Hermitian" not in err
        assert not out.exists()

    @pytest.mark.parametrize("doc, named", [
        ('{"vertices": 3, "edges": [[0, 1.7, 1.0], [1, 2, 1.0]]}',
         "edge (0, 1.7) endpoint 1.7 is not an integer"),
        ('{"vertices": 3.9, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}', "vertex count 3.9"),
        ('{"vertices": 3, "edges": [[0, true, 1.0], [1, 2, 1.0]]}',
         "edge (0, True) endpoint True is not an integer"),
        ('{"vertices": 3, "edges": [[0, 1, 1.0]], "edges": [[1, 2, 1.0]]}', "key 'edges'"),
        # Rows are checked in order, so the first bad row is named, whatever its fault.
        ('{"vertices": 3, "edges": [[0, 7, 1.0], [0, 1.5, 1.0]]}',
         "edge (0, 7) outside vertex range"),
    ])
    def test_rejects_inexact_graph_documents(self, tmp_path, capsys, doc, named):
        gpath = tmp_path / "graph.json"
        gpath.write_text(doc)
        out, report = tmp_path / "terms.json", tmp_path / "report.json"
        rc = main(["decompose", "--graph", str(gpath), "--out", str(out), "--report", str(report)])
        assert rc == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("weight, named", [
        ("true", "edge (0, 1) weight True is not a float"),
        ('"2.5"', "edge (0, 1) weight '2.5' is not a float"),
        ("1" + "0" * 400, "edge (0, 1) weight 1000"),  # past the float range
    ])
    def test_rejects_weights_that_are_not_numbers(self, tmp_path, capsys, weight, named):
        # float() read true as 1.0 and "2.5" as 2.5, and raised OverflowError
        # past the float range.
        gpath = tmp_path / "graph.json"
        gpath.write_text('{"vertices": 3, "edges": [[0, 1, %s], [1, 2, 1.0]]}' % weight)
        out, report = tmp_path / "terms.json", tmp_path / "report.json"
        rc = main(["decompose", "--graph", str(gpath), "--out", str(out), "--report", str(report)])
        assert rc == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("edges", ["[[0, 1, 1e160], [1, 2, 1.0]]",
                                       "[[0, 1, -1e308], [0, 2, 1e308]]"])
    def test_rejects_weights_whose_blocks_square_past_the_float_range(self, tmp_path, capsys,
                                                                      edges):
        # These put numpy overflow warnings on stderr, then exited 2 with a
        # JSON message that named no edge.
        gpath = tmp_path / "graph.json"
        gpath.write_text('{"vertices": 3, "edges": %s}' % edges)
        out, report = tmp_path / "terms.json", tmp_path / "report.json"
        rc = main(["decompose", "--graph", str(gpath), "--out", str(out), "--report", str(report)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("hamsearch: edge (0, 1) weight ") and err.count("\n") == 1
        assert "2^511" in err
        assert not out.exists() and not report.exists()

    def test_large_finite_weights_run(self, tmp_path, capsys):
        gpath = tmp_path / "graph.json"
        gpath.write_text('{"vertices": 3, "edges": [[0, 1, 1e150], [1, 2, 1.0]]}')
        assert main(["decompose", "--graph", str(gpath), "--out", str(tmp_path / "t")]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_integral_float_endpoints_are_vertices(self, tmp_path, capsys):
        gpath = tmp_path / "graph.json"
        gpath.write_text('{"vertices": 3.0, "edges": [[0, 1.0, 1.0], [1, 2.0, 1.0]]}')
        assert main(["decompose", "--graph", str(gpath)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["edges"] == 2

    def test_open_chain_keeps_its_diagonal_term(self, tmp_path):
        out = tmp_path / "terms.json"
        report_path = tmp_path / "report.json"
        rc = main(["decompose", "--lattice", "chain", "--length", "5", "--out", str(out),
                   "--report", str(report_path)])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["terms"] == ["color0", "color1", "diagonal"]
        assert report["reconstruction_residual"] == 0.0
        h = load_term_set(out).total()
        assert np.array_equal(np.diag(h).real, [2.0] * 5)

    @settings(max_examples=80, deadline=None)
    @given(seeds)
    def test_reconstruction_residual_is_the_reference(self, seed):
        # Graphs with complex edge values (some zero) and diagonals that are drawn,
        # zero or the exact sums |h| per site: the check's residual is the one sum
        # over all entries, bit for bit.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        u, v = rng.integers(0, n, (2, 3 * n))
        keys = np.unique((np.minimum(u, v) * n + np.maximum(u, v))[u != v])
        graph = decompose.InteractionGraph.from_arrays(n, keys // n, keys % n, np.ones(keys.size))
        size = keys.size
        values = ((rng.normal(size=size) + 1j * rng.normal(size=size)) * (rng.random(size) < 0.8)
                  * 10.0 ** rng.integers(-3, 4, size))
        kind = int(rng.integers(0, 3))  # a drawn diagonal, a zero one, or the sums |h|
        diagonal = rng.normal(size=n) * 5 if kind == 0 else np.zeros(n)
        if kind == 2:
            np.add.at(diagonal, keys // n, np.abs(values))
            np.add.at(diagonal, keys % n, np.abs(values))
        terms = decompose.decompose(graph, values, diagonal)
        residual = cli._reconstruction_residual(terms, graph, values, diagonal)
        assert residual.hex() == reconstruction_residual(terms, graph, values, diagonal).hex()

    def test_a_block_off_every_edge_shows_in_the_residual(self):
        # The path 0-1 of value h and diagonal (1, 3, 0), matched exactly by a block
        # given on the pair (1, 0). A block on (2, 0), which is no edge, counts at its
        # entries' size, even where another such block cancels it in the terms' sum.
        h = 2.0 + 1.0j
        graph = decompose.InteractionGraph.from_arrays(3, [0], [1], [1.0])
        values, diagonal = np.array([h]), np.array([1.0, 3.0, 0.0])
        edge = trotter.BlockTerm(3, [[1, 0]], [[[3.0, h.conjugate()], [h, 1.0]]])
        stray = [trotter.BlockTerm(3, [[2, 0]], [[[0, s], [-s, 0]]]) for s in (0.5j, -0.5j)]
        for terms, check, reference in [([edge], 0.0, 0.0), ([edge, stray[0]], 0.5, 0.5),
                                        ([edge, *stray], 0.5, 0.0)]:
            term_set = trotter.HermitianTermSet(3, terms, [f"t{k}" for k in range(len(terms))])
            assert cli._reconstruction_residual(term_set, graph, values, diagonal) == check
            assert reconstruction_residual(term_set, graph, values, diagonal) == reference

    @pytest.mark.parametrize("case, vertices, colors, bound_mib",
                             [("torus", 8192, 3, 200.0), ("star", 8001, 8000, 100.0)],
                             ids=["torus", "star"])
    def test_large_decompositions_stay_small(self, tmp_path, case, vertices, colors, bound_mib):
        # The 64 x 64 periodic honeycomb, whose dense d x d terms would need 1 GiB
        # each, and an 8000-leaf star, whose 8000 color terms would need 500 MiB
        # with a (d,) diagonal each. The peak is read in the run's own process.
        src = os.path.dirname(os.path.dirname(hamsearch.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        report_path = tmp_path / "report.json"
        if case == "torus":
            source = ["--lattice", "honeycomb", "--cells-x", "64", "--cells-y", "64", "--periodic"]
        else:
            leaves = np.arange(1, vertices)
            save_graph(tmp_path / "star.json", decompose.InteractionGraph.from_arrays(
                vertices, np.zeros_like(leaves), leaves, np.ones(leaves.size)))
            source = ["--graph", str(tmp_path / "star.json")]
        argv = ["decompose", *source, "--out", str(tmp_path / "terms.json"),
                "--report", str(report_path)]
        proc = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        rc, peak_mib, _ = json.loads(proc.stdout)
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert report["vertices"] == vertices and report["color_count"] == colors
        assert peak_mib < bound_mib

    def test_term_file_and_report_are_written_together(self, tmp_path):
        # The term file streams into its temporary file; a report that cannot
        # be written leaves neither behind.
        out_dir = tmp_path / "D"
        out_dir.mkdir()
        rc = main(["decompose", "--lattice", "honeycomb", "--cells-x", "4", "--cells-y", "4",
                   "--periodic", "--out", str(out_dir / "t.json"),
                   "--report", str(out_dir / "missing" / "r.json")])
        assert rc == EXIT_IO
        assert list(out_dir.iterdir()) == []

    def test_term_file_to_a_device(self, capsys):
        rc = main(["decompose", "--lattice", "honeycomb", "--cells-x", "4", "--cells-y", "4",
                   "--periodic", "--out", os.devnull])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("lattice, bipartite", [("ring", True), ("chain", True),
                                                    ("graph", False)])
    def test_one_bipartition_per_run(self, tmp_path, capsys, monkeypatch, lattice, bipartite):
        # The report's "bipartite" comes from the coloring pass.
        calls = []
        find = decompose.bipartition
        monkeypatch.setattr(decompose, "bipartition", lambda g: calls.append(g) or find(g))
        gpath = tmp_path / "graph.json"
        save_graph(gpath, decompose.InteractionGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))))
        source = ["--graph", str(gpath)] if lattice == "graph" else ["--lattice", lattice]
        assert main(["decompose", *source, "--out", str(tmp_path / "t.json")]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["bipartite"] is bipartite
        assert len(calls) == 1

    @pytest.mark.parametrize("length", [8, 9])
    def test_periodic_chain_is_the_ring(self, tmp_path, length):
        # --periodic closes a chain, as in trotter-scan: the same term file
        # and report, spectrum check included, byte for byte.
        files = {}
        for name, lattice in (("chain", ["chain", "--periodic"]), ("ring", ["ring"])):
            out, report = tmp_path / f"{name}.json", tmp_path / f"{name}.report.json"
            assert main(["decompose", "--lattice", *lattice, "--length", str(length),
                         "--out", str(out), "--report", str(report)]) == EXIT_OK
            files[name] = (out.read_bytes(), report.read_bytes())
        assert files["chain"] == files["ring"]
        assert b"spectrum_residual" in files["chain"][1]

    def test_rejects_degenerate_ring(self, tmp_path):
        rc = main(["decompose", "--lattice", "ring", "--length", "2", "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_VALIDATION


class TestGrover:
    def test_curve_and_amplification(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["grover", "--n", "16", "--max-steps", "8", "--runs", "3",
                   "--trials", "20000", "--seed", "0", "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = _read_rows(out)
        assert header == ["step", "probability"]
        assert rows[0][1] == pytest.approx(1.0 / 16.0)
        footer = _footer(out)
        assert footer["peak_step"] == footer["expected_peak_step"] == 3
        assert footer["peak_probability"] >= 1.0 - 1.0 / 16.0
        amp_header, amp_rows = _read_rows(tmp_path / "curve.csv.amplification.csv")
        assert amp_header == ["R", "bound", "exact", "empirical", "ci95"]
        assert [row[0] for row in amp_rows] == [1.0, 3.0]
        assert amp_rows[1][1] == pytest.approx(1.0 / 64.0)

    def test_the_amplification_report_is_named_after_its_format(self, tmp_path):
        # Under --format json the default report name ends in .json, as its text is JSON.
        out = tmp_path / "curve.json"
        rc = main(["grover", "--n", "16", "--max-steps", "8", "--runs", "3", "--trials",
                   "20000", "--format", "json", "--out", str(out)])
        assert rc == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "curve.json", "curve.json.amplification.json"]
        report = json.loads((tmp_path / "curve.json.amplification.json").read_text())
        assert report["columns"] == ["R", "bound", "exact", "empirical", "ci95"]
        assert [row[0] for row in report["rows"]] == [1.0, 3.0]

    def test_measured_error_substitution(self, tmp_path):
        # With --measured-error the amplified per-run error is 1 - peak
        # probability (<= 1/N), so the exact column drops below the bound's.
        out = tmp_path / "curve.csv"
        rc = main(["grover", "--n", "16", "--max-steps", "8", "--runs", "3",
                   "--trials", "10000", "--measured-error", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_rows(tmp_path / "curve.csv.amplification.csv")
        from hamsearch.amplify import majority_error_exact

        assert rows[1][2] < majority_error_exact(1.0 / 16.0, 3)

    def test_claim_failure_when_window_misses_peak(self, tmp_path):
        rc = main(["grover", "--n", "1024", "--max-steps", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CLAIM

    def test_rejects_even_runs(self, tmp_path):
        rc = main(["grover", "--n", "16", "--runs", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [["--n", "64", "--runs", "2"],
                                      ["--n", "16", "--runs", "3", "--trials", "10"]],
                             ids=["even-runs", "too-few-trials"])
    def test_rejected_runs_leave_no_output(self, tmp_path, argv):
        # Every amplification plan is checked before the curve is written.
        rc = main(["grover", *argv, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_VALIDATION
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["--runs", "401"], "--runs 401 above the cap of 399"),
        (["--runs", "3", "--trials", str(2**30 + 1)],
         "--trials 1073741825 above the cap of 1073741824"),
        (["--trials", str(2**30 + 1)], "--trials 1073741825 above the cap of 1073741824"),
    ])
    def test_caps_come_before_any_plan_or_curve(self, tmp_path, capsys, monkeypatch, argv,
                                                message):
        def built(*args, **kwargs):
            raise AssertionError("built before the caps were checked")

        monkeypatch.setattr(amplify, "AmplificationPlan", built)
        monkeypatch.setattr(statevector, "success_curve", built)
        rc = main(["grover", "--n", "16", *argv, "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"hamsearch: {message}\n")
        assert not list(tmp_path.iterdir())

    def test_runs_at_the_cap_run(self, tmp_path):
        rc = main(["grover", "--n", "1024", "--runs", str(amplify.MAX_RUNS), "--trials", "10000",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_OK
        _, rows = _read_rows(tmp_path / "x.csv.amplification.csv")
        assert rows[-1][0] == amplify.MAX_RUNS

    def test_bound_past_the_float_power(self, tmp_path, capsys):
        # 1024^111 overflows a float: the power raised OverflowError, a
        # traceback and exit 1. The bound is 2^220 / 2^1110 = 2^-890.
        out = tmp_path / "x.csv"
        rc = main(["grover", "--n", "1024", "--runs", "221", "--trials", "10000",
                   "--out", str(out)])
        assert rc == EXIT_OK, capsys.readouterr().err
        _, rows = _read_rows(tmp_path / "x.csv.amplification.csv")
        assert rows[-1][:2] == [221.0, 2.0**-890]

    def test_curve_at_the_cap_runs_on_two_scalars(self, tmp_path, monkeypatch):
        # At N = 2^22 the curve needs no N-dimensional step: with the
        # vector loop taken away, its 3217 points still lie within 5e-15 of
        # the closed form sin^2((2k+1) asin(1/sqrt N)).
        def no_vector_loop(*args):
            raise AssertionError("the curve ran the N-dimensional step")

        monkeypatch.setattr(statevector, "_iterates", no_vector_loop)
        n = statevector.MAX_DIMENSION
        out = tmp_path / "curve.csv"
        rc = main(["grover", "--n", str(n), "--runs", "3", "--trials", "10000",
                   "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_rows(out)
        steps = np.array([row[0] for row in rows])
        closed_form = np.sin((2 * steps + 1) * np.arcsin(1.0 / np.sqrt(n))) ** 2
        assert len(rows) == 2 * statevector.expected_peak_step(n) + 1 == 3217
        assert np.max(np.abs(np.array([row[1] for row in rows]) - closed_form)) < 5e-15

    def test_two_items_meet_the_bound(self, tmp_path, capsys):
        # At N = 2 every step leaves the success probability at 1/2 = 1 - 1/N,
        # so only round-off separates the peak from the bound.
        out = tmp_path / "x.csv"
        assert main(["grover", "--n", "2", "--out", str(out)]) == EXIT_OK, capsys.readouterr().err
        footer = _footer(out)
        assert footer["peak_probability"] == pytest.approx(0.5, abs=1e-12)
        assert footer["bound"] == 0.5

    def test_two_items_measured_error_is_a_valid_rate(self, tmp_path, capsys):
        # The N = 2 peak reads 1/2 less one rounding, so 1 - peak lies just
        # above 1/2; the measured per-run error is clipped back to 1/2.
        out = tmp_path / "x.csv"
        rc = main(["grover", "--n", "2", "--runs", "3", "--trials", "10000",
                   "--measured-error", "--out", str(out)])
        assert rc == EXIT_OK, capsys.readouterr().err
        header, rows = _read_rows(tmp_path / "x.csv.amplification.csv")
        assert header == ["R", "bound", "exact", "empirical", "ci95"]
        assert [row[:3] for row in rows] == [[1.0, 0.5, 0.5], [3.0, 1.0, 0.5]]


class TestCost:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "cost.json"
        rc = main(["cost", "--n", "1024", "--eps", "1e-9", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["grover"]["runs"] == 7
        assert doc["cost"]["ratio_grover_over_trotter"] < 1e-6
        assert doc["convention"] == {
            "queries_per_trotter_step": 2,
            "queries_per_grover_step": 1,
        }
        assert doc["b"] >= 1 and doc["n"] >= 1

    def test_ratio_shrinks_with_budget(self, tmp_path):
        ratios = []
        for k, eps in enumerate(("1e-4", "1e-8", "1e-12")):
            out = tmp_path / f"cost{k}.json"
            assert main(["cost", "--n", "1024", "--eps", eps, "--out", str(out)]) == EXIT_OK
            ratios.append(json.loads(out.read_text())["cost"]["ratio_grover_over_trotter"])
        assert ratios[0] > ratios[1] > ratios[2]

    def test_validation(self, tmp_path):
        out = tmp_path / "x.json"
        for flag, value in (("--eps", "2.0"), ("--eps", "0"), ("--t", "0"), ("--n", "2"),
                            ("--step-cost", "-1"), ("--grover-step-cost", "-1")):
            assert main(["cost", flag, value, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("t", ["1e160", "1e200", "inf"])
    def test_step_count_overflow(self, tmp_path, capsys, t):
        # t^2 overflows (a float power raised OverflowError, a traceback and
        # exit 1), or t is infinite and the step count cannot be an integer.
        out = tmp_path / "x.json"
        assert main(["cost", "--n", "1024", "--t", t, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("hamsearch: ") and err.count("\n") == 1
        assert "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("n, eps", [(3, "0.3"), (4, "0.2")])
    def test_small_n_budget_below_one_over_n(self, tmp_path, capsys, n, eps):
        # For N <= 4 the majority bound never falls below 1/N; the run
        # search went up to MAX_RUNS and blamed the run cap.
        out = tmp_path / "x.json"
        assert main(["cost", "--n", str(n), "--eps", eps, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"hamsearch: no run count meets the budget {eps} at n={n}: "
            f"the majority bound stays at or above 1/{n}\n")
        assert not out.exists()

    def test_runs_past_the_float_power(self, tmp_path, capsys):
        # eps = 1e-300 needs R = 249 <= MAX_RUNS runs; the bound's float power
        # 1024^125 overflowed on the way (a traceback and exit 1), and so did
        # the register width's n l / eps.
        out = tmp_path / "cost.json"
        assert main(["cost", "--n", "1024", "--eps", "1e-300", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        assert doc["grover"]["runs"] == 249
        assert 2 ** (doc["b"] - 1) < Fraction(doc["n"] * 2) / Fraction(1e-300) <= 2 ** doc["b"]

    @pytest.mark.parametrize("flag, cost", [("--step-cost", "Trotter cost"),
                                            ("--grover-step-cost", "Grover cost")])
    def test_cost_must_be_finite(self, tmp_path, capsys, flag, cost):
        # The product overflowed with a numpy RuntimeWarning, and the JSON
        # writer's message named neither the option nor the cost.
        out = tmp_path / "x.json"
        assert main(["cost", "--n", "1024", flag, "1e308", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"hamsearch: {cost} (") and err.count("\n") == 1
        assert "step cost 1e+308) is not finite" in err
        assert not out.exists()

    def test_ratio_must_be_finite(self, tmp_path, capsys):
        # A subnormal step cost leaves the Trotter cost tiny but nonzero, and
        # the ratio overflowed into the JSON writer's message.
        out = tmp_path / "x.json"
        assert main(["cost", "--n", "1024", "--step-cost", "5e-324",
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "hamsearch: cost ratio Grover/Trotter at step cost 4.94066e-324 is not finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--step-cost", "0"), ("--t", "1e-200")])
    def test_zero_trotter_cost_gives_a_null_ratio(self, tmp_path, flag, value):
        # A zero step cost, or t^2 underflowing to 0, makes the Trotter cost
        # 0; the report must stay valid JSON, without Infinity or NaN.
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        out = tmp_path / "cost.json"
        assert main(["cost", flag, value, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["cost"]["trotter"] == 0.0
        assert doc["cost"]["ratio_grover_over_trotter"] is None


class TestClaimFailures:
    @pytest.mark.parametrize("name", list(CLAIM_FAILURES))
    def test_writes_outputs_and_names_the_claim(self, tmp_path, capsys, monkeypatch, name):
        # A failed claim still writes every output, exits 3 and says which
        # claim failed on one prefixed stderr line.
        command, setting, words = CLAIM_FAILURES[name]
        if callable(setting):
            setting(monkeypatch)
        else:
            for constant, value in setting.items():
                monkeypatch.setattr(cli, constant, value)
        argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in command.split()]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_CLAIM
        err = capsys.readouterr().err
        assert err.startswith("hamsearch: ") and err.count("\n") == 1
        assert words in err
        assert out.stat().st_size > 0
        if command.startswith("decompose"):
            assert json.loads((tmp_path / "report.json").read_text())["pass"] is False


class TestPlumbing:
    def test_deterministic_bytes_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = main(["grover", "--n", "64", "--max-steps", "12", "--runs", "3",
                       "--trials", "10000", "--seed", "42", "--out", str(path)])
            assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        amp_a = (tmp_path / "a.csv.amplification.csv").read_bytes()
        amp_b = (tmp_path / "b.csv.amplification.csv").read_bytes()
        assert amp_a == amp_b

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path, capsys, monkeypatch):
        # main builds its parser once per process. Calls in sequence, with
        # other subcommands, flags and config files between them, each give
        # the stdout, stderr, files and exit code of a call in a new process.
        calls = [
            "decompose --lattice honeycomb --cells-x 5 --out h.json",
            "decompose --graph g.json --out g.terms.json --report g.report.json",
            "trajectory --config t.cfg --out t.json",
            "grover --n 16 --runs 3 --trials 10000 --seed 1",
            "grover --n 16 --runs 401",
            "decompose --lattice ring --cells-x 2",
            "equivalence --n-list 4,16 --samples 3 --format json --out e.json",
            "trotter-scan --problem chain --length 6 --config s.cfg",
            "trajectory --samples 1",
            "trajectory --frobnicate",
            "cost --n 64 --config c.cfg",
            "decompose --graph g.json --lattice chain",
        ]
        inputs = {"t.cfg": "n = 16\nsamples = 5\nformat = json\n", "s.cfg": "periodic = true\n",
                  "c.cfg": "eps = 1e-3\nunknown = 1\n"}
        src = os.path.dirname(os.path.dirname(hamsearch.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        results = {}
        for name in ("sequence", "fresh"):
            run = tmp_path / name
            run.mkdir()
            save_graph(run / "g.json", decompose.InteractionGraph(
                4, ((0, 1, 1.0), (1, 2, 0.5), (0, 2, 2.0), (2, 3, 1.0))))
            for file, text in inputs.items():
                (run / file).write_text(text)
            monkeypatch.chdir(run)
            seen = []
            for call in calls:
                if name == "sequence":
                    code = main(call.split())
                    out, err = capsys.readouterr()
                else:
                    proc = subprocess.run([sys.executable, "-m", "hamsearch.cli", *call.split()],
                                          env=env, capture_output=True, text=True, timeout=60)
                    code, out, err = proc.returncode, proc.stdout, proc.stderr
                seen.append((call, code, out, err))
            files = {p.name: p.read_bytes() for p in sorted(run.iterdir())}
            results[name] = seen, files
        assert results["sequence"] == results["fresh"]
        codes = [code for _, code, _, _ in results["sequence"][0]]
        assert codes == [0, 0, 0, 0, 2, 2, 0, 0, 2, 2, 2, 2]

    def test_a_replaced_handler_is_the_one_run(self, capsys, monkeypatch):
        # The parser outlives a call; the handler is looked up at each one.
        assert main(["cost", "--n", "16"]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_cost", lambda args: ([("-", f"replaced {args.n}\n")], None))
        assert main(["cost", "--n", "16"]) == EXIT_OK
        assert capsys.readouterr().out == "replaced 16\n"

    def test_io_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        rc = main(["equivalence", "--n-list", "4", "--samples", "4", "--out", str(out)])
        assert rc == EXIT_IO
        assert str(out) in capsys.readouterr().err

    def test_help_exits_0_and_prints_the_usage(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("usage: hamsearch ") and "{trajectory," in out and err == ""

    def test_a_failed_edge_coloring_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                               monkeypatch):
        def fail(graph):
            raise AssertionError("color 1 meets vertex 0 twice")

        monkeypatch.setattr(decompose, "color_edges", fail)
        argv = ["decompose", "--lattice", "ring", "--length", "4",
                "--out", str(tmp_path / "terms.json"), "--report", str(tmp_path / "report.json")]
        assert main(argv) == EXIT_CLAIM
        assert capsys.readouterr() == (
            "", "hamsearch: edge coloring failed: color 1 meets vertex 0 twice\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, message", [
        ("equivalence --samples 1", "need at least 2 samples"),
        ("equivalence --n-list , --samples 3", "N list is empty"),
    ])
    def test_input_checks_exit_2_with_their_messages(self, tmp_path, capsys, command, message):
        out = tmp_path / "out.csv"
        assert main([*command.split(), "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"hamsearch: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, code", [
        ("equivalence --n-list 1,4", EXIT_VALIDATION),
        ("equivalence --n-list 4,x", EXIT_VALIDATION),
        ("equivalence --n-list 4,4", EXIT_VALIDATION),
        ("trotter-scan --dt-grid 0.1,0.2,x,0.3", EXIT_VALIDATION),
        ("trotter-scan --dt-grid 0.2,0.2,0.1,0.05,0.025", EXIT_VALIDATION),
        ("trotter-scan --problem chain --length 4097", EXIT_VALIDATION),
        ("decompose --lattice ring --length 4098", EXIT_VALIDATION),
        ("trotter-scan --problem chain --length 1", EXIT_VALIDATION),
        ("grover --n 1", EXIT_VALIDATION),
        ("grover --max-steps 0", EXIT_VALIDATION),
        ("grover --max-steps 100000000", EXIT_VALIDATION),
        ("grover --n 64 --target 64", EXIT_VALIDATION),
        ("grover --n 16 --runs 1 --trials 10000 --seed 18446744073709551616", EXIT_VALIDATION),
        ("cost --n 1024 --step-cost 5e-324", EXIT_VALIDATION),
        ("decompose --graph {malformed.json}", EXIT_VALIDATION),
        ("equivalence --config {utf16.cfg}", EXIT_VALIDATION),
        ("decompose --graph {missing.json}", EXIT_IO),
        ("equivalence --config {missing.cfg}", EXIT_IO),
        ("grover --n 16 --runs 3 --trials 10000 --amplification-out {missing/x}", EXIT_IO),
        ("decompose --report {missing/x}", EXIT_IO),
    ])
    def test_invalid_input_exit_codes(self, tmp_path, capsys, command, code):
        # Each failure has one exit code and one "hamsearch: ..." line that
        # names the input file it concerns, and nothing is written, not even
        # the outputs that could have been.
        (tmp_path / "malformed.json").write_text('{"vertices": 2, "edges": [[0, 1')
        (tmp_path / "utf16.cfg").write_bytes("samples = 3\n".encode("utf-16"))
        inputs = sorted(tmp_path.iterdir())
        argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in command.split()]
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("hamsearch: ") and err.count("\n") == 1
        assert all(a in err for a in argv if a.startswith(str(tmp_path)))
        assert sorted(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("command", [
        "trajectory --n {n}", "equivalence --n-list 4,{n}",
        "trotter-scan --problem search-split --n {n}", "grover --n {n}", "cost --n {n}"])
    def test_database_size_of_2_to_the_64_is_rejected(self, tmp_path, capsys, command):
        # numpy's sqrt raised TypeError on an integer past uint64.
        n = 2**64
        out = tmp_path / "out.txt"
        assert main([*command.format(n=n).split(), "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"hamsearch: database size N={n} is not below 2^64\n"
        assert list(tmp_path.iterdir()) == []

    def test_database_size_below_2_to_the_64_runs(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["trajectory", "--n", str(2**64 - 1), "--samples", "3",
                     "--out", str(out)]) == EXIT_OK
        assert out.exists()

    def test_cli_import_loads_no_pool_modules(self):
        # setup_s: concurrent.futures alone costs about 6 ms and 0.65 MiB on
        # every import; equivalence's shares and the Monte Carlo fork with plain
        # os.fork (hamsearch._on_forks). The CSV kernel, about 1.5 ms to load,
        # is imported by the first table that uses it.
        probe = ("import sys, hamsearch.cli\n"
                 "print(sorted({'concurrent.futures', 'multiprocessing', 'hamsearch.csvcells'}"
                 " & set(sys.modules)))\n")
        src = os.path.dirname(os.path.dirname(hamsearch.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_cli_import_loads_no_dataclasses(self):
        # setup_s: the records are plain classes on hamsearch._Record, so the
        # import loads no dataclasses module and builds no dataclass (0.5-1 ms each).
        src = os.path.dirname(os.path.dirname(hamsearch.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

        def loads_dataclasses(module):
            probe = f"import sys, {module}\nprint('dataclasses' in sys.modules)\n"
            proc = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout == "True\n"

        if loads_dataclasses("numpy"):
            pytest.skip("a bare import numpy already loads dataclasses")
        assert not loads_dataclasses("hamsearch.cli")

    @pytest.mark.parametrize("spelling", ["dotted", "symlink"])
    def test_two_outputs_to_one_file_are_rejected(self, tmp_path, capsys, spelling):
        # The second table would silently replace the first.
        out = tmp_path / "same.csv"
        other = tmp_path / "sub" / ".." / "same.csv"
        if spelling == "symlink":
            other = tmp_path / "link.csv"
            other.symlink_to(out)
        (tmp_path / "sub").mkdir()
        inputs = sorted(tmp_path.iterdir())
        rc = main(["grover", "--n", "16", "--runs", "3", "--trials", "10000",
                   "--out", str(out), "--amplification-out", str(other)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"hamsearch: two outputs go to the same file {other}\n"
        assert sorted(tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("command, option, value", [
        ("equivalence", "n_list", "4,x"), ("trotter-scan", "dt_grid", "0.1,0.2,x,0.3")])
    def test_bad_list_names_its_option(self, tmp_path, capsys, command, option, value):
        # The same message whether the list comes from a flag or a config file.
        flag = "--" + option.replace("_", "-")
        kind = "int_list" if option == "n_list" else "float_list"
        message = f"hamsearch: argument {flag}: invalid {kind} value: '{value}'\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        for argv in ([flag, value], ["--config", str(cfg)]):
            assert main([command, *argv]) == EXIT_VALIDATION
            assert capsys.readouterr().err == message

    @pytest.mark.parametrize("command, option, value, message", [
        ("equivalence", "n_list", "16,4,16", "argument --n-list: repeated value 16"),
        ("trotter-scan", "dt_grid", "0.2,0.2,0.1,0.05,0.025",
         "dt=0.2 repeats the step count 31 of an earlier dt; the grid needs distinct step counts"),
        ("trotter-scan", "dt_grid", "0.2,0.1,0.0999,0.05,0.025",
         "dt=0.0999 repeats the step count 63 of an earlier dt; the grid needs distinct step "
         "counts")], ids=["n-list", "dt-grid", "dt-grid-rounding"])
    def test_repeated_grid_value_is_named(self, tmp_path, capsys, command, option, value,
                                          message):
        # A repeated value would repeat output rows; for a dt grid that is a
        # repeated step count. A flag and a config line fail alike.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        for argv in (["--" + option.replace("_", "-"), value], ["--config", str(cfg)]):
            assert main([command, *argv]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"hamsearch: {message}\n"

    @pytest.mark.parametrize("argv, d", [
        ("decompose --lattice ring --length 4098", 4098),
        ("decompose --lattice ring --length 65536", 65536),
        ("trotter-scan --problem chain --length 4097", 4097),
        ("trotter-scan --problem chain --length 4099 --periodic", 4099)])
    def test_dense_cap_stops_before_allocating(self, capsys, argv, d):
        # Each of these needs a dense d x d term (256 MiB and up); the cap
        # is checked before any of it is allocated.
        tracemalloc.start()
        try:
            rc = main(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_VALIDATION
        cap = trotter.MAX_DENSE_DIMENSION
        assert capsys.readouterr().err == f"hamsearch: dense term of d={d} exceeds the cap {cap}\n"
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("argv, message", [
        ("trajectory --samples 1000000000",
         f"--samples 1000000000 above the cap of {cli.MAX_ROWS} table rows"),
        ("trajectory --samples 1048578", "--samples 1048578 above the cap of 1048577 table rows"),
        ("equivalence --n-list 4 --samples 1000000000",
         f"--n-list x --samples = 1 x 1000000000 table rows, above the cap of {cli.MAX_ROWS}"),
        ("equivalence --n-list 4,16 --samples 600000",
         "--n-list x --samples = 2 x 600000 table rows, above the cap of 1048577"),
        ("decompose --lattice chain --length 1000000000",
         f"chain length 1000000000 above the site cap {trotter.MAX_SITES}"),
        ("decompose --lattice ring --length 1048577",
         "chain length 1048577 above the site cap 1048576"),
        ("trotter-scan --problem chain --length 1000000000",
         "chain length 1000000000 above the site cap 1048576"),
        ("decompose --lattice honeycomb --cells-x 100000 --cells-y 100000",
         "honeycomb of 100000 x 100000 cells has 20000000000 sites, above the site cap 1048576"),
        ("decompose --graph {big.json}", "vertex count 100000000 above the site cap 1048576"),
        ("grover --n 16 --runs 1000000001 --trials 10000",
         f"--runs 1000000001 above the cap of {amplify.MAX_RUNS}"),
        ("grover --n 16 --runs 3 --trials 1000000000000000",
         f"--trials 1000000000000000 above the cap of {amplify.MAX_TRIALS}"),
    ])
    def test_sizes_over_a_cap_exit_2_before_allocating(self, tmp_path, capsys, argv, message):
        # Each of these raised MemoryError (exit 1 with a traceback) or was
        # killed for memory: np.linspace, a chain's or a honeycomb's edge
        # list, neighbors() on a 40-byte document, or grover's list of one
        # plan per odd run count. The trial count would have run for months.
        (tmp_path / "big.json").write_text('{"vertices":100000000,"edges":[[0,1,1]]}')
        argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv.split()]
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            rc = main([*argv, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"hamsearch: {message}\n")
        assert not out.exists()
        assert peak < 16 * 2**20

    def test_traced_names_resolve_after_the_cli_import(self):
        # The benchmark's traced mode imports hamsearch.cli alone, then loads
        # perfbench/tracing.py and wraps every name of its TRACED found in
        # sys.modules["hamsearch.<module>"]. A fresh process does the same, and
        # every name must be wrapped; no bytecode is written next to perfbench.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        probe = ("import importlib.util, sys, hamsearch.cli\n"
                 "spec = importlib.util.spec_from_file_location('tracing', sys.argv[1])\n"
                 "tracing = importlib.util.module_from_spec(spec)\n"
                 "spec.loader.exec_module(tracing)\n"
                 "tracing.Tracer().install()\n"
                 "for name in tracing.SPAN_NAMES:\n"
                 "    module, fn = name.split('.')\n"
                 "    fn = getattr(sys.modules['hamsearch.' + module], fn)\n"
                 "    if not hasattr(fn, '__wrapped__'):\n"
                 "        print(name)\n")
        src = os.path.dirname(os.path.dirname(hamsearch.__file__))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", probe,
                               os.path.join(root, "perfbench", "tracing.py")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", list(OPTION_RUNS))
    def test_every_option_is_read(self, tmp_path, capsys, command):
        # Every option a subcommand parses, bar the command and the config
        # file, is read by its handler on at least one of its OPTION_RUNS.
        save_graph(tmp_path / "graph.json", honeycomb_lattice(2, 2))
        parser, commands = cli.build_parser()
        assert set(commands) == set(OPTION_RUNS)
        reads = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        options, read = set(), set()
        for run in OPTION_RUNS[command]:
            argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in run.split()]
            args = parser.parse_args([command, *argv, "--out", str(tmp_path / "out")],
                                     namespace=Recorder())
            options |= set(vars(args)) - {"command", "config"}
            reads.clear()
            _, failure = commands[command](args)
            assert failure is None
            read |= reads
        capsys.readouterr()
        assert sorted(options - read) == []

    @pytest.mark.parametrize("argv, flag", [
        ("decompose --graph {graph.json} --lattice chain --periodic --length 5", "--lattice"),
        ("decompose --graph {graph.json} --periodic", "--periodic"),
        ("decompose --graph {graph.json} --cells-y 2", "--cells-y"),
        ("decompose --lattice honeycomb --length 5", "--length"),
        ("decompose --lattice chain --cells-x 2", "--cells-x"),
        ("decompose --cells-y 2", "--cells-y"),
        ("trotter-scan --problem search-split --periodic --length 9", "--length"),
        ("trotter-scan --periodic", "--periodic"),
        ("trotter-scan --problem chain --n 32", "--n")])
    def test_option_of_another_branch_is_rejected(self, tmp_path, capsys, argv, flag):
        # An option that the chosen input or problem does not read exits 2,
        # named on stderr, before anything is written.
        save_graph(tmp_path / "graph.json", honeycomb_lattice(2, 2))
        argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv.split()]
        out, report = tmp_path / "out", tmp_path / "report"
        extra = ["--report", str(report)] if argv[0] == "decompose" else []
        assert main([*argv, "--out", str(out), *extra]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"hamsearch: {flag} does not apply to ") and err.count("\n") == 1
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("short, full", [
        ("decompose", "decompose --lattice ring --length 8"),
        ("decompose --lattice chain", "decompose --lattice chain --length 8"),
        ("decompose --lattice ring --periodic", "decompose --lattice ring --length 8"),
        ("decompose --lattice honeycomb", "decompose --lattice honeycomb --cells-x 3 --cells-y 4"),
        ("trotter-scan", "trotter-scan --problem search-split --n 16"),
        ("trotter-scan --problem chain", "trotter-scan --problem chain --length 8")])
    def test_defaults_of_the_branch_options(self, tmp_path, short, full):
        # The branch options default to None and each branch fills in its
        # own defaults: leaving one out gives the bytes of naming its default.
        outputs = []
        for name, argv in (("short", short), ("full", full)):
            out, report = tmp_path / f"{name}.out", tmp_path / f"{name}.report"
            extra = ["--report", str(report)] if argv.startswith("decompose") else []
            assert main([*argv.split(), "--out", str(out), *extra]) == EXIT_OK
            outputs.append([path.read_bytes() for path in (out, report) if path.exists()])
        assert outputs[0] == outputs[1]

    def test_unknown_flag_exits_validation(self, capsys):
        assert main(["equivalence", "--frobnicate"]) == EXIT_VALIDATION
        capsys.readouterr()

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep setup\nn-list = 4,16\nsamples = 5\n")
        out = tmp_path / "eq.csv"
        rc = main(["equivalence", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_rows(out)
        assert len(rows) == 10

    def test_cli_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 5\nn_list = 4\n")
        out = tmp_path / "eq.csv"
        rc = main(["equivalence", "--config", str(cfg), "--samples", "3", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_rows(out)
        assert len(rows) == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert main(["equivalence", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "frobnicate" in capsys.readouterr().err

    def test_repeated_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\nsamples = 5\nn = 64\n")
        out = tmp_path / "t.csv"
        assert main(["trajectory", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert f"{cfg}:3: config key 'n' repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, line", [("equivalence", "format = xml"),
                                               ("trotter-scan", "problem = foo")])
    def test_config_values_meet_the_flag_checks(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()

    def test_config_flag_needs_a_true_value(self, tmp_path):
        reports = []
        for value in ("yes", "off", "On", "TRUE", "1", "No", "False", "0"):
            cfg = tmp_path / f"{value}.cfg"
            cfg.write_text(f"lattice = honeycomb\ncells_x = 2\ncells_y = 2\nperiodic = {value}\n")
            report = tmp_path / f"{value}.json"
            rc = main(["decompose", "--config", str(cfg), "--out", "-", "--report", str(report)])
            assert rc == EXIT_OK
            reports.append(json.loads(report.read_text()))
        assert [r["edges"] for r in reports] == [12, 8, 12, 12, 12, 8, 8, 8]

    @pytest.mark.parametrize("value", ["banana", ""])
    def test_config_flag_rejects_other_words(self, tmp_path, capsys, value):
        # As --periodic=banana does: exit 2, the line and the key named, nothing written.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lattice = honeycomb\ncells_x = 2\ncells_y = 2\nperiodic = {value}\n")
        report = tmp_path / "report.json"
        rc = main(["decompose", "--config", str(cfg), "--out", "-", "--report", str(report)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr() == ("", (
            f"hamsearch: {cfg}:4: config key 'periodic' is a flag: {value!r} is not one of "
            "1/true/yes/on or 0/false/no/off\n"))
        assert not report.exists()

    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["equivalence", "--n-list", "4", "--samples", "3", "--out", str(out)]) == EXIT_OK
        line = out.read_text().splitlines()[2]
        assert "1.5707963267948966" in line  # t = pi/2 at 17 digits
