# End-to-end checks of the experiment front end: exit codes, output file
# formats, determinism, and config/flag precedence.

import json
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hamsearch
from hamsearch import cli
from hamsearch.cli import EXIT_CLAIM, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from hamsearch.decompose import honeycomb_lattice, save_graph
from hamsearch.trotter import load_term_set


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
        assert main(["trajectory", "--samples", "1", "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION


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

    def test_needs_four_grid_points(self, tmp_path):
        rc = main(["trotter-scan", "--dt-grid", "0.2,0.1,0.05", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("grid", ["0.1,0.1,0.1,0.1", "0.2,0.1,0.1,0.05"])
    def test_needs_four_distinct_step_counts(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["trotter-scan", "--dt-grid", grid, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "distinct step counts" in capsys.readouterr().err
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

    def test_8192_site_torus_stays_small(self, tmp_path):
        # 64 x 64 periodic honeycomb: dense d x d terms would need 1 GiB
        # each. RUSAGE_CHILDREN reports the largest child waited for, and
        # this test starts exactly one.
        src = os.path.dirname(os.path.dirname(hamsearch.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        report_path = tmp_path / "report.json"
        argv = ["decompose", "--lattice", "honeycomb", "--cells-x", "64", "--cells-y", "64",
                "--periodic", "--out", str(tmp_path / "terms.json"), "--report", str(report_path)]
        proc = subprocess.run([sys.executable, "-m", "hamsearch.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        assert report["vertices"] == 8192 and report["color_count"] == 3
        peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        assert peak_mib < 200.0

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

    def test_rejected_runs_leave_no_output(self, tmp_path):
        out = tmp_path / "x.csv"
        rc = main(["grover", "--n", "64", "--runs", "2", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    def test_two_items_meet_the_bound(self, tmp_path, capsys):
        # At N = 2 every step leaves the success probability at 1/2 = 1 - 1/N,
        # so only round-off separates the peak from the bound.
        out = tmp_path / "x.csv"
        assert main(["grover", "--n", "2", "--out", str(out)]) == EXIT_OK, capsys.readouterr().err
        footer = _footer(out)
        assert footer["peak_probability"] == pytest.approx(0.5, abs=1e-12)
        assert footer["bound"] == 0.5


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
        assert main(["cost", "--eps", "2.0", "--out", str(tmp_path / "x.json")]) == EXIT_VALIDATION


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

    def test_io_failure_exit_code(self, tmp_path):
        rc = main(["equivalence", "--n-list", "4", "--samples", "4",
                   "--out", str(tmp_path / "missing" / "x.csv")])
        assert rc == EXIT_IO

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
        for value in ("yes", "off"):
            cfg = tmp_path / f"{value}.cfg"
            cfg.write_text(f"lattice = honeycomb\ncells_x = 2\ncells_y = 2\nperiodic = {value}\n")
            report = tmp_path / f"{value}.json"
            rc = main(["decompose", "--config", str(cfg), "--out", "-", "--report", str(report)])
            assert rc == EXIT_OK
            reports.append(json.loads(report.read_text()))
        assert [r["edges"] for r in reports] == [12, 8]

    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["equivalence", "--n-list", "4", "--samples", "3", "--out", str(out)]) == EXIT_OK
        line = out.read_text().splitlines()[2]
        assert "1.5707963267948966" in line  # t = pi/2 at 17 digits
