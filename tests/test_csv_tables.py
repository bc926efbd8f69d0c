# Tables as CSV and as JSON: the bytes against a per-row '%.17g' reference and
# against json.dumps, for generic tables, formatted where they are written, and
# for equivalence, whose shares compute their own rows on every usable CPU, with
# forked workers that succeed and that fail, no worker left after main, and the
# peak memory of the largest table; and the CSV kernel against '%.17g' cell by cell.
# Any warning fails these tests (pyproject.toml), the fork warning of Python
# 3.12 included.

import argparse
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hamsearch
from hamsearch import cli, csvcells
from oracles import PEAK_SCRIPT, table_text_reference
from test_golden import SUBSPACE

THRESHOLD = 4  # rows per worker share while a test runs
CPUS = 3
FORMATS = ("csv", "json")
EQUIVALENCE = ["N", "t", "Q_t", "beta", "residual"]
PIN_SHARES = {"trajectory": 1, "equivalence-sweep": 3}  # shares of the large pins

# Finite doubles, with the cases '%.17g' spells out differently.
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.225073858507201e-308, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1e300, 1e-300, 0.1, 1.0, 65536.0]))


# Any double, drawn as its 64 bits or from the range the CSV kernel spells itself, and
# the special values CSV also writes.
DOUBLES = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1).map(
        lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
    st.floats(min_value=-1e16, max_value=1e16))
NON_FINITE = st.sampled_from([np.inf, -np.inf, np.nan])


def _env():
    src = os.path.dirname(os.path.dirname(hamsearch.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.fixture
def forks(monkeypatch):
    # Shares of THRESHOLD rows on CPUS CPUs, in chunks of two rows, CSV tables of 6 cells
    # or more through the kernel in blocks of 6 cells; counts the forks.
    monkeypatch.setattr(cli, "SHARE_ROWS", THRESHOLD)
    monkeypatch.setattr(hamsearch, "CHUNK_ROWS", 2)
    monkeypatch.setattr(hamsearch, "CSV_CELLS", 6)
    monkeypatch.setattr(hamsearch, "usable_cpus", lambda: CPUS)
    made = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    return made


@st.composite
def tables(draw, cells=CELLS):
    # (columns, rows, extra) of 0 to 3 x THRESHOLD rows and 1 to 7 columns.
    width = draw(st.integers(min_value=1, max_value=7))
    count = draw(st.integers(min_value=0, max_value=3 * THRESHOLD))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                         min_size=count, max_size=count))
    extra = draw(st.one_of(st.none(), st.just({"limit": 1e-9, "max": -0.0})))
    return [f"c{k}" for k in range(width)], rows, extra


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables(), st.sampled_from(FORMATS))
@example(table=(["c0", "c1"], [], {"limit": 1e-9}), fmt="json")  # "rows": []
def test_bytes_match_the_per_row_reference(forks, table, fmt):
    columns, rows, extra = table
    forks.clear()
    text = "".join(cli._table_text(fmt, columns, rows, extra))
    assert text.encode() == table_text_reference(columns, rows, extra, fmt).encode()
    assert forks == []  # a table is formatted by the process that writes it


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables(st.one_of(CELLS, NON_FINITE)))
def test_non_finite_csv_cells_match_the_per_row_reference(forks, table):
    columns, rows, extra = table
    text = "".join(cli._table_text("csv", columns, rows, extra))
    assert text == table_text_reference(columns, rows, extra, "csv")


def test_a_non_finite_cell_of_a_kernel_sized_table_matches_the_reference():
    # 3000 x 3 cells: at least CSV_CELLS, so the kernel writes them unpatched, in two blocks.
    rows = np.random.default_rng(5).standard_normal((3000, 3))
    rows[::7, 0], rows[3::11, 1], rows[5::13, 2] = np.inf, -np.inf, np.nan
    assert rows.size >= hamsearch.CSV_CELLS
    text = "".join(cli._table_text("csv", ["a", "b", "c"], rows, {"n": 2}))
    assert text == table_text_reference(["a", "b", "c"], rows.tolist(), {"n": 2}, "csv")


def _kernel_text(values):
    # The kernel's text of values, a ',' after each, and '%.17g' % value's.
    values = np.asarray(values, dtype=float)
    text = csvcells._csv_block(values, np.full(len(values), ord(","), np.uint8))
    return text, "".join("%.17g," % v for v in values.tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(DOUBLES, CELLS), min_size=1, max_size=40))
@example([9.9999999999999995e-5, 99999999999999999.0, 0.0, -0.0, 5e-324, -2.2250738585072e-308])
def test_the_csv_kernel_writes_each_double_as_percent_does(values):
    got, expected = _kernel_text(values)
    assert got == expected


def test_the_csv_kernel_at_powers_of_ten_and_ties():
    # 10^k and its neighbours for every k a double reaches, and (k + 1/2) x 2^-j, whose
    # last digit can sit on a tie of the 17th.
    tens = np.array([float(f"1e{k}") for k in range(-330, 309)])
    ties = (np.arange(64)[:, None] + 0.5) * 2.0 ** -np.arange(100.0)
    for values in (tens, np.nextafter(tens, np.inf), np.nextafter(tens, -np.inf), ties.ravel()):
        for sign in (1.0, -1.0):
            got, expected = _kernel_text(sign * values)
            assert got == expected


@settings(max_examples=100, deadline=None)
@given(width=st.integers(min_value=1, max_value=7), count=st.integers(min_value=1, max_value=30),
       block=st.integers(min_value=1, max_value=40), data=st.data())
def test_csv_rows_in_any_block_size_match_the_per_row_reference(width, count, block, data):
    # Blocks of max(1, block // width) rows, so the last is often short, and 1-row tables.
    rows = np.array(data.draw(st.lists(st.lists(st.one_of(DOUBLES, NON_FINITE), min_size=width,
                                                max_size=width), min_size=count, max_size=count)))
    template = ",".join(["%.17g"] * width) + "\n"
    chunks = list(csvcells.csv_rows(rows, block))
    assert len(chunks) == -(-count // max(1, block // width))
    assert "".join(chunks) == "".join(template % tuple(row) for row in rows.tolist())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_json_row_exits_2_and_writes_nothing(monkeypatch, capsys, tmp_path, bad):
    # A value JSON cannot hold fails the run before anything is written, with the
    # message json.dumps(..., allow_nan=False) gives.
    rows_of = cli._equivalence_rows

    def spoilt(n, samples):
        rows = rows_of(n, samples)
        rows[1, 3] = bad  # a beta: no extra field and no claim reads it
        return rows

    monkeypatch.setattr(cli, "_equivalence_rows", spoilt)
    out = tmp_path / "table.json"
    argv = ["equivalence", "--n-list", "16", "--samples", "5", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr() == (
        "", f"hamsearch: Out of range float values are not JSON compliant: {float(bad)!r}\n")
    assert list(tmp_path.iterdir()) == []


def _misbehave(monkeypatch, how):
    # Workers that fail as ``how`` says while this process runs as before:
    # _format_rows raises or is killed in a worker, or a worker's pickle
    # stream stops short of its end (only workers pickle).
    caller, format_rows, dumps = os.getpid(), cli._format_rows, pickle.dumps

    def failing_format_rows(template, rows):
        if os.getpid() != caller:
            if how == "raise":
                raise RuntimeError("worker fails")
            os.kill(os.getpid(), signal.SIGKILL)
        return format_rows(template, rows)

    if how == "short":
        monkeypatch.setattr(pickle, "dump", lambda obj, fh, protocol: fh.write(
            dumps(obj, protocol)[:-7]))
    else:
        monkeypatch.setattr(cli, "_format_rows", failing_format_rows)


def _equivalence(ns, samples, fmt):
    # cmd_equivalence's text, and the reference: the serially concatenated
    # _equivalence_rows one '%.17g' row at a time with the same footer, or
    # json.dumps of the whole document.
    args = argparse.Namespace(n_list=ns, samples=samples, format=fmt, out="-")
    ((path, chunks),), _ = cli.cmd_equivalence(args)
    rows = np.concatenate([cli._equivalence_rows(n, samples) for n in ns])
    extra = {"max_residual": float(rows[:, 4].max()), "limit": cli.RESIDUAL_LIMIT}
    reference = table_text_reference(EQUIVALENCE, rows.tolist(), extra, fmt)
    return (path, "".join(chunks)), ("-", reference)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ns=st.lists(st.integers(min_value=2, max_value=2**20), min_size=1, max_size=8,
                   unique=True),
       samples=st.integers(min_value=2, max_value=9), cpus=st.sampled_from([1, 2, CPUS]),
       fmt=st.sampled_from(FORMATS))
@example(ns=[4], samples=9, cpus=CPUS, fmt="csv")  # more shares by rows than N blocks
def test_equivalence_shares_compute_the_serial_table(forks, monkeypatch, ns, samples, cpus,
                                                     fmt):
    # Contiguous groups of whole N blocks, each computed and formatted by
    # its own share: min(CPUs, len(ns), rows // THRESHOLD) groups.
    monkeypatch.setattr(hamsearch, "usable_cpus", lambda: cpus)
    forks.clear()
    output, expected = _equivalence(ns, samples, fmt)
    assert output[1].encode() == expected[1].encode()
    assert len(forks) == max(1, min(cpus, len(ns), len(ns) * samples // THRESHOLD)) - 1


@pytest.mark.parametrize("how", ["raise", "signal", "short"])
def test_a_failed_equivalence_worker_leaves_the_bytes_unchanged(forks, monkeypatch, capfd,
                                                                  how):
    _misbehave(monkeypatch, how)
    for fmt in FORMATS:
        forks.clear()
        # 15 rows: three groups, two of them in workers
        output, expected = _equivalence([4, 16, 64, 256, 1024], 3, fmt)
        assert output == expected
        assert len(forks) == CPUS - 1
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")  # a failing worker prints nothing


@pytest.mark.parametrize("name", ["trajectory", "equivalence-sweep"])
def test_large_pin_runs_through_workers_and_leaves_none(name):
    # A pin of 10001 or 16000 rows in a fresh process: stdout holds it exactly
    # once, the workers run no atexit handler, and none is left when main returns.
    # The trajectory is only formatted, so it forks none.
    argv, digest = SUBSPACE[name]
    script = textwrap.dedent("""
        import atexit, os, sys
        from hamsearch.cli import main
        atexit.register(lambda: os.write(2, b"atexit\\n"))
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        rc = main(sys.argv[1:])
        sys.stdout.flush()
        try:
            os.waitpid(-1, os.WNOHANG)
            rc = 99
        except ChildProcessError:
            pass
        os.write(2, b"workers %d\\n" % len(forks))
        sys.exit(rc)
    """)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script, *argv, "--out", "-"],
                          env=_env(), capture_output=True, timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    workers = min(hamsearch.usable_cpus(), PIN_SHARES[name]) - 1
    assert proc.stderr.decode() == f"workers {workers}\natexit\n"


# The step-cap curve's sha256 in each format, recorded before its JSON rows
# were formatted in shares, and the MiB its process may peak at.
STEP_CAP_DIGESTS = {
    "csv": "404d32432d53ce9bc9e81ac60ec141451347c28609b44a9196cdea34e0834b4d",
    "json": "12780111d8cfd7f4d212aace320d5844989a50e4148f9c53c11cd60888a1c525",
}
STEP_CAP_SELF_MIB = {"csv": 64.0, "json": 64.0}


@pytest.mark.parametrize("fmt", FORMATS)
def test_grover_curve_at_the_step_cap_stays_under_160_mib(tmp_path, fmt):
    # 2^20 + 1 rows (a 27 MiB CSV, a 47 MiB JSON file) in a fresh process, with
    # the bytes recorded. It forks no worker, and its peak stays under 64 MiB in
    # both formats, as each block of rows is written as it is made (it read 83
    # MiB as CSV and 100 MiB as JSON when the text was held whole, 109-113 MiB
    # with one whole-table CSV string, and 506-512 MiB when json.dumps laid out
    # the JSON rows).
    out = tmp_path / f"curve.{fmt}"
    argv = ["grover", "--n", "16", "--max-steps", "1048576", "--format", fmt, "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, *argv], env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, self_mib, workers_mib = json.loads(proc.stdout)
    assert rc == cli.EXIT_OK
    assert self_mib < STEP_CAP_SELF_MIB[fmt] and workers_mib == 0.0
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == STEP_CAP_DIGESTS[fmt]
    if fmt == "csv":
        with open(out, "rb") as fh:
            assert sum(1 for _ in fh) == 1 + 2**20 + 1 + 1  # header, rows, footer
