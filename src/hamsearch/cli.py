# Batch experiment front end. Subcommands: trajectory, equivalence,
# trotter-scan, decompose, grover, cost.
#
# Exit codes (stable for CI): 0 success, 2 validation failure, 3 claim
# assertion failure, 4 I/O failure.
#
# Output is deterministic given (arguments, seed): CSV uses '.' decimals
# and 17 significant digits; no timestamps. Config files are flat
# "key = value" lines (keys are the option names with '-' -> '_'), checked
# like the flags they name; command line beats config beats defaults, and
# unknown keys are rejected.

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import amplify, decompose, search, statevector, trotter
from .pauli import bloch_point
from .linalg import spectral_norm

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CLAIM = 3
EXIT_IO = 4

RESIDUAL_LIMIT = 1e-9
ENDPOINT_TOL = 1e-9
SLOPE_WINDOW = (0.9, 1.1)
COMMUTING_TOL = 1e-12
PEAK_ROUNDOFF = 1e-12


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_list(text: str, kind: type) -> list:
    # Comma-separated values of one type, e.g. "4,16,64" with kind=int.
    try:
        return [kind(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"bad {kind.__name__} list {text!r}: {exc}", EXIT_VALIDATION) from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc


def _table_text(fmt: str, columns: list[str], rows, extra: dict | None = None) -> str:
    # rows: a 2-D array or a list of equal-length rows of numbers. CSV lines
    # are formatted one row at a time, so no list of all values is built.
    rows = np.asarray(rows, dtype=float)
    if fmt == "json":
        doc = {"columns": columns, "rows": rows.tolist()}
        if extra:
            doc.update(extra)
        return json.dumps(doc, indent=1) + "\n"
    row_format = ",".join(["%.17g"] * len(columns))
    lines = [",".join(columns)]
    lines += [row_format % tuple(row.tolist()) for row in rows]
    if extra:
        lines.append("# " + json.dumps(extra, sort_keys=True))
    lines.append("")  # the text ends with a newline
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_trajectory(args) -> int:
    if args.n < 2:
        raise CliError("N must be >= 2", EXIT_VALIDATION)
    if args.samples < 2:
        raise CliError("need at least 2 samples", EXIT_VALIDATION)
    inst = search.SearchInstance(args.n)
    q_total = search.step_params(inst).q_total
    total = inst.total_time
    t = np.linspace(0.0, total, args.samples)
    rows = np.column_stack([
        t,
        bloch_point(search.evolve_continuous(inst, t) @ inst.source_state),
        bloch_point(search.grover_power(inst, q_total * t / total) @ inst.source_state),
    ])
    start = bloch_point(inst.source_state)
    end = bloch_point(inst.target_state)
    for row, ref in ((rows[0], start), (rows[-1], end)):
        if max(_max_abs(row[1:4] - ref), _max_abs(row[4:7] - ref)) > ENDPOINT_TOL:
            raise CliError("trajectory endpoints deviate from the search states", EXIT_CLAIM)
    text = _table_text(args.format, ["t", "x_C", "y_C", "z_C", "x_G", "y_G", "z_G"], rows)
    _write_text(args.out, text)
    return EXIT_OK


def _equivalence_rows(n: int, samples: int) -> np.ndarray:
    # Columns N, t, Q_t, beta, residual over an even grid of t in [0, T].
    inst = search.SearchInstance(n)
    t = np.linspace(0.0, inst.total_time, samples)
    params = search.equivalence_params(inst, t)
    residual = search.equivalence_residual(inst, t)
    return np.column_stack([np.full(samples, n), t, params.q_t, params.beta, residual])


def cmd_equivalence(args) -> int:
    n_values = _parse_list(args.n_list, int)
    if not n_values or any(n < 2 for n in n_values):
        raise CliError("N list must contain integers >= 2", EXIT_VALIDATION)
    if args.samples < 2:
        raise CliError("need at least 2 samples", EXIT_VALIDATION)
    rows = np.concatenate([_equivalence_rows(n, args.samples) for n in n_values])
    n_worst, t_worst, _, _, worst = rows[np.argmax(rows[:, 4])].tolist()
    text = _table_text(
        args.format,
        ["N", "t", "Q_t", "beta", "residual"],
        rows,
        extra={"max_residual": worst, "limit": RESIDUAL_LIMIT},
    )
    _write_text(args.out, text)
    if not worst <= RESIDUAL_LIMIT:
        print(f"equivalence residual {worst:.3e} above {RESIDUAL_LIMIT:.1e} "
              f"at N={n_worst:.0f}, t={t_worst!r}", file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def _scan_problem(args):
    if args.problem == "search-split":
        inst = search.SearchInstance(args.n)
        terms = search.search_split(inst)
        total_time = args.t if args.t is not None else inst.total_time
    else:
        graph, values, diagonal = _chain(args.length, args.periodic)
        terms = decompose.decompose(graph, values, diagonal)
        total_time = args.t if args.t is not None else 2.0
    return terms, total_time


def cmd_trotter_scan(args) -> int:
    dt_grid = _parse_list(args.dt_grid, float)
    if len(dt_grid) < 4:
        raise CliError("dt grid needs at least 4 points", EXIT_VALIDATION)
    if any(dt <= 0 for dt in dt_grid):
        raise CliError("dt values must be positive", EXIT_VALIDATION)
    terms, total_time = _scan_problem(args)
    step_counts = [max(1, round(total_time / dt)) for dt in dt_grid]
    for dt, steps in zip(dt_grid, step_counts):
        if steps > args.step_cap:
            raise CliError(f"dt={dt:g} needs {steps} steps, above cap {args.step_cap}", EXIT_VALIDATION)
    if len(set(step_counts)) < 4:
        raise CliError(f"dt grid gives {len(set(step_counts))} distinct step counts; "
                       "the slope fit needs at least 4", EXIT_VALIDATION)
    norm_e2 = trotter.commutator_error(terms)
    # A commuting split is exact at every dt, as in trotter.plan_for_budget:
    # its errors are round-off and there is no slope to fit.
    commuting = norm_e2 == 0.0
    exact = trotter.exact_term_exponential(terms.total(), total_time)
    rows = []
    for steps in step_counts:
        plan = trotter.TrotterPlan(total_time, steps)
        approx = trotter.trotter_evolve(terms, plan)
        error = spectral_norm(approx - exact)
        bound = 2.0 * total_time * norm_e2 * plan.dt
        rows.append([plan.dt, steps, error, bound])
    slope = None
    if not commuting:
        logs = np.log([row[0] for row in rows])
        errs = np.log([row[2] for row in rows])
        slope = float(np.polyfit(logs, errs, 1)[0])
    extra = {
        "slope": slope,
        "slope_window": list(SLOPE_WINDOW),
        "norm_e2": norm_e2,
        "total_time": total_time,
    }
    if commuting:
        extra["commuting"] = True
    text = _table_text(args.format, ["dt", "n", "error", "bound"], rows, extra=extra)
    _write_text(args.out, text)
    if commuting:
        if max(row[2] for row in rows) <= COMMUTING_TOL:
            return EXIT_OK
        print(f"commuting split is off the exact evolution by over {COMMUTING_TOL:.0e}",
              file=sys.stderr)
        return EXIT_CLAIM
    if any(row[2] > row[3] for row in rows):
        print("measured error above the slack-2 commutator bound", file=sys.stderr)
        return EXIT_CLAIM
    if not (SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]):
        print(f"fitted slope {slope:.3f} outside {SLOPE_WINDOW}", file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def _chain(length: int, periodic: bool):
    # (graph, edge values, diagonal) of the chain Laplacian: diagonal 2.
    graph = decompose.laplacian_chain(length, periodic=periodic)
    return graph, decompose.graph_laplacian(graph)[0], np.full(length, 2.0)


def _decompose_input(args):
    # (graph, edge values, diagonal, expected spectrum or None)
    if args.graph is not None:
        try:
            graph = decompose.load_graph(args.graph)
        except (OSError, ValueError) as exc:
            code = EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION
            raise CliError(f"cannot load graph {args.graph}: {exc}", code) from exc
        return (graph, *decompose.graph_laplacian(graph), None)
    if args.lattice == "chain":
        return (*_chain(args.length, False), None)
    if args.lattice == "ring":
        spectrum = np.sort(4.0 * np.sin(np.pi * np.arange(args.length) / args.length) ** 2)
        return (*_chain(args.length, True), spectrum)
    graph = decompose.honeycomb_lattice(args.cells_x, args.cells_y, periodic=args.periodic)
    return (graph, *decompose.graph_laplacian(graph), None)


def _max_abs(x) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _reconstruction_residual(term_set, graph, values, diagonal) -> float:
    # max |sum_k H_k - H| entry by entry, summing the terms' block and
    # diagonal entries per position and then subtracting H's.
    n = graph.vertex_count
    us, vs, _ = graph.edge_arrays()
    sites = np.arange(n)
    h = (np.concatenate([us, vs, sites]), np.concatenate([vs, us, sites]),
         -np.concatenate([values, values.conj(), diagonal]))
    rows, cols, vals = (np.concatenate(x) for x in zip(*(t.entries() for t in term_set.terms), h))
    keys, position = np.unique(rows * n + cols, return_inverse=True)
    total = np.zeros(keys.size, dtype=complex)
    np.add.at(total, position, vals)
    return _max_abs(total)


def _squaring_residual(term) -> float:
    # max |T^2 - 2T| of a block term: block by block, then on the bare diagonal.
    b, d = term.blocks, term.diagonal
    return max(_max_abs(b @ b - 2.0 * b), _max_abs(d * d - 2.0 * d))


def cmd_decompose(args) -> int:
    try:
        graph, values, diagonal, expected_spectrum = _decompose_input(args)
        coloring = decompose.color_edges(graph)
        term_set = decompose.decompose(graph, values, diagonal, coloring)
    except CliError:
        raise
    except AssertionError as exc:
        raise CliError(f"edge coloring failed: {exc}", EXIT_CLAIM) from exc
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc

    if args.out != "-":
        try:
            trotter.save_term_set(args.out, term_set)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}", EXIT_IO) from exc

    reconstruction = _reconstruction_residual(term_set, graph, values, diagonal)
    squaring = {
        label: _squaring_residual(term)
        for label, term in zip(term_set.labels, term_set.terms)
        if label.startswith("color")
    }
    report = {
        "vertices": graph.vertex_count,
        "edges": len(graph.edges),
        "max_degree": graph.max_degree,
        "color_count": coloring.color_count,
        "bipartite": decompose.bipartition(graph) is not None,
        "terms": list(term_set.labels),
        "reconstruction_residual": reconstruction,
        "projector_squaring_residuals": squaring,
    }
    ok = reconstruction <= 1e-12
    if expected_spectrum is not None:
        observed = np.sort(np.linalg.eigvalsh(term_set.total()))
        spectrum_err = float(np.max(np.abs(observed - expected_spectrum)))
        report["spectrum_residual"] = spectrum_err
        ok = ok and spectrum_err <= 1e-10
    report["pass"] = bool(ok)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.report is not None:
        _write_text(args.report, text)
    elif args.out == "-":
        _write_text("-", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_CLAIM


def cmd_grover(args) -> int:
    if args.n < 2:
        raise CliError("N must be >= 2", EXIT_VALIDATION)
    expected = statevector.expected_peak_step(args.n)
    max_steps = args.max_steps if args.max_steps is not None else max(1, 2 * expected)
    if max_steps < 1:
        raise CliError("max-steps must be >= 1", EXIT_VALIDATION)
    if not (0 <= args.target < args.n):
        raise CliError("target index outside the database", EXIT_VALIDATION)
    if args.runs is not None and (args.runs < 1 or args.runs % 2 == 0):
        raise CliError("runs must be an odd integer >= 1", EXIT_VALIDATION)
    curve = statevector.success_curve(args.n, max_steps, target=args.target)
    rows = [[k, p] for k, p in enumerate(curve)]
    peak = statevector.peak_step(curve)
    extra = {
        "peak_step": peak,
        "expected_peak_step": expected,
        "peak_probability": float(curve[peak]),
        "bound": 1.0 - 1.0 / args.n,
    }
    text = _table_text(args.format, ["step", "probability"], rows, extra=extra)
    _write_text(args.out, text)

    if args.runs is not None:
        per_run = 1.0 / args.n
        if args.measured_error:
            per_run = max(0.0, 1.0 - float(curve[peak]))
        amp_rows = []
        for r in range(1, args.runs + 1, 2):
            plan = amplify.AmplificationPlan(
                per_run_error=per_run, runs=r, trials=args.trials, seed=args.seed
            )
            est = amplify.simulate_majority(plan)
            amp_rows.append(
                [
                    r,
                    amplify.majority_bound(r, n=args.n),
                    amplify.majority_error_exact(per_run, r),
                    est.rate,
                    est.ci_halfwidth,
                ]
            )
        amp_text = _table_text(args.format, ["R", "bound", "exact", "empirical", "ci95"], amp_rows)
        amp_out = args.amplification_out
        if amp_out is None:
            amp_out = "-" if args.out == "-" else args.out + ".amplification.csv"
        _write_text(amp_out, amp_text)

    # The allowance keeps round-off from failing N = 2, where the peak is
    # exactly 1 - 1/N = 1/2.
    if curve[peak] < 1.0 - 1.0 / args.n - PEAK_ROUNDOFF:
        print(f"peak probability {curve[peak]:.12f} below 1 - 1/N", file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def cmd_cost(args) -> int:
    if args.n < 3:
        raise CliError("N must be >= 3", EXIT_VALIDATION)
    if not (0.0 < args.eps < 1.0):
        raise CliError("eps must lie in (0, 1)", EXIT_VALIDATION)
    inst = search.SearchInstance(args.n)
    total_time = args.t if args.t is not None else inst.total_time
    if total_time <= 0:
        raise CliError("t must be positive", EXIT_VALIDATION)
    split = search.search_split(inst)
    norm_e2 = trotter.commutator_error(split)
    cm = amplify.CostModel(
        total_time=total_time,
        error_budget=args.eps,
        database_size=args.n,
        norm_e2=norm_e2,
        step_cost=args.step_cost,
        grover_step_cost=args.grover_step_cost,
    )
    tc = amplify.trotter_complexity(cm)
    gc = amplify.grover_complexity(cm)
    steps = max(1, int(np.ceil(tc.steps)))
    bits = amplify.register_width(steps, len(split), args.eps)
    report = {
        "inputs": {
            "N": args.n,
            "t": total_time,
            "eps": args.eps,
            "term_count": len(split),
            "norm_e2": norm_e2,
            "step_cost": cm.step_cost,
            "grover_step_cost": cm.grover_step_cost,
        },
        "n": steps,
        "dt": total_time / steps,
        "b": bits,
        "C": amplify.per_step_cost(args.n, bits),
        "cost": {
            "trotter": tc.cost,
            "grover": gc.cost,
            "ratio_grover_over_trotter": gc.cost / tc.cost if tc.cost > 0 else float("inf"),
        },
        "grover": {"q_steps": gc.q_steps, "runs": gc.runs, "runs_formula": gc.runs_formula},
        "queries": {"trotter": tc.queries, "grover": gc.queries},
        "convention": {
            "queries_per_trotter_step": amplify.QUERIES_PER_TROTTER_STEP,
            "queries_per_grover_step": amplify.QUERIES_PER_GROVER_STEP,
        },
    }
    _write_text(args.out, json.dumps(report, indent=1, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and config plumbing


def _add_common(sp) -> None:
    sp.add_argument("--out", default="-", help="output path ('-' for stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config", default=None, help="flat key=value config file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hamsearch",
        description="Search-evolution experiments: trajectories, equivalence "
        "residuals, product-formula error scans, decompositions, full-space "
        "success curves, and cost comparisons.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {}

    sp = subparsers.add_parser("trajectory", help="Bloch trajectories of both routes")
    sp.add_argument("--n", type=int, default=16, help="database size")
    sp.add_argument("--samples", type=int, default=65)
    _add_common(sp)
    commands["trajectory"] = cmd_trajectory

    sp = subparsers.add_parser("equivalence", help="residuals of the route-equivalence identity")
    sp.add_argument("--n-list", default="4,16,64,256,1024")
    sp.add_argument("--samples", type=int, default=20)
    _add_common(sp)
    commands["equivalence"] = cmd_equivalence

    sp = subparsers.add_parser("trotter-scan", help="error vs step size for a term split")
    sp.add_argument("--problem", choices=("search-split", "chain"), default="search-split")
    sp.add_argument("--n", type=int, default=16, help="database size (search-split)")
    sp.add_argument("--length", type=int, default=8, help="chain sites")
    sp.add_argument("--periodic", action="store_true")
    sp.add_argument("--t", type=float, default=None, help="total time (default: problem specific)")
    sp.add_argument("--dt-grid", default="0.2,0.1,0.05,0.025")
    sp.add_argument("--step-cap", type=int, default=10_000_000)
    _add_common(sp)
    commands["trotter-scan"] = cmd_trotter_scan

    sp = subparsers.add_parser("decompose", help="edge-color a lattice and emit its term set")
    sp.add_argument("--lattice", choices=("chain", "ring", "honeycomb"), default="ring")
    sp.add_argument("--length", type=int, default=8)
    sp.add_argument("--cells-x", type=int, default=3)
    sp.add_argument("--cells-y", type=int, default=4)
    sp.add_argument("--periodic", action="store_true")
    sp.add_argument("--graph", default=None, help="external graph JSON instead of a lattice")
    sp.add_argument("--report", default=None, help="where to write the validation report")
    _add_common(sp)
    commands["decompose"] = cmd_decompose

    sp = subparsers.add_parser("grover", help="full-space success curve and amplification")
    sp.add_argument("--n", type=int, default=1024)
    sp.add_argument("--max-steps", type=int, default=None)
    sp.add_argument("--target", type=int, default=0)
    sp.add_argument("--runs", type=int, default=None, help="amplification run count (odd)")
    sp.add_argument("--trials", type=int, default=1_000_000)
    sp.add_argument(
        "--measured-error",
        action="store_true",
        help="amplify the measured per-run error instead of the worst case 1/N",
    )
    sp.add_argument("--amplification-out", default=None)
    _add_common(sp)
    commands["grover"] = cmd_grover

    sp = subparsers.add_parser("cost", help="small-step vs reflection-route complexity")
    sp.add_argument("--n", type=int, default=1024)
    sp.add_argument("--t", type=float, default=None, help="evolution time (default (pi/2) sqrt(N))")
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.add_argument("--step-cost", type=float, default=1.0)
    sp.add_argument("--grover-step-cost", type=float, default=1.0)
    _add_common(sp)
    commands["cost"] = cmd_cost

    return parser, commands


def _config_tokens(path: str, options: dict) -> list:
    # Each "key = value" line as the token "--key=value", so that argparse
    # checks it like the flag it names; a flag becomes a bare "--key" only
    # when its value is 1/true/yes/on. ``options`` maps the subcommand's
    # option names to their parsed values.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_IO) from exc
    tokens = []
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected 'key = value'", EXIT_VALIDATION)
        key, _, value = stripped.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in options or key in ("command", "config"):
            raise CliError(f"unknown config key {key!r}", EXIT_VALIDATION)
        option = "--" + key.replace("_", "-")
        if not isinstance(options[key], bool):
            tokens.append(f"{option}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(option)
    return tokens


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config tokens go first, so the command line's values win.
            tokens = _config_tokens(args.config, vars(args))
            args = parser.parse_args(argv[:1] + tokens + argv[1:])
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    except CliError as exc:
        print(f"hamsearch: {exc}", file=sys.stderr)
        return exc.code

    try:
        return commands[args.command](args)
    except CliError as exc:
        print(f"hamsearch: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"hamsearch: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"hamsearch: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
