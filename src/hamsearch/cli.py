# Batch experiment front end. Subcommands: trajectory, equivalence,
# trotter-scan, decompose, grover, cost.
#
# Exit codes (stable for CI): 0 success, 2 validation failure (ValueError),
# 3 claim assertion failure (or the edge coloring's AssertionError), 4 I/O
# failure (OSError). Each handler returns its (path, text chunks) outputs and
# the reason a claim failed, or None; ``main`` alone writes the outputs, with
# ``hamsearch._write_outputs``, reports on stderr and picks the exit code.
#
# Output is deterministic given (arguments, seed): CSV uses '.' decimals
# and 17 significant digits; no timestamps. Config files are flat
# "key = value" lines (keys are the option names with '-' -> '_'), checked
# like the flags they name; command line beats config beats defaults, and
# unknown or repeated keys are rejected.

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from . import (_format_rows, _json_array, _on_forks, _shares, _write_outputs, amplify, decompose,
               search, statevector, trotter)
from .pauli import bloch_point

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CLAIM = 3
EXIT_IO = 4

RESIDUAL_LIMIT = 1e-9
RECONSTRUCTION_LIMIT = 1e-12
SPECTRUM_LIMIT = 1e-10
ENDPOINT_TOL = 1e-9
SLOPE_WINDOW = (0.9, 1.1)
# Round-off a scan's error may carry beyond its commutator bound (0 for a
# commuting split), per product step and for the exact reference: up to
# 7.4e-15 was seen, on a dense d = 1024 term at t = 1e-9.
ROUNDOFF_PER_STEP = 1e-14
PEAK_ROUNDOFF = 1e-12
# Most rows of a sampled table: as many as grover's curve at its step cap.
MAX_ROWS = statevector.MAX_STEPS + 1


def _first_repeat(values: list) -> int | None:
    # Index of the first value equal to an earlier one: a repeated output row.
    seen = set()
    for k, value in enumerate(values):
        if value in seen:
            return k
        seen.add(value)
    return None


def int_list(text: str) -> list:
    # Argparse types for lists such as "4,16,64"; argparse names them in errors.
    values = [int(part) for part in text.split(",") if part.strip()]
    k = _first_repeat(values)
    if k is not None:
        raise argparse.ArgumentTypeError(f"repeated value {values[k]}")
    return values


def float_list(text: str) -> list:
    # A dt grid's repeats are its repeated step counts, checked by the scan.
    return [float(part) for part in text.split(",") if part.strip()]


# The fewest rows per share of equivalence, whose forked shares compute and format their
# rows. On a 2-vCPU Xeon VM, one CSV run per fresh process (medians of 20 runs), one share
# against two took 20.6 and 23.6 ms at 4096 rows (two N), 33.2 and 29.7 ms at 8192 (two N)
# and 49.5-56.1 and 43.3-44.7 ms at 16000 (eight N, four sets of runs): a second CPU pays
# from 2 x 4096 rows.
SHARE_ROWS = 4096


def _row_template(fmt: str, width: int) -> str:
    # A '%.17g' CSV line, or a row as json.dumps(doc, indent=1) lays it out, led by ",\n".
    return (",".join(["%.17g"] * width) + "\n" if fmt == "csv"
            else ",\n  [\n" + ",\n".join(["   %r"] * width) + "\n  ]")


def _table_text(fmt: str, columns: list[str], rows, extra: dict | None = None, lines=None):
    # The table's text chunks, made as the writer takes them: rows (a 2-D array or equal-length
    # number rows) formatted here, or their given text ``lines``; CSV with a '# ' JSON footer,
    # or JSON in its envelope. Every check runs on the call, before any chunk is made.
    rows = np.asarray(rows, dtype=float)
    if fmt == "json" and not np.isfinite(rows).all():  # as json.dumps(allow_nan=False)
        raise ValueError("Out of range float values are not JSON compliant: "
                         f"{rows[~np.isfinite(rows)][0].item()!r}")
    lines = _format_rows(_row_template(fmt, rows.shape[-1]), rows) if lines is None else lines
    if fmt == "json":
        head, tail = json.dumps({"columns": columns, "rows": [], **(extra or {})}, indent=1,
                                allow_nan=False).split('"rows": []')
        return itertools.chain([head + '"rows": '], _json_array(lines, " "), [tail + "\n"])
    footer = "# " + json.dumps(extra, sort_keys=True, allow_nan=False) + "\n" if extra else ""
    return itertools.chain([",".join(columns) + "\n"], lines, [footer])


def _report_text(report: dict) -> list[str]:
    # One chunk. A non-finite number fails here: JSON has no Infinity or NaN.
    return [json.dumps(report, indent=1, sort_keys=True, allow_nan=False) + "\n"]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_trajectory(args) -> tuple[list, str | None]:
    if args.samples < 2:
        raise ValueError("need at least 2 samples")
    if args.samples > MAX_ROWS:
        raise ValueError(f"--samples {args.samples} above the cap of {MAX_ROWS} table rows")
    inst = search.SearchInstance(args.n)
    total = inst.total_time
    t = np.linspace(0.0, total, args.samples)
    rows = np.column_stack([
        t,
        bloch_point(search.evolve_continuous(inst, t) @ inst.source_state),
        bloch_point(search.grover_power(inst, inst.q_total * t / total) @ inst.source_state),
    ])
    text = _table_text(args.format, ["t", "x_C", "y_C", "z_C", "x_G", "y_G", "z_G"], rows)
    start = bloch_point(inst.source_state)
    end = bloch_point(inst.target_state)
    failure = None
    for row, ref in ((rows[0], start), (rows[-1], end)):
        if max(_max_abs(row[1:4] - ref), _max_abs(row[4:7] - ref)) > ENDPOINT_TOL:
            failure = "trajectory endpoints deviate from the search states"
    return [(args.out, text)], failure


def _equivalence_rows(n: int, samples: int) -> np.ndarray:
    # Columns N, t, Q_t, beta, residual over an even grid of t in [0, T].
    inst = search.SearchInstance(n)
    t = np.linspace(0.0, inst.total_time, samples)
    params = search.equivalence_params(inst, t)
    residual = search.equivalence_residual(inst, t, params)
    return np.column_stack([np.full(samples, n), t, params.q_t, params.beta, residual])


def cmd_equivalence(args) -> tuple[list, str | None]:
    if not args.n_list:
        raise ValueError("N list is empty")
    if args.samples < 2:
        raise ValueError("need at least 2 samples")
    if len(args.n_list) * args.samples > MAX_ROWS:
        raise ValueError(f"--n-list x --samples = {len(args.n_list)} x {args.samples} table rows, "
                         f"above the cap of {MAX_ROWS}")

    def part(ns):  # (rows, their text) of a group of whole N blocks, one group per share
        rows = np.concatenate([_equivalence_rows(n, args.samples) for n in ns])
        return rows, "".join(_format_rows(_row_template(args.format, 5), rows))

    parts = _on_forks(part, _shares(args.n_list, len(args.n_list) * args.samples // SHARE_ROWS))
    rows = np.concatenate([part_rows for part_rows, _ in parts])
    n_worst, t_worst, _, _, worst = rows[np.argmax(rows[:, 4])].tolist()
    text = _table_text(args.format, ["N", "t", "Q_t", "beta", "residual"], rows,
                       extra={"max_residual": worst, "limit": RESIDUAL_LIMIT},
                       lines=[text for _, text in parts])
    failure = None
    if not worst <= RESIDUAL_LIMIT:
        failure = (f"equivalence residual {worst:.3e} above {RESIDUAL_LIMIT:.1e} "
                   f"at N={n_worst:.0f}, t={t_worst!r}")
    return [(args.out, text)], failure


def _read_branch(args, branch: str, defaults: dict, unread=()) -> None:
    # Options that one branch reads and another does not are None (a flag
    # False) unless given: fill in those ``branch`` reads, reject the rest.
    for name in unread:
        if (value := getattr(args, name)) is not None and value is not False:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to {branch}")
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _scan_problem(args):
    if args.problem == "search-split":
        _read_branch(args, "--problem search-split", {"n": 16}, ("length", "periodic"))
        inst = search.SearchInstance(args.n)
        terms = search.search_split(inst)
        total_time = args.t if args.t is not None else inst.total_time
    else:
        _read_branch(args, "--problem chain", {"length": 8}, ("n",))
        terms = decompose.decompose(*decompose.laplacian_chain(args.length, args.periodic))
        total_time = args.t if args.t is not None else 2.0
    return terms, total_time


def cmd_trotter_scan(args) -> tuple[list, str | None]:
    for dt in args.dt_grid:
        if not 0 < dt < np.inf:
            raise ValueError(f"dt values must be positive and finite, got {dt:g}")
    terms, total_time = _scan_problem(args)
    if not 0 < total_time < np.inf:
        raise ValueError(f"total time must be positive and finite, got {total_time:g}")
    ratios = [float(total_time) / dt for dt in args.dt_grid]  # inf past the float range
    for dt, ratio in zip(args.dt_grid, ratios):
        if ratio == np.inf or round(ratio) > trotter.STEP_CAP:
            raise ValueError(f"dt={dt:g} needs {ratio:g} steps, above cap {trotter.STEP_CAP}")
    step_counts = [max(1, round(ratio)) for ratio in ratios]
    if len(set(step_counts)) < 4:
        raise ValueError(f"dt grid gives {len(set(step_counts))} distinct step counts; "
                         "the slope fit needs at least 4")
    k = _first_repeat(step_counts)
    if k is not None:
        raise ValueError(f"dt={args.dt_grid[k]:g} repeats the step count {step_counts[k]} of an "
                         "earlier dt; the grid needs distinct step counts")
    norm_e2, scan = trotter.trotter_scan(terms, total_time, step_counts)
    # A commuting split is exact at every dt, as in trotter.plan_for_budget:
    # its errors are round-off and there is no slope to fit.
    commuting = norm_e2 == 0.0
    rows = [[dt, steps, error, 2.0 * total_time * norm_e2 * dt] for dt, steps, error in scan]
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
    # Errors within their round-off show no slope.
    roundoff = [ROUNDOFF_PER_STEP * (steps + 1) for _, steps, _, _ in rows]
    failure = None
    if not all(error <= bound + r for (_, _, error, bound), r in zip(rows, roundoff)):
        failure = ("commuting split is off the exact evolution beyond round-off" if commuting
                   else "measured error above the slack-2 commutator bound")
    elif (not commuting and all(row[2] > r for row, r in zip(rows, roundoff))
          and not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]):
        failure = f"fitted slope {slope:.3f} outside {SLOPE_WINDOW}"
    return [(args.out, text)], failure


def _decompose_input(args):
    # (graph, edge values, diagonal, expected spectrum or None); a ring is a
    # periodic chain, so --periodic is allowed on it and changes nothing.
    if args.graph is not None:
        _read_branch(args, "--graph", {}, ("lattice", "length", "cells_x", "cells_y", "periodic"))
        graph = decompose.load_graph(args.graph)
        return (graph, *decompose.graph_laplacian(graph), None)
    lattice = args.lattice or "ring"
    if lattice == "honeycomb":
        _read_branch(args, "--lattice honeycomb", {"cells_x": 3, "cells_y": 4}, ("length",))
        graph = decompose.honeycomb_lattice(args.cells_x, args.cells_y, periodic=args.periodic)
        return (graph, *decompose.graph_laplacian(graph), None)
    _read_branch(args, f"--lattice {lattice}", {"length": 8}, ("cells_x", "cells_y"))
    if lattice == "chain" and not args.periodic:
        return (*decompose.laplacian_chain(args.length), None)
    ring = decompose.laplacian_chain(args.length, periodic=True)
    trotter._check_dense_cap(args.length)  # the spectrum check needs H dense
    spectrum = np.sort(4.0 * np.sin(np.pi * np.arange(args.length) / args.length) ** 2)
    return (*ring, spectrum)


def _max_abs(x) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _reconstruction_residual(term_set, graph, values, diagonal) -> float:
    # max |sum_k H_k - H| entry by entry: the terms are added in order onto H's entries,
    # edge k's (u, v) at k and (v, u) at m + k (k from the sorted keys u * n + v) and site
    # x at 2m + x, then H is subtracted. A block entry off every edge counts at its size.
    n = graph.vertex_count
    us, vs, _ = graph.edge_arrays()
    m, keys = us.size, np.append(us * n + vs, n * n)  # n * n: past every key
    total, stray = np.zeros(2 * m + n, dtype=complex), 0.0
    for t in term_set.terms:
        (i, j), b = t.pairs.T, t.blocks.reshape(-1, 4)
        k = np.searchsorted(keys, key := np.minimum(i, j) * n + np.maximum(i, j))
        on = keys[k] == key
        total[2 * m + t.sites] += t.values
        total[2 * m + t.pairs] += b[:, [0, 3]]
        total[np.stack([k + m * (i > j), k + m * (i < j)], axis=1)[on]] += b[on, 1:3]
        stray = max(stray, _max_abs(b[~on, 1:3]))
    return max(_max_abs(total - np.concatenate([values, values.conj(), diagonal])), stray)


def _squaring_residual(term) -> float:
    # max |T^2 - 2T| of a block term: block by block, then on its diagonal values.
    b, v = term.blocks, term.values
    return max(_max_abs(b @ b - 2.0 * b), _max_abs(v * v - 2.0 * v))


def cmd_decompose(args) -> tuple[list, str | None]:
    graph, values, diagonal, expected_spectrum = _decompose_input(args)
    coloring = decompose.color_edges(graph)
    term_set = decompose.decompose(graph, values, diagonal, coloring)
    reconstruction = _reconstruction_residual(term_set, graph, values, diagonal)
    squaring = {
        label: _squaring_residual(term)
        for label, term in zip(term_set.labels, term_set.terms)
        if label.startswith("color")
    }
    report = {
        "vertices": graph.vertex_count,
        "edges": graph.edge_arrays()[0].size,
        "max_degree": graph.max_degree,
        "color_count": coloring.color_count,
        "bipartite": coloring.bipartite,
        "terms": list(term_set.labels),
        "reconstruction_residual": reconstruction,
        "projector_squaring_residuals": squaring,
    }
    failure = None
    if not reconstruction <= RECONSTRUCTION_LIMIT:
        failure = f"reconstruction residual {reconstruction:.3e} above {RECONSTRUCTION_LIMIT:.0e}"
    if expected_spectrum is not None:
        observed = np.linalg.eigvalsh(term_set.total())
        spectrum_err = float(np.max(np.abs(observed - expected_spectrum)))
        report["spectrum_residual"] = spectrum_err
        if failure is None and not spectrum_err <= SPECTRUM_LIMIT:
            failure = f"spectrum residual {spectrum_err:.3e} above {SPECTRUM_LIMIT:.0e}"
    report["pass"] = failure is None
    terms = [(args.out, trotter._term_set_chunks(term_set))] if args.out != "-" else []
    return [*terms, (args.report, _report_text(report))], failure


def cmd_grover(args) -> tuple[list, str | None]:
    for option, value, cap in (("--runs", args.runs, amplify.MAX_RUNS),
                               ("--trials", args.trials, amplify.MAX_TRIALS)):
        if value is not None and value > cap:
            raise ValueError(f"{option} {value} above the cap of {cap}")
    expected = statevector.expected_peak_step(args.n)
    if args.runs is not None:  # a bad --runs, --trials or --seed fails before the curve
        amplify.AmplificationPlan(1.0 / args.n, args.runs, args.trials, args.seed)
    max_steps = args.max_steps if args.max_steps is not None else max(1, 2 * expected)
    curve = statevector.success_curve(args.n, max_steps, target=args.target)
    rows = np.column_stack([np.arange(curve.size), curve])
    peak = statevector.peak_step(curve)
    per_run = 1.0 / args.n
    if args.measured_error:  # clipped into [0, 1/2]: at N = 2 the peak reads 1/2 less a rounding
        per_run = min(0.5, max(0.0, 1.0 - float(curve[peak])))
    plans = [amplify.AmplificationPlan(per_run, r, args.trials, args.seed)
             for r in range(1, (args.runs or 0) + 1, 2)]
    extra = {
        "peak_step": peak,
        "expected_peak_step": expected,
        "peak_probability": float(curve[peak]),
        "bound": 1.0 - 1.0 / args.n,
    }
    outputs = [(args.out, _table_text(args.format, ["step", "probability"], rows, extra=extra))]
    if plans:
        amp_rows = [[plan.runs, amplify.majority_bound(plan.runs, n=args.n),
                     amplify.majority_error_exact(plan.per_run_error, plan.runs),
                     est.rate, est.ci_halfwidth]
                    for plan, est in zip(plans, amplify.simulate_majorities(plans))]
        amp_text = _table_text(args.format, ["R", "bound", "exact", "empirical", "ci95"], amp_rows)
        amp_out = args.amplification_out
        if amp_out is None:
            amp_out = "-" if args.out == "-" else f"{args.out}.amplification.{args.format}"
        outputs.append((amp_out, amp_text))
    # The allowance keeps round-off from failing N = 2, where the peak is
    # exactly 1 - 1/N = 1/2.
    failure = None
    if curve[peak] < 1.0 - 1.0 / args.n - PEAK_ROUNDOFF:
        failure = f"peak probability {curve[peak]:.12f} below 1 - 1/N"
    return outputs, failure


def cmd_cost(args) -> tuple[list, str | None]:
    report = amplify.cost_report(args.n, args.t, args.eps, args.step_cost, args.grover_step_cost)
    return [(args.out, _report_text(report))], None


# ---------------------------------------------------------------------------
# Parser and config plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reported by main like any invalid input
        raise ValueError(message)


@functools.cache
def build_parser():
    """The parser, built once per process, and each subcommand's handler."""
    parser = _Parser(
        prog="hamsearch",
        description="Search-evolution experiments: trajectories, equivalence "
        "residuals, product-formula error scans, decompositions, full-space "
        "success curves, and cost comparisons.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sp = subparsers.add_parser("trajectory", help="Bloch trajectories of both routes")
    sp.add_argument("--n", type=int, default=16, help="database size")
    sp.add_argument("--samples", type=int, default=65)

    sp = subparsers.add_parser("equivalence", help="residuals of the route-equivalence identity")
    sp.add_argument("--n-list", type=int_list, default="4,16,64,256,1024")
    sp.add_argument("--samples", type=int, default=20)

    sp = subparsers.add_parser("trotter-scan", help="error vs step size for a term split")
    sp.add_argument("--problem", choices=("search-split", "chain"), default="search-split")
    sp.add_argument("--n", type=int, default=None, help="database size (search-split)")
    sp.add_argument("--length", type=int, default=None, help="chain sites")
    sp.add_argument("--periodic", action="store_true")
    sp.add_argument("--t", type=float, default=None, help="total time (default: problem specific)")
    sp.add_argument("--dt-grid", type=float_list, default="0.2,0.1,0.05,0.025")

    sp = subparsers.add_parser("decompose", help="edge-color a lattice and emit its term set")
    sp.add_argument("--lattice", choices=("chain", "ring", "honeycomb"), default=None)
    sp.add_argument("--length", type=int, default=None)
    sp.add_argument("--cells-x", type=int, default=None)
    sp.add_argument("--cells-y", type=int, default=None)
    sp.add_argument("--periodic", action="store_true")
    sp.add_argument("--graph", default=None, help="external graph JSON instead of a lattice")
    sp.add_argument("--report", default="-", help="where to write the validation report")

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
    sp.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")

    sp = subparsers.add_parser("cost", help="small-step vs reflection-route complexity")
    sp.add_argument("--n", type=int, default=1024)
    sp.add_argument("--t", type=float, default=None, help="evolution time (default (pi/2) sqrt(N))")
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.add_argument("--step-cost", type=float, default=1.0)
    sp.add_argument("--grover-step-cost", type=float, default=1.0)

    # Every subcommand writes --out; all but decompose and cost write a table.
    for name, sp in subparsers.choices.items():
        sp.add_argument("--out", default="-", help="output path ('-' for stdout)")
        if name not in ("decompose", "cost"):
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--config", default=None, help="flat key=value config file")
    # Each handler is looked up when called, so a replaced or traced cmd_* runs.
    return parser, {name: lambda args, h="cmd_" + name.replace("-", "_"): globals()[h](args)
                    for name in subparsers.choices}


def _config_tokens(path: str, options: dict) -> list:
    # Each "key = value" line as the token "--key=value", so that argparse
    # checks it like the flag it names; a flag is "--key" for 1/true/yes/on,
    # no token for 0/false/no/off and rejected for any other value. ``options``
    # maps the subcommand's option names to their parsed values.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    tokens, seen = [], {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in options or key in ("command", "config"):
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if seen.setdefault(key, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {seen[key]}")
        option = "--" + key.replace("_", "-")
        if not isinstance(options[key], bool):
            tokens.append(f"{option}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(option)
        elif value.lower() not in ("0", "false", "no", "off"):
            raise ValueError(f"{path}:{lineno}: config key {key!r} is a flag: {value!r} is "
                             "not one of 1/true/yes/on or 0/false/no/off")
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
        outputs, failure = commands[args.command](args)
        _write_outputs(*outputs)
        if failure is None:
            return EXIT_OK
        code, message = EXIT_CLAIM, failure
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    except ValueError as exc:
        code, message = EXIT_VALIDATION, str(exc)
    except AssertionError as exc:
        code, message = EXIT_CLAIM, f"edge coloring failed: {exc}"
    except OSError as exc:
        code, message = EXIT_IO, f"I/O failure: {exc}"
    print(f"hamsearch: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
