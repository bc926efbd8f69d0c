# The CLI contract as a property: over every subcommand's options, given as
# flags or config lines, and over graph documents of any shape, main exits
# 0, 2 or 3; exits 2 and 3 print exactly one "hamsearch:" line; an exit 2
# writes no file; and nothing escapes as an exception or a warning (pytest
# turns warnings into errors). Sizes are drawn from small ranges or as values
# meant to lie beyond the CLI's caps, so that few cases allocate much: the
# test checks that too. Not every such value is past its cap: a honeycomb of
# 10^5 cells one way and fewer than 6 the other is under the site cap, from
# 200000 sites (1 x 10^5) up to 800000 (10^5 x 4).

import contextlib
import io
import json
import os
import tempfile
import tracemalloc

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from hamsearch import amplify, cli, statevector, trotter
from hamsearch.cli import EXIT_CLAIM, EXIT_OK, EXIT_VALIDATION, main

# Values no option takes as valid, or takes only at an edge of its range.
ODD = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "2.5", "1e308", "-1e308", "5e-324",
                       "x", "", "true", str(2**64), str(10**30)])


def _ints(low, high, *beyond):
    # A small integer, a size past a cap, or an odd value, as flag text.
    return st.one_of(st.integers(low, high), *map(st.just, beyond)).map(str) | ODD


def _floats(low, high):
    return st.one_of(st.floats(low, high).map(repr), ODD)


def _int_list(low, high, *beyond):
    values = st.one_of(st.integers(low, high), *map(st.just, beyond))
    return st.one_of(st.lists(values, min_size=0, max_size=4).map(lambda v: ",".join(map(str, v))),
                     ODD)


FLAG = st.none()  # a store_true flag: given or not
SAMPLES = _ints(2, 20, cli.MAX_ROWS + 1, 10**9)
# Dense terms past MAX_DENSE_DIMENSION and chains past MAX_SITES; every
# length in between would build a large term.
LENGTH = _ints(1, 12, trotter.MAX_DENSE_DIMENSION + 1, trotter.MAX_DENSE_DIMENSION + 3,
               trotter.MAX_SITES + 1, 10**9)
GRID = st.one_of(st.lists(st.sampled_from(["0.2", "0.1", "0.05", "0.025", "1e-9", "1e-12", "3",
                                           "nan", "-0.1", "0"]), min_size=0, max_size=5)
                 .map(",".join), ODD)

OPTIONS = {
    "trajectory": {"--n": _ints(2, 64, 2**64), "--samples": SAMPLES},
    "equivalence": {"--n-list": _int_list(2, 64, 2**64, -3), "--samples": SAMPLES},
    "trotter-scan": {"--problem": st.sampled_from(["search-split", "chain", "ring"]),
                     "--n": _ints(2, 32, 2**64), "--length": LENGTH, "--periodic": FLAG,
                     "--t": _floats(1e-9, 1e3), "--dt-grid": GRID},
    "decompose": {"--lattice": st.sampled_from(["chain", "ring", "honeycomb", "square"]),
                  "--length": LENGTH, "--cells-x": _ints(1, 4, 10**5),
                  "--cells-y": _ints(1, 4, 10**5), "--periodic": FLAG, "--graph": st.none(),
                  "--report": st.none()},
    "grover": {"--n": _ints(2, 4096, statevector.MAX_DIMENSION + 1, 2**64),
               "--max-steps": _ints(1, 100, statevector.MAX_STEPS + 1, 10**9),
               "--target": _ints(-1, 20, 2**64),
               "--runs": _ints(-1, 9, amplify.MAX_RUNS + 2, 10**9 + 1),
               "--trials": _ints(9999, 12000, amplify.MAX_TRIALS + 1, 10**15),
               "--measured-error": FLAG, "--amplification-out": st.none(),
               "--seed": _ints(0, 10, 2**64, 2**64 - 1)},
    "cost": {"--n": _ints(2, 10**6, 2**64, 10**30), "--t": _floats(1e-300, 1e300),
             "--eps": _floats(1e-300, 1.0), "--step-cost": _floats(0.0, 1e300),
             "--grover-step-cost": _floats(0.0, 1e300)},
}
COMMON = {"--format": st.sampled_from(["csv", "json", "xml"])}  # the table commands'
# Options that name a file in the run's directory.
PATHS = {"--graph": "graph.json", "--report": "report.json", "--amplification-out": "amp.csv"}

# Graph documents: small or odd vertex counts, rows of any shape, weights
# near the float range's edges; sometimes bad JSON or a repeated key.
JSON_ODD = st.sampled_from([True, None, "2", 2.5, -1, 10**400, [], {}, float("nan")])
VERTICES = st.one_of(st.integers(1, 6), st.sampled_from([0, 3.0, 3.9, trotter.MAX_SITES + 1,
                                                         10**8]), JSON_ODD)
INDEX = st.one_of(st.integers(0, 6), st.sampled_from([1.0, 1.7, -1]), JSON_ODD)
WEIGHT = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([1e150, 1e160, -1e308, 2.0**511,
                                                          float("inf"), 10**400]), JSON_ODD)
ROW = st.one_of(st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(-4.0, 4.0)),
                st.tuples(INDEX, INDEX, WEIGHT), st.lists(st.one_of(INDEX, WEIGHT), max_size=5),
                JSON_ODD).map(lambda row: list(row) if isinstance(row, tuple) else row)
GRAPH = st.fixed_dictionaries({}, optional={"vertices": VERTICES,
                                            "edges": st.one_of(st.lists(ROW, max_size=8),
                                                               JSON_ODD)}).map(json.dumps)
GRAPH_TEXT = st.one_of(GRAPH, st.sampled_from(['{"vertices": 2, "edges": [[0, 1',
                                               '{"vertices": 2, "vertices": 2, "edges": []}',
                                               "[]", ""]))


def _options(command):
    return dict(OPTIONS[command], **({} if command in ("decompose", "cost") else COMMON))


@st.composite
def invocations(draw):
    # (argv with {dir} for the run's directory, config lines, graph text).
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = _options(command)
    if command == "decompose" and draw(st.booleans()):  # a graph document alone
        names = ["--graph"] + draw(st.lists(st.just("--report"), max_size=1))
    else:
        names = draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=5))
    argv, config = [command], []
    for name in names:
        if name in PATHS:
            argv += [name, "{dir}/" + PATHS[name]]
            continue
        value, in_config = draw(options[name]), draw(st.booleans())
        key = name[2:].replace("-", "_")
        if value is None and in_config:
            config.append(f"{key} = {draw(st.sampled_from(['true', 'no']))}")
        elif value is None:
            argv.append(name)
        elif in_config:
            config.append(f"{key} = {value}")
        else:
            argv.append(f"{name}={value}")
    config += draw(st.lists(st.sampled_from(["# a comment", "", "unknown = 1", "no equals sign"]),
                            max_size=1))
    if config and draw(st.booleans()):
        argv += ["--config", "{dir}/run.cfg"]
    graph = draw(GRAPH_TEXT) if "--graph" in names else None
    return argv, config, graph


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
# 200000 sites, under the site cap: the run must still peak under the bound.
@example((["decompose", "--lattice=honeycomb", "--cells-x=1", "--cells-y=100000"], [], None))
def test_every_invocation_keeps_the_contract(invocation):
    argv, config, graph = invocation
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {"run.cfg": "\n".join(config) + "\n"}
        if graph is not None:
            inputs["graph.json"] = graph
        for name, text in inputs.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [a.replace("{dir}", tmp) for a in argv] + ["--out", os.path.join(tmp, "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = sorted(set(os.listdir(tmp)) - set(inputs))
    err = stderr.getvalue()
    event(f"{argv[0]} exit {code}")  # seen with --hypothesis-show-statistics
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CLAIM), (argv, err)
    if code == EXIT_OK:
        assert err == ""
    else:
        assert err.startswith("hamsearch: ") and err.count("\n") == 1, (argv, err)
    if code == EXIT_VALIDATION:
        assert written == [] and stdout.getvalue() == "", (argv, err, written)
    assert peak < 100 * 2**20, (argv, peak)


def test_every_option_is_drawn():
    # A new option joins OPTIONS, so that the property covers it too.
    parser, commands = cli.build_parser()
    for command in commands:
        parsed = set(vars(parser.parse_args([command]))) - {"command", "out", "config"}
        assert parsed == {name[2:].replace("-", "_") for name in _options(command)}, command
