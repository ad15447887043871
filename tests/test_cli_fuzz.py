"""CLI fuzz: mutated constraint specs and junk flag values exit cleanly.

Each drawn spec starts from a valid tree and is mutated: a field dropped, a
junk value, a junk number in place of a number, or a state or metric of the
wrong dimension put in, or a subtree swapped in.  Every mutant runs through
``cli.main`` in process with the five commands that evaluate a constraint,
and must exit 0 with a report free of NaN and inf and nothing on stderr, or
exit 2 or 4 with one ``error:`` line.  Flag values are drawn from junk and
from small valid values; a junk value must exit 2 without a traceback.
"""

import contextlib
import copy
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslkit import expm, jsonio
from qslkit.cli import main

from test_constraints import decimal_mean


def state(n):
    return {"dim": n, "re": [1] + [0] * (n - 1), "im": [0] * n}


def metric(n):
    return {"dim": n, "re": [[float(i == j) for j in range(n)] for i in range(n)],
            "im": [[0] * n for _ in range(n)]}


def oneform(n):
    return {"dim": n, "re": [0.2] + [0] * (n - 1), "im": [0] * n}


SCHATTEN = {"kind": "schatten", "params": {"p": 2}}
RANGE = {"kind": "op_shifted"}
SCHATTEN_INF = {"kind": "schatten", "params": {"p": "inf"}}
ML = {"kind": "ml", "params": {"p": 1, "psi": state(3)}}
MT = {"kind": "mt", "params": {"psi": state(3)}}
SPECS = [
    {"kind": "powmean", "params": {"p": 4}, "children": [SCHATTEN, MT]},
    {"kind": "geomean", "params": {"p": 0.5}, "children": [RANGE, ML]},
    {"kind": "max", "children": [SCHATTEN, RANGE]},
    {"kind": "randers", "params": {"metric": metric(8), "oneform": oneform(8)}},
    SCHATTEN, RANGE, ML, MT,
]
NUMBERS = [1e308, 1e-300, 1e-3, 0.5, 2000, -1, 0]
JUNK = NUMBERS[:2] + ["nan", "inf", [], {}, None, "x"]
# states, metrics and oneforms for dimension 2 or 4 where the gate is qft:3
WRONG_DIMENSION = [state(2), state(4), metric(3), metric(15), oneform(3), oneform(15)]
COMMANDS = [["time", "--gate", "qft:3", "--output", "json"],
            ["conjmin", "--gate", "qft:3", "--restarts", "1", "--output", "json"],
            ["geodesic", "--gate", "qft:3", "--output", "json"],
            ["invariance", "--samples", "5", "--output", "json"],
            ["classify", "--samples", "5", "--output", "json"]]


def slots(node):
    """(container, key) of every value in a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


@st.composite
def mutated_specs(draw):
    spec = copy.deepcopy(draw(st.sampled_from(SPECS)))
    for _ in range(draw(st.integers(1, 3))):
        places = list(slots(spec))
        if not places:
            break
        how = draw(st.sampled_from(["number", "dimension", "subtree", "junk", "drop"]))
        if how == "number":
            places = [s for s in places if type(s[0][s[1]]) in (int, float)] or places
        if how == "dimension":
            places = [s for s in places if s[1] in ("psi", "metric", "oneform")] or places
        node, key = draw(st.sampled_from(places))
        if how == "drop":
            del node[key]
        elif how == "junk":
            node[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif how == "number":
            node[key] = draw(st.sampled_from(NUMBERS))
        elif how == "dimension":
            node[key] = copy.deepcopy(draw(st.sampled_from(WRONG_DIMENSION)))
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(SPECS)))
    return spec


def run(argv, seed=None):
    """Exit code, stdout and stderr of ``qsl argv`` in process, with QSL_SEED
    set to ``seed`` unless it is None; argparse's own errors exit 2."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("QSL_SEED", None)
    if seed is not None:
        os.environ["QSL_SEED"] = seed
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.environ.pop("QSL_SEED", None)
        if saved is not None:
            os.environ["QSL_SEED"] = saved
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, out, err, context):
    """Exit 0 with a finite JSON report and an empty stderr, or exit 2 or 4
    with exactly one ``error:`` line."""
    assert code in (0, 2, 4), (context, code, err)
    if code == 0:
        assert err == "", (context, err)
        assert "NaN" not in out and "Infinity" not in out, (context, out)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (context, err)


def mean(kind, p, second=RANGE):
    return {"kind": kind, "params": {"p": p}, "children": [SCHATTEN, second]}


def moment(p, n=3):
    return {"kind": "ml", "params": {"p": p, "psi": state(n)}}


def schatten(p):
    return {"kind": "schatten", "params": {"p": p}}


# exponents whose scalar powers leave the float range, the commands each is
# run under, and whether those answer: the p = 1e308 means, whose children's
# powers overflow though the mean does not, answer; at the others F, or F**2
# in the geodesic check, overflows and the command exits 4 naming the exponent
EXPONENTS = [(mean("powmean", 1e308), ["time", "invariance", "geodesic", "conjmin"], True),
             (mean("powmean", 1e-300), ["time", "invariance", "geodesic", "conjmin"], False),
             (mean("geomean", 1e308), ["time", "invariance", "geodesic", "conjmin"], True),
             (moment(1e-300), ["time", "geodesic"], False),
             (mean("powmean", 0.001), ["geodesic"], False)]


def exponent_cases(answers):
    """The (spec, command) pairs of ``EXPONENTS`` that answer, or exit 4, each
    with the id ``spec{i}-{command}``, ``i`` its place among all the pairs."""
    pairs = [(spec, command, a) for spec, commands, a in EXPONENTS for command in commands]
    return [pytest.param(spec, command, id=f"spec{i}-{command}")
            for i, (spec, command, a) in enumerate(pairs) if a == answers]


def randers(entry, value):
    """The Randers spec with one metric entry replaced."""
    spec = copy.deepcopy(SPECS[3])
    spec["params"]["metric"]["re"][entry[0]][entry[1]] = value
    return spec


@settings(max_examples=60, deadline=None)
@given(mutated_specs())
@example(randers((1, 4), "nan"))
@example(randers((0, 0), "inf"))
@example(EXPONENTS[0][0])
@example(EXPONENTS[1][0])
@example(EXPONENTS[2][0])
@example(EXPONENTS[3][0])
@example(EXPONENTS[4][0])
@example(schatten(2000))
@example(schatten(5000))
@example(moment(2000))
def test_mutated_specs_exit_0_2_or_4_without_a_traceback(spec):
    for command in COMMANDS:
        assert_clean(*run(command + ["--constraint", json.dumps(spec)]), (command, spec))


@pytest.mark.parametrize("spec,command", exponent_cases(answers=False))
def test_overflowing_exponents_exit_4_naming_the_exponent(spec, command):
    argv = next(c for c in COMMANDS if c[0] == command)
    code, _, err = run(argv + ["--constraint", json.dumps(spec)])
    assert code == 4
    assert err.startswith("error: ") and "exponent" in err and "overflows" in err


def assert_time_is_the_mean(time_argv, spec):
    """``time`` on the mean ``spec`` exits 0 with the mean of its children's
    own times, to 1e-15 relative, as ``decimal_mean`` takes it; every
    tree here is invariant, so each takes the principal logarithm."""
    times = []
    for tree in [spec] + spec["children"]:
        code, out, err = run(time_argv(tree))
        assert (code, err) == (0, ""), (tree, err)
        times.append(json.loads(out)["time"])
    want = decimal_mean(spec["kind"], spec["params"]["p"], *times[1:])
    assert abs(times[0] - want) <= 1e-15 * want, (times[0], want)


# each exited 4 naming the exponent
@pytest.mark.parametrize("spec,command", exponent_cases(answers=True))
def test_means_whose_powers_overflow_answer(spec, command):
    argv = next(c for c in COMMANDS if c[0] == command)
    code, out, err = run(argv + ["--constraint", json.dumps(spec)])
    assert_clean(code, out, err, command)
    assert code == 0
    if command == "time":
        assert_time_is_the_mean(lambda tree: argv + ["--constraint", json.dumps(tree)], spec)


def gate_argv(tmp_path, command, angles, spec):
    """``command`` on ``spec`` with JSON output, for qft:3, or exp(diag(1j *
    angles)) from a matrix file, or dimension 3 for ``invariance``."""
    argv = [command, "--constraint", json.dumps(spec), "--output", "json"]
    if command == "invariance":
        return argv + ["--dim", "3"]
    if angles is None:
        return argv + ["--gate", "qft:3"]
    jsonio.save_matrix(str(tmp_path / "gate.json"), expm(np.diag(1j * np.array(angles))))
    return argv + ["--gate", f"file:{tmp_path / 'gate.json'}"]


OVER = "overflows a float"
UNDER = "underflows a float to 0 from a nonzero value"


# a mean whose powers of a child underflow to 0 or round to 1: each exited 4
# naming p, and printed T = 0, T = 1 or a passing geodesic report before that
@pytest.mark.parametrize("command,angles,spec", [
    ("time", [0.2, -0.2], mean("powmean", 2000, SCHATTEN_INF)),
    ("time", [0.2, -0.2], mean("geomean", 2000, SCHATTEN_INF)),
    ("time", None, mean("geomean", 1e-300)),
    ("time", None, mean("geomean", 1e-20)),
    ("geodesic", None, mean("geomean", 1e-300)),
])
def test_means_whose_powers_lose_p_answer(tmp_path, command, angles, spec):
    code, out, err = run(gate_argv(tmp_path, command, angles, spec))
    assert_clean(code, out, err, command)
    assert code == 0
    if command == "time":
        assert_time_is_the_mean(lambda tree: gate_argv(tmp_path, "time", angles, tree), spec)


def test_means_that_keep_p_keep_their_value(tmp_path):
    # the closed forms keep the bits the definitions (F1**p + F2**p)**(1/p)
    # and (F1**p * F2**p)**(1/(2p)) gave in scalar powers
    for spec, angles, want in ((mean("powmean", 2, SCHATTEN_INF), [0.2, -0.2], 0.34641016151377552),
                               (mean("geomean", 1), None, 3.9988231681122488)):
        code, out, err = run(gate_argv(tmp_path, "time", angles, spec))
        assert (code, err) == (0, "")
        assert json.loads(out)["time"] == want


# Schatten and ml powers that overflow, or underflow to 0 from a nonzero
# argument: each printed inf, 0 or NaN with exit 0, or an AssertionError
@pytest.mark.parametrize("command,angles,spec,message", [
    ("time", None, schatten(2000), f"schatten exponent p = 2000.0 {OVER}"),
    ("time", [0.5, -0.5], schatten(2000), f"schatten exponent p = 2000.0 {UNDER}"),
    ("time", [3.0, -3.0], moment(2000, n=2), f"ml exponent p = 2000.0 {OVER}"),
    ("time", None, moment(2000), f"ml exponent p = 2000.0 {OVER}"),
    ("geodesic", None, moment(2000), f"ml exponent p = 2000.0 {OVER}"),
    ("invariance", None, schatten(5000), f"schatten exponent p = 5000.0 {OVER}"),
])
def test_large_exponents_exit_4_naming_p(tmp_path, command, angles, spec, message):
    assert run(gate_argv(tmp_path, command, angles, spec)) == (4, "", f"error: {message}\n")


RANDERS_Z = {"kind": "randers", "params": {"metric": metric(3), "oneform": {
    "dim": 3, "re": [0, 0, 0.5], "im": [0, 0, 0]}}}
MT_MIXED = {"kind": "mt", "params": {"psi": {"dim": 2, "re": [0.6, 0.8], "im": [0, 0]}}}


# a quadratic form, variance or sum out of float range, on H = scale *
# diag(1, -1): Randers printed an action of inf at 1e160 and a negative one at
# 1e-170, mt inf and 0, the sum inf
@pytest.mark.parametrize("spec,scale,message", [
    (RANDERS_Z, 1e160, f"randers quadratic form {OVER}"),
    (RANDERS_Z, 1e-170, f"randers quadratic form {UNDER}"),
    (MT_MIXED, 1e160, f"mt variance {OVER}"),
    (MT_MIXED, 1e-170, f"mt variance {UNDER}"),
    ({"kind": "sum", "children": [SCHATTEN_INF, SCHATTEN_INF]}, 1e308, f"sum {OVER}"),
], ids=["randers-1e160", "randers-1e-170", "mt-1e160", "mt-1e-170", "sum-1e308"])
def test_forms_out_of_float_range_exit_4_naming_the_class(tmp_path, spec, scale, message):
    h = np.diag([scale, -scale]).astype(complex)
    (tmp_path / "traj.json").write_text(jsonio.dumps_canonical({"duration": 1.0, "samples": [
        {"t": t, "matrix": jsonio.matrix_to_json(h)} for t in (0.0, 1.0)]}))
    argv = ["action", "--constraint", json.dumps(spec), "--trajectory",
            str(tmp_path / "traj.json"), "--output", "json"]
    assert run(argv) == (4, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# flag values
# ---------------------------------------------------------------------------

JUNK_FLAG_VALUES = ["-1", "0", "nan", "inf", "1e308", "x", "", "1.5"]
HUGE = "99999999999999999999"  # beyond int64


def number_at_least(low):
    def ok(text):
        try:
            return int(text) >= low
        except ValueError:
            return False
    return ok


def positive_finite(text):
    try:
        return 0.0 < float(text) < math.inf
    except ValueError:
        return False


# flag: (its domain, small valid values, the commands that take it)
FLAGS = {
    "--kappa": (positive_finite, ["0.5", "2"], ["time", "conjmin"]),
    "--n-max": (number_at_least(0), ["0", "1", "2", HUGE, "1000000"], ["time", "branches"]),
    "--restarts": (number_at_least(1), ["1", "2"], ["conjmin"]),
    "--samples": (number_at_least(1), ["1", "7", "20"], ["invariance", "classify"]),
    "--dim": (number_at_least(2), ["2", "3", "4"], ["invariance", "classify"]),
    "--step": (positive_finite, ["1e-4", "1e-2"], ["geodesic"]),
    "--threshold": (positive_finite, ["1e-6", "0.5"], ["geodesic"]),
    "--branch-sweep": (number_at_least(0), ["0", "1", "2", HUGE, "1000000"], ["geodesic"]),
}
TOLERANCES = ["unitary", "invariance", "geodesic"]
TAKES_GATE = {"time", "branches", "conjmin", "geodesic"}


@st.composite
def flag_runs(draw):
    """(argv, QSL_SEED or None, whether some value is outside its domain)."""
    command = draw(st.sampled_from(["time", "branches", "conjmin", "invariance",
                                    "classify", "geodesic"]))
    argv = [command, "--output", "json"]
    if command in TAKES_GATE:
        argv += ["--gate", "qft:3"]
    if command != "branches":
        argv += ["--constraint", json.dumps(draw(st.sampled_from([SCHATTEN, MT])))]
    junk = False

    def value(ok, valid):
        nonlocal junk
        text = draw(st.sampled_from(JUNK_FLAG_VALUES + valid))
        junk = junk or not ok(text)
        return text

    for flag, (ok, valid, commands) in FLAGS.items():
        if command in commands and draw(st.booleans()):
            argv += [flag, value(ok, valid)]
    if draw(st.booleans()):
        name = draw(st.sampled_from(TOLERANCES))
        argv += ["--tol", f"{name}={value(positive_finite, ['1e-9', '1e-3'])}"]
    seed = value(number_at_least(0), ["0", "5"]) if draw(st.booleans()) else None
    return argv, seed, junk


@settings(max_examples=150, deadline=None)
@given(flag_runs())
@example((["time", "--gate", "qft:3", "--constraint", json.dumps(SCHATTEN), "--kappa", "nan"],
          None, True))
@example((["geodesic", "--gate", "qft:3", "--constraint", json.dumps(SCHATTEN),
           "--step", "1e308", "--output", "json"], None, False))
@example((["classify", "--constraint", json.dumps(MT), "--tol", "invariance="], None, True))
@example((["branches", "--gate", "qft:3"], "1.5", True))
def test_junk_flag_values_exit_2_without_a_traceback(case):
    argv, seed, junk = case
    code, out, err = run(argv, seed)
    assert "Traceback" not in err, (argv, seed, err)
    if junk:
        assert (code, out) == (2, ""), (argv, seed, err)
    else:
        assert_clean(code, out, err, (argv, seed))


@pytest.mark.parametrize("command", ["branches", "time"])
def test_n_max_beyond_int64_on_one_cluster_answers(command):
    # the identity's one cluster has a one-row lattice, which no cap bounds:
    # the int64 picks met n_max in an OverflowError traceback
    argv = [command, "--gate", "identity:3", "--n-max", HUGE, "--output", "json"]
    if command == "time":
        argv += ["--constraint", json.dumps(SCHATTEN)]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["n_max"] == int(HUGE)
    if command == "time":
        assert (report["time"], report["branch_shifts"]) == (0.0, [0, 0, 0])
    else:
        assert [b["shifts"] for b in report["branches"]] == [[0, 0, 0]]


@pytest.mark.parametrize("command", ["branches", "time"])
def test_n_max_beyond_int64_on_three_clusters_hits_the_cap(command):
    argv = [command, "--gate", "qft:3", "--n-max", HUGE]
    if command == "time":
        argv += ["--constraint", json.dumps(SCHATTEN)]
    assert run(argv) == (4, "", f"error: n_max = {HUGE} needs {(2 * int(HUGE) + 1) ** 2} "
                                "branch lattice rows, above the cap of 1000000; lower n_max\n")
