"""CLI fuzz: mutated constraint specs exit 0, 2 or 4, never with a traceback.

Each drawn spec starts from a valid tree and is mutated: a field dropped, a
junk value, a junk number in place of a number, or a state or metric of the
wrong dimension put in, or a subtree swapped in.  Every mutant runs through ``cli.main`` in process with the five
commands that evaluate a constraint.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslkit.cli import main


def state(n):
    return {"dim": n, "re": [1] + [0] * (n - 1), "im": [0] * n}


def metric(n):
    return {"dim": n, "re": [[float(i == j) for j in range(n)] for i in range(n)],
            "im": [[0] * n for _ in range(n)]}


def oneform(n):
    return {"dim": n, "re": [0.2] + [0] * (n - 1), "im": [0] * n}


SCHATTEN = {"kind": "schatten", "params": {"p": 2}}
RANGE = {"kind": "op_shifted"}
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
COMMANDS = [["time", "--gate", "qft:3"],
            ["conjmin", "--gate", "qft:3", "--restarts", "1"],
            ["geodesic", "--gate", "qft:3"],
            ["invariance", "--samples", "5"],
            ["classify", "--samples", "5"]]


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


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def mean(kind, p):
    return {"kind": kind, "params": {"p": p}, "children": [SCHATTEN, RANGE]}


def moment(p):
    return {"kind": "ml", "params": {"p": p, "psi": state(3)}}


# exponents whose scalar powers overflow a float
OVERFLOWS = [(mean("powmean", 1e308), ["time", "invariance", "geodesic", "conjmin"]),
             (mean("powmean", 1e-300), ["time", "invariance", "geodesic", "conjmin"]),
             (mean("geomean", 1e308), ["time", "invariance", "geodesic", "conjmin"]),
             (moment(1e-300), ["time", "geodesic"]),
             (mean("powmean", 0.001), ["geodesic"])]


def randers(entry, value):
    """The Randers spec with one metric entry replaced."""
    spec = copy.deepcopy(SPECS[3])
    spec["params"]["metric"]["re"][entry[0]][entry[1]] = value
    return spec


@settings(max_examples=60, deadline=None)
@given(mutated_specs())
@example(randers((1, 4), "nan"))
@example(randers((0, 0), "inf"))
@example(OVERFLOWS[0][0])
@example(OVERFLOWS[1][0])
@example(OVERFLOWS[2][0])
@example(OVERFLOWS[3][0])
@example(OVERFLOWS[4][0])
def test_mutated_specs_exit_0_2_or_4_without_a_traceback(spec):
    for command in COMMANDS:
        code, err = run(command + ["--constraint", json.dumps(spec)])
        assert code in (0, 2, 4), (command, spec, err)
        assert "Traceback" not in err, (command, spec, err)


@pytest.mark.parametrize("spec,command", [(spec, command) for spec, commands in OVERFLOWS
                                          for command in commands])
def test_overflowing_exponents_exit_4_naming_the_exponent(spec, command):
    argv = next(c for c in COMMANDS if c[0] == command)
    code, err = run(argv + ["--constraint", json.dumps(spec)])
    assert code == 4
    assert err.startswith("error: ") and "exponent" in err and "overflows" in err
