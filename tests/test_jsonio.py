"""File formats, canonical JSON, and constraint (de)serialization."""

import json
import math

import numpy as np
import pytest

from qslkit import ConfigError, Schatten, evaluate, random_algebra_element
from qslkit.constraints import KINDS
from qslkit.jsonio import (
    constraint_from_json,
    constraint_to_json,
    dumps_canonical,
    matrix_from_json,
    matrix_to_json,
    parse_constraint_arg,
    rows_to_csv,
    vector_from_json,
    vector_to_json,
)

from test_constraints import catalog


def test_matrix_round_trip_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # through the canonical text representation, not just the dict
    text = dumps_canonical(matrix_to_json(m))
    back = matrix_from_json(json.loads(text))
    assert np.array_equal(back, m)


def test_vector_round_trip_exact():
    v = np.array([1 / 3, -2 / 7]) + 1j * np.array([math.pi, -1e-17])
    back = vector_from_json(json.loads(dumps_canonical(vector_to_json(v))))
    assert np.array_equal(back, v)


def test_matrix_shape_validation():
    with pytest.raises(ConfigError):
        matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})


@pytest.mark.parametrize("parse,data,message", [
    (matrix_from_json, {"dim": 2, "re": [1, 0], "im": [0, 0]}, "matrix field shapes"),
    (vector_from_json, {"dim": 2, "re": [[1, 0]], "im": [[0, 0]]}, "vector field shapes"),
    (matrix_from_json, {"dim": 2, "re": [[1, 0]]}, "bad matrix object"),
    (vector_from_json, {"re": [1, 0], "im": [0, 0]}, "bad vector object"),
])
def test_complex_array_errors_name_the_kind(parse, data, message):
    with pytest.raises(ConfigError, match=message):
        parse(data)


def test_canonical_json_is_fixed_point():
    obj = {"b": 0.1, "a": [1, 2.5, -0.0], "nested": {"x": True, "y": None, "z": "s"}}
    text = dumps_canonical(obj)
    assert dumps_canonical(json.loads(text)) == text
    assert '"a": [1, 2.5, -0.0]' in text  # 17g floats, sorted keys, int/float kept apart


def test_canonical_json_float_precision():
    text = dumps_canonical({"v": 0.1})
    assert "0.10000000000000001" in text
    assert json.loads(text)["v"] == 0.1


@pytest.mark.parametrize("spec", [
    {"kind": "schatten", "params": {"p": 2}},
    {"kind": "schatten", "params": {"p": "inf"}},
    {"kind": "op_shifted"},
    {"kind": "ml", "params": {"p": 1.5, "psi": {"dim": 2, "re": [1, 0], "im": [0, 0]}}},
    {"kind": "mt", "params": {"psi": {"dim": 2, "re": [0, 1], "im": [0, 0]}}},
    {"kind": "randers", "params": {
        "metric": {"dim": 3, "re": [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
                   "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
        "oneform": {"dim": 3, "re": [0.3, 0, 0], "im": [0, 0, 0]}}},
    {"kind": "sum", "children": [{"kind": "schatten", "params": {"p": 1}},
                                 {"kind": "op_shifted"}]},
    {"kind": "powmean", "params": {"p": 4},
     "children": [{"kind": "schatten", "params": {"p": 2}}, {"kind": "op_shifted"}]},
    {"kind": "geomean", "params": {"p": 2},
     "children": [{"kind": "schatten", "params": {"p": 2}}, {"kind": "op_shifted"}]},
    {"kind": "max", "children": [{"kind": "schatten", "params": {"p": 2}},
                                 {"kind": "op_shifted"}]},
    {"kind": "min", "children": [{"kind": "schatten", "params": {"p": 2}},
                                 {"kind": "op_shifted"}]},
])
def test_constraint_round_trip_evaluates_identically(spec):
    func = constraint_from_json(spec)
    clone = constraint_from_json(constraint_to_json(func))
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = random_algebra_element(2, rng)
        assert evaluate(clone, a) == evaluate(func, a)


def test_schatten_inf_serialization():
    func = Schatten(p=math.inf)
    data = constraint_to_json(func)
    assert data["params"]["p"] == "inf"
    assert math.isinf(constraint_from_json(data).p)


def reparse(text):
    """Canonical JSON text of the constraint read from ``text``."""
    return dumps_canonical(constraint_to_json(constraint_from_json(json.loads(text))))


@pytest.mark.parametrize("n", [2, 3])
def test_every_kind_round_trips_byte_for_byte(n):
    funcs = catalog(n)  # Schatten(inf) included
    assert {type(f) for f in funcs} == set(KINDS.values())
    for func in funcs:
        written = dumps_canonical(constraint_to_json(func))
        text = reparse(written)  # an int p is read back as a float
        assert json.loads(text) == json.loads(written)
        assert reparse(text) == text


def test_file_reference_resolution(tmp_path):
    psi_path = tmp_path / "plus.json"
    psi_path.write_text(dumps_canonical(vector_to_json(
        np.array([1, 1]) / np.sqrt(2))))
    spec = {"kind": "mt", "params": {"psi": "file:plus.json"}}
    func = constraint_from_json(spec, base_dir=str(tmp_path))
    assert func.dim == 2


def test_parse_constraint_inline_and_file(tmp_path):
    inline = parse_constraint_arg('{"kind": "schatten", "params": {"p": 3}}')
    assert inline.p == 3.0
    path = tmp_path / "c.json"
    path.write_text('{"kind": "op_shifted"}')
    assert parse_constraint_arg(str(path)).kind == "op_shifted"


def test_unknown_kind_reports_field():
    with pytest.raises(ConfigError, match="kind"):
        constraint_from_json({"kind": "frobnicate"})


def test_missing_p_reports_field():
    with pytest.raises(ConfigError, match="params.p"):
        constraint_from_json({"kind": "schatten"})


def test_randers_from_json_enforces_positivity():
    spec = {"kind": "randers", "params": {
        "metric": {"dim": 3, "re": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
        "oneform": {"dim": 3, "re": [2.0, 0, 0], "im": [0, 0, 0]}}}
    with pytest.raises(ConfigError, match="field 'params': oneform too large"):
        constraint_from_json(spec)


def test_csv_rendering():
    rows = [{"name": "a", "value": 0.5, "flag": True, "shifts": [0, -1]}]
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == "name,value,flag,shifts"
    assert text.splitlines()[1] == "a,0.5,true,0 -1"
