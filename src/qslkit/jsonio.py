"""File formats and canonical serialization.

Matrix files are JSON objects ``{"dim": N, "re": [[...]], "im": [[...]]}``
with row-major IEEE-754 doubles; vectors use the same layout with 1-d lists.
Constraint files are nested ``{"kind": ..., "params": {...}, "children":
[...]}`` trees; state vectors and Randers data may be embedded inline or
referenced as ``"file:path"``.

All writers emit floats with 17 significant digits, which round-trips
doubles exactly, and objects with sorted keys, so serializing a parsed
report reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os

import numpy as np

from . import constraints as con
from .errors import ConfigError, InvalidParameterError

FLOAT_FORMAT = ".17g"


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if math.isnan(x):
        return "NaN"
    text = format(float(x), FLOAT_FORMAT)
    # keep a decimal point so the value reparses as a float, not an int
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def dumps_canonical(obj) -> str:
    """Serialize with sorted keys and fixed float formatting."""
    out = io.StringIO()
    _write(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def _write(obj, out, level):
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise ConfigError(f"JSON object keys must be strings, got {key!r}")
            out.write(inner + json.dumps(key, ensure_ascii=False) + ": ")
            _write(obj[key], out, level + 1)
            out.write(",\n" if i + 1 < len(keys) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.write("[]")
            return
        # short scalar rows inline, anything nested one item per line
        if all(isinstance(x, (int, float, np.integer, np.floating)) for x in seq):
            out.write("[" + ", ".join(
                str(int(x)) if isinstance(x, (int, np.integer)) else _format_float(float(x))
                for x in seq) + "]")
            return
        out.write("[\n")
        for i, item in enumerate(seq):
            out.write(inner)
            _write(item, out, level + 1)
            out.write(",\n" if i + 1 < len(seq) else "\n")
        out.write(pad + "]")
    else:
        raise ConfigError(f"cannot serialize value of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Matrices and vectors
# ---------------------------------------------------------------------------

def matrix_to_json(m) -> dict:
    """Matrix or vector as {"dim", "re", "im"}; a vector gives 1-d lists."""
    m = np.asarray(m, dtype=np.complex128)
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


vector_to_json = matrix_to_json


def _complex_from_json(data, what: str, ndim: int) -> np.ndarray:
    try:
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} object: {exc}") from exc
    if re.shape != (dim,) * ndim or im.shape != (dim,) * ndim:
        raise ConfigError(
            f"{what} field shapes {re.shape}/{im.shape} do not match dim {dim}")
    return re + 1j * im


def matrix_from_json(data) -> np.ndarray:
    return _complex_from_json(data, "matrix", 2)


def vector_from_json(data) -> np.ndarray:
    return _complex_from_json(data, "vector", 1)


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: nested too deeply") from exc


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_json(load_json(path))


def save_matrix(path: str, m) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(matrix_to_json(m)))


# ---------------------------------------------------------------------------
# Constraint trees
# ---------------------------------------------------------------------------

def _resolve(node, base_dir, parser, what):
    """Inline object, or "file:path" reference resolved against base_dir."""
    if isinstance(node, str):
        if not node.startswith("file:"):
            raise ConfigError(f"{what}: expected an object or file:path, got {node!r}")
        path = node.split(":", 1)[1]
        if base_dir is not None:
            path = os.path.join(base_dir, path)
        return parser(load_json(path))
    return parser(node)


# Readers of the array fields: a state is a complex vector, Randers data are real.
_ARRAY_READERS = {
    "psi": vector_from_json,
    "metric": lambda data: matrix_from_json(data).real,
    "oneform": lambda data: vector_from_json(data).real,
}
MAX_DEPTH = 32  # deepest constraint tree read; evaluation recurses once per level


def constraint_from_json(data, base_dir=None, _depth=1):
    """Build a constraint functional from its JSON description.

    ``kind`` names a class in ``constraints.KINDS``; ``children`` are its
    subtrees and ``params`` its other dataclass fields.  A malformed field, a
    parameter outside its constraint's domain, or a tree deeper than MAX_DEPTH
    raises ConfigError naming the field.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError("constraint spec must be an object with a 'kind' field")
    kind = data["kind"]
    params = data.get("params", {})
    children = data.get("children", [])
    if not isinstance(params, dict):
        raise ConfigError(f"field 'params': expected an object, got {params!r}")
    if not isinstance(children, list):
        raise ConfigError(f"field 'children': expected a list, got {children!r}")
    cls = con.KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"field 'kind': unknown constraint {kind!r}")
    names = [f.name for f in dataclasses.fields(cls)]
    values = {}
    if "children" in names:
        if len(children) != 2:
            raise ConfigError(f"field 'children': {kind} needs exactly 2, got {len(children)}")
        if _depth >= MAX_DEPTH:
            raise ConfigError(f"field 'children': tree deeper than {MAX_DEPTH} levels")
        values["children"] = tuple(constraint_from_json(c, base_dir, _depth + 1) for c in children)
    elif children:
        raise ConfigError(f"field 'children': atom {kind!r} takes none")
    for name in (name for name in names if name not in values):
        if name not in params:
            raise ConfigError(f"field 'params.{name}': required for {kind}")
        values[name] = (_parse_p(params[name]) if name == "p" else
                        _resolve(params[name], base_dir, _ARRAY_READERS[name], f"params.{name}"))
    try:
        return cls(**values)
    except InvalidParameterError as exc:
        raise ConfigError(f"field '{'params.p' if 'p' in values else 'params'}': {exc}") from exc


def _parse_p(p) -> float:
    """A number, or "inf"/"infinity" in any case."""
    if isinstance(p, str):
        if p.lower() not in ("inf", "infinity"):
            raise ConfigError(f"field 'params.p': bad value {p!r}")
        return math.inf
    try:
        return float(p)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'params.p': bad value {p!r}") from exc


def constraint_to_json(func) -> dict:
    """Inverse of constraint_from_json (file references are not reproduced)."""
    node: dict = {"kind": func.kind}
    params = {}
    for field in dataclasses.fields(func):
        value = getattr(func, field.name)
        if field.name == "children":
            node["children"] = [constraint_to_json(c) for c in value]
        elif isinstance(value, np.ndarray):
            params[field.name] = matrix_to_json(value)
        else:
            params[field.name] = "inf" if math.isinf(value) else value
    if params:
        node["params"] = params
    return node


def parse_constraint_arg(arg: str, base_dir=None):
    """CLI helper: inline JSON if the argument starts with '{', else a path."""
    if arg.lstrip().startswith("{"):
        try:
            data = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"inline constraint:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except RecursionError as exc:
            raise ConfigError("inline constraint: nested too deeply") from exc
        return constraint_from_json(data, base_dir)
    return constraint_from_json(load_json(arg), os.path.dirname(os.path.abspath(arg)))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def rows_to_csv(rows: list[dict]) -> str:
    """Render dict rows as CSV with full-precision floats."""
    if not rows:
        return ""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    return out.getvalue()


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        seq = v.tolist() if isinstance(v, np.ndarray) else v
        return " ".join(str(x) for x in seq)
    return v
