"""Command-line interface.

Every command prints a human table by default; ``--output json`` emits a
canonical JSON report (sorted keys, 17-significant-digit floats, byte-stable
across runs for a fixed seed) and ``--output csv`` a flat delimited form for
external plotters.

A command builds one report dict, which is its JSON form.  A one-row command
states its output once, as table rows ``(label, report key, format spec)``
and a list of CSV columns (report keys), and ``_one_row`` renders both from
the report.  ``classify`` prints its one classification line; ``branches``
and ``reproduce`` emit one CSV row per branch or bound and build their own
tables.  Flag bounds are argparse ``type=`` validators raising ConfigError, so
an out-of-bounds value exits 2 before any file is read.

Exit codes: 0 success, 1 a reproduction row failed, 2 configuration parse
error, 3 numerical non-convergence, 4 invariant violation in the inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import gates, geometry, jsonio
from .constraints import EnergyUncertainty, GroundShiftedMoment, SpectralRange, basis_state
from .errors import ConfigError, NoConvergenceError, OptimizerDidNotConvergeError, QslError
from .gatetime import (DEFAULT_RESTARTS, Trajectory, action, analytic_bounds, conj_min_time,
                       gate_time)
from .linalg import UNITARY_ATOL, log_branches

TABLE_SIG = ".10g"


def _fmt(x: float) -> str:
    return format(float(x), TABLE_SIG)


def _checked(cast, field, must, ok):
    """argparse ``type=``: cast the text, then refuse values outside the bound."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise ConfigError(f"field '{field}': must be {must}, got {value}")
        return value
    parse.__name__ = cast.__name__  # argparse's "invalid float value" names it
    return parse


def _at_least(field, low):
    return _checked(int, field, f">= {low}", lambda v: v >= low)


def _positive_finite(field):
    return _checked(float, field, "finite and > 0", lambda v: 0 < v < math.inf)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="qsl",
        description="Minimum gate times in SU(N) under positive-homogeneous "
                    "resource constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, gate=False, constraint=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, gate_spec=None, constraint=None, trajectory_path=None)
        p.add_argument("--output", choices=("table", "json", "csv"), default="table")
        p.add_argument("--seed", type=_at_least("seed", 0), default=0,
                       help="random seed (QSL_SEED environment variable wins)")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="override a tolerance: unitary, invariance, geodesic")
        if gate:
            p.add_argument("--gate", dest="gate_spec", metavar="GATE", required=True,
                           help="identity:N | orthogonalizer:theta:N | qft:N | file:path")
        if constraint:
            p.add_argument("--constraint", required=True,
                           help="constraint JSON file, or inline JSON starting with '{'")
        return p

    kappa = {"type": _positive_finite("kappa"), "default": 1.0}
    n_max = _at_least("n_max", 0)
    dim = {"type": _at_least("dim", 2), "default": None}
    samples = {"type": _at_least("samples", 1), "default": 200}

    p = command("time", _cmd_time, "branch-minimized gate time", gate=True, constraint=True)
    p.add_argument("--kappa", **kappa)
    p.add_argument("--n-max", type=n_max, default=0)

    p = command("branches", _cmd_branches, "list traceless logarithm branches", gate=True)
    p.add_argument("--n-max", type=n_max, default=1)

    p = command("conjmin", _cmd_conjmin, "minimize the time over conjugations",
                gate=True, constraint=True)
    p.add_argument("--kappa", **kappa)
    p.add_argument("--restarts", type=_at_least("restarts", 1), default=DEFAULT_RESTARTS)

    p = command("action", _cmd_action, "integrate the constraint along a trajectory",
                constraint=True)
    p.add_argument("--trajectory", dest="trajectory_path", metavar="TRAJECTORY",
                   required=True, help="trajectory JSON file")

    p = command("invariance", _cmd_invariance, "test conjugation invariance of a constraint",
                constraint=True)
    p.add_argument("--dim", **dim)
    p.add_argument("--samples", **samples)

    p = command("geodesic", _cmd_geodesic, "per-gate constant-drive optimality check",
                gate=True, constraint=True)
    p.add_argument("--step", type=_positive_finite("step"), default=geometry.FD_STEP,
                   help="relative finite-difference step, used where the constraint has no "
                        "orbit covector (ml, mt, max/min of a varying child); the other "
                        "residuals are exact")
    p.add_argument("--threshold", type=_positive_finite("threshold"), default=None)
    p.add_argument("--branch-sweep", type=_at_least("branch_sweep", 0), default=0)

    p = command("classify", _cmd_classify, "summary-table cell for a constraint",
                constraint=True)
    p.add_argument("--dim", **dim)
    p.add_argument("--samples", **samples)

    command("reproduce", _cmd_reproduce, "closed-form bound reproduction suite")
    return parser


def _resolve(args) -> None:
    """Replace ``--tol`` by the tolerance table, apply QSL_SEED, and load every
    referenced file before any computation starts."""
    tol = {"unitary": UNITARY_ATOL, "invariance": geometry.INVARIANCE_THRESHOLD,
           "geodesic": geometry.GEODESIC_THRESHOLD}
    for item in args.tol:
        name, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"field 'tol': expected NAME=VALUE, got {item!r}")
        if name not in tol:
            raise ConfigError(f"field 'tol.{name}': unknown tolerance; expected "
                              "unitary, invariance or geodesic")
        try:
            tol[name] = _positive_finite(f"tol.{name}")(raw)
        except ValueError as exc:
            raise ConfigError(f"field 'tol.{name}': {exc}") from exc
    args.tol = tol

    env_seed = os.environ.get("QSL_SEED")
    if env_seed is not None:
        try:
            args.seed = _at_least("QSL_SEED", 0)(env_seed)
        except ValueError as exc:
            raise ConfigError(f"QSL_SEED: {exc}") from exc

    if args.constraint is not None:
        args.constraint = jsonio.parse_constraint_arg(args.constraint)
    if args.gate_spec is not None:
        args.gate = gates.parse_gate_spec(args.gate_spec, atol=tol["unitary"])
    if args.trajectory_path is not None:
        args.trajectory = _load_trajectory(args.trajectory_path)


def _load_trajectory(path: str) -> Trajectory:
    data = jsonio.load_json(path)
    try:
        duration = float(data["duration"])
        samples = [(float(s["t"]), jsonio.matrix_from_json(s["matrix"]))
                   for s in data["samples"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad trajectory object: {exc}") from exc
    return Trajectory.from_samples(samples, duration=duration)


def _one_row(report, table, csv):
    """Report, table lines, CSV rows and exit code of a one-row command.

    A table row prints ``label = value``: a bool as yes/no, a list as its
    items joined by spaces, anything else through its format spec; a None
    value drops the row.
    """
    lines = []
    for label, key, spec in table:
        value = report[key]
        if value is None:
            continue
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, list):
            value = " ".join(str(x) for x in value)
        lines.append(f"{label} = {format(value, spec)}")
    return report, lines, [{key: report[key] for key in csv}], 0


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_time(args):
    res = gate_time(args.constraint, args.kappa, args.gate, n_max=args.n_max,
                    atol=args.tol["unitary"])
    return _one_row({
        "command": "time",
        "gate": args.gate_spec,
        "kappa": args.kappa,
        "n_max": args.n_max,
        "time": res.time,
        "f_value": res.f_value,
        "branch_shifts": [int(s) for s in res.branch.shifts],
        "branches_considered": res.diagnostics.branches_considered,
    }, [("T", "time", TABLE_SIG), ("f(log O)", "f_value", TABLE_SIG),
        ("kappa", "kappa", TABLE_SIG), ("branch shifts", "branch_shifts", ""),
        ("branches considered", "branches_considered", "")],
        ["time", "f_value", "kappa", "n_max", "branch_shifts", "branches_considered"])


def _cmd_branches(args):
    rows = [{"branch": i,
             "shifts": [int(s) for s in b.shifts],
             "frobenius": b.frobenius,
             "shifted_angles": [float(x) for x in b.shifted_angles]}
            for i, b in enumerate(log_branches(args.gate, args.n_max,
                                               atol=args.tol["unitary"]))]
    report = {"command": "branches", "gate": args.gate_spec, "n_max": args.n_max,
              "count": len(rows), "branches": rows}
    table = [f"{len(rows)} traceless logarithm branches (|n_k| <= {args.n_max})",
             f"{'branch':>6}  {'frobenius':>12}  shifts / shifted angles"]
    table += [f"{row['branch']:>6}  {_fmt(row['frobenius']):>12}  "
              + " ".join(str(s) for s in row["shifts"])
              + "  |  " + " ".join(_fmt(a) for a in row["shifted_angles"])
              for row in rows]
    return report, table, rows, 0


def _cmd_conjmin(args):
    res = conj_min_time(args.constraint, args.kappa, args.gate, restarts=args.restarts,
                        seed=args.seed, atol=args.tol["unitary"])
    return _one_row({
        "command": "conjmin",
        "gate": args.gate_spec,
        "kappa": args.kappa,
        "seed": args.seed,
        "restarts": args.restarts,
        "time": res.time,
        "f_value": res.f_value,
        "converged": res.diagnostics.converged,
        "iterations": res.diagnostics.optimizer_iterations,
        "conjugator": jsonio.matrix_to_json(res.conjugator),
    }, [("T", "time", TABLE_SIG), ("f min", "f_value", TABLE_SIG),
        ("kappa", "kappa", TABLE_SIG), ("converged", "converged", ""),
        ("iterations", "iterations", ""), ("restarts", "restarts", "")],
        ["time", "f_value", "kappa", "restarts", "seed", "converged", "iterations"])


def _cmd_action(args):
    return _one_row({
        "command": "action",
        "trajectory": args.trajectory_path,
        "samples": int(len(args.trajectory.times)),
        "duration": float(args.trajectory.duration),
        "action": action(args.constraint, args.trajectory),
    }, [("S", "action", TABLE_SIG), ("duration", "duration", TABLE_SIG),
        ("samples", "samples", "")],
        ["action", "duration", "samples"])


def _check_invariance(args, command):
    n = args.dim or args.constraint.dim or 3
    rep = geometry.check_ad_invariance(args.constraint, n, samples=args.samples,
                                       seed=args.seed, threshold=args.tol["invariance"])
    return rep, {"command": command, "dim": n, **dataclasses.asdict(rep)}


def _cmd_invariance(args):
    _, report = _check_invariance(args, "invariance")
    return _one_row(report, [
        ("Ad-invariant", "ad_invariant", ""), ("max deviation", "max_deviation", ".3e"),
        ("samples", "samples", ""), ("norm axioms (sampled)", "is_norm", ""),
        ("cell", "table_cell", "")],
        ["dim", "ad_invariant", "max_deviation", "samples", "is_norm", "seed", "threshold"])


def _cmd_geodesic(args):
    rep = geometry.gate_geodesic_check(
        args.constraint, args.gate, step=args.step,
        threshold=args.threshold or args.tol["geodesic"], branch_sweep=args.branch_sweep,
        atol=args.tol["unitary"])
    return _one_row({
        "command": "geodesic",
        "gate": args.gate_spec,
        "passes": rep.passes,
        "normalized_max": rep.normalized_max,
        "threshold": rep.threshold,
        "step": rep.step,
        "branch_shifts": list(rep.branch_shifts) if rep.branch_shifts else None,
        "residuals": [float(r) for r in rep.residuals],
    }, [("passes", "passes", ""), ("normalized max residual", "normalized_max", ".3e"),
        ("threshold", "threshold", "g"), ("step", "step", "g"),
        ("branch shifts", "branch_shifts", "")],
        ["passes", "normalized_max", "threshold", "step"])


def _cmd_classify(args):
    rep, report = _check_invariance(args, "classify")
    line = report["classification"] = geometry.classification_line(rep)
    columns = ("dim", "ad_invariant", "is_norm", "classification")
    return report, [line], [{key: report[key] for key in columns}], 0


_REPRODUCE_CASES = [("ml", p, n) for p in (1.0, 2.0, 3.0) for n in (2, 3, 4)] + \
                   [("mt", None, n) for n in (2, 3, 4)] + \
                   [("opnorm", None, n) for n in (2, 3, 4)]


def _cmd_reproduce(args):
    tol = 1e-9
    rows = []
    for family, p, n in _REPRODUCE_CASES:
        anchor = basis_state(n, 0)
        func = (GroundShiftedMoment(p=p, psi=anchor) if family == "ml"
                else EnergyUncertainty(psi=anchor) if family == "mt"
                else SpectralRange())
        computed = gate_time(func, 1.0, gates.orthogonalizer(np.pi, n)).time
        expected = analytic_bounds(family, 1.0, p=p)
        err = abs(computed - expected)
        rows.append({"bound": family, "p": p, "n": n, "computed": computed,
                     "analytic": expected, "abs_error": err,
                     "status": "PASS" if err < tol else "FAIL"})
    all_pass = all(r["status"] == "PASS" for r in rows)
    report = {"command": "reproduce", "seed": args.seed, "tolerance": tol,
              "all_pass": all_pass, "rows": rows}
    table = [f"closed-form bound reproduction (kappa = 1, tolerance {tol:g}, seed {args.seed})",
             f"{'bound':<7}{'p':<5}{'N':<3}{'computed':>14}{'analytic':>14}{'abs error':>12}  status"]
    for r in rows:
        pcell = "-" if r["p"] is None else _fmt(r["p"])
        table.append(f"{r['bound']:<7}{pcell:<5}{r['n']:<3}"
                     f"{_fmt(r['computed']):>14}{_fmt(r['analytic']):>14}"
                     f"{r['abs_error']:>12.3e}  {r['status']}")
    table.append("all rows PASS" if all_pass else "FAILURES present")
    # the CSV writes p = None as an empty cell
    return report, table, rows, 0 if all_pass else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _resolve(args)
        report, table, rows, code = args.run(args)
        if args.output == "json":
            sys.stdout.write(jsonio.dumps_canonical(report))
        elif args.output == "csv":
            sys.stdout.write(jsonio.rows_to_csv(rows))
        else:
            sys.stdout.write("\n".join(table) + "\n")
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OptimizerDidNotConvergeError, NoConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
