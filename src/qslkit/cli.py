"""Command-line interface.

Every command prints a human table by default; ``--output json`` emits a
canonical JSON report (sorted keys, 17-significant-digit floats, byte-stable
across runs for a fixed seed) and ``--output csv`` a flat delimited form for
external plotters.

Exit codes: 0 success, 1 a reproduction row failed, 2 configuration parse
error, 3 numerical non-convergence, 4 invariant violation in the inputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import gates, geometry, jsonio
from .errors import ConfigError, NoConvergenceError, OptimizerDidNotConvergeError, QslError
from .gatetime import Trajectory, action, analytic_bounds, conj_min_time, gate_time
from .constraints import GroundShiftedMoment, EnergyUncertainty, SpectralRange, basis_state

TABLE_SIG = ".10g"


@dataclass
class RunConfig:
    command: str
    gate: Optional[np.ndarray] = None
    gate_spec: Optional[str] = None
    constraint: Optional[object] = None
    constraint_arg: Optional[str] = None
    trajectory: Optional[Trajectory] = None
    trajectory_path: Optional[str] = None
    kappa: float = 1.0
    n_max: int = 0
    seed: int = 0
    restarts: int = 16
    samples: int = 200
    dim: Optional[int] = None
    step: float = geometry.FD_STEP
    threshold: Optional[float] = None
    branch_sweep: int = 0
    output: str = "table"
    tolerances: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return format(float(x), TABLE_SIG)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="qsl",
        description="Minimum gate times in SU(N) under positive-homogeneous "
                    "resource constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, gate=False, constraint=False):
        p.add_argument("--output", choices=("table", "json", "csv"), default="table")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed (QSL_SEED environment variable wins)")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="override a tolerance: unitary, invariance, geodesic")
        if gate:
            p.add_argument("--gate", required=True,
                           help="identity:N | orthogonalizer:theta:N | qft:N | file:path")
        if constraint:
            p.add_argument("--constraint", required=True,
                           help="constraint JSON file, or inline JSON starting with '{'")

    p = sub.add_parser("time", help="branch-minimized gate time")
    add_common(p, gate=True, constraint=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=0)

    p = sub.add_parser("branches", help="list traceless logarithm branches")
    add_common(p, gate=True)
    p.add_argument("--n-max", type=int, default=1)

    p = sub.add_parser("conjmin", help="minimize the time over conjugations")
    add_common(p, gate=True, constraint=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--restarts", type=int, default=16)

    p = sub.add_parser("action", help="integrate the constraint along a trajectory")
    add_common(p, constraint=True)
    p.add_argument("--trajectory", required=True, help="trajectory JSON file")

    p = sub.add_parser("invariance", help="test conjugation invariance of a constraint")
    add_common(p, constraint=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("geodesic", help="per-gate constant-drive optimality check")
    add_common(p, gate=True, constraint=True)
    p.add_argument("--step", type=float, default=geometry.FD_STEP)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--branch-sweep", type=int, default=0)

    p = sub.add_parser("classify", help="summary-table cell for a constraint")
    add_common(p, constraint=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("reproduce", help="closed-form bound reproduction suite")
    add_common(p)

    return parser.parse_args(argv)


def _build_config(args) -> RunConfig:
    cfg = RunConfig(command=args.command, output=args.output)
    for item in args.tol:
        if "=" not in item:
            raise ConfigError(f"field 'tol': expected NAME=VALUE, got {item!r}")
        name, _, raw = item.partition("=")
        try:
            cfg.tolerances[name] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"field 'tol.{name}': {exc}") from exc

    cfg.seed = args.seed
    env_seed = os.environ.get("QSL_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"QSL_SEED: {exc}") from exc

    # resolve every referenced file before any computation starts
    unitary_atol = cfg.tolerances.get("unitary", 1e-10)
    if getattr(args, "constraint", None) is not None:
        cfg.constraint_arg = args.constraint
        cfg.constraint = jsonio.parse_constraint_arg(args.constraint)
    if getattr(args, "gate", None) is not None:
        cfg.gate_spec = args.gate
        cfg.gate = gates.parse_gate_spec(args.gate, loader=jsonio.load_matrix,
                                         atol=unitary_atol)
    if getattr(args, "trajectory", None) is not None:
        cfg.trajectory_path = args.trajectory
        cfg.trajectory = _load_trajectory(args.trajectory)

    if hasattr(args, "kappa"):
        if not 0 < args.kappa < math.inf:
            raise ConfigError(f"field 'kappa': must be finite and > 0, got {args.kappa}")
        cfg.kappa = args.kappa
    if hasattr(args, "n_max"):
        if args.n_max < 0:
            raise ConfigError(f"field 'n_max': must be >= 0, got {args.n_max}")
        cfg.n_max = args.n_max
    if hasattr(args, "restarts"):
        if args.restarts < 1:
            raise ConfigError(f"field 'restarts': must be >= 1, got {args.restarts}")
        cfg.restarts = args.restarts
    if hasattr(args, "samples"):
        if args.samples < 1:
            raise ConfigError(f"field 'samples': must be >= 1, got {args.samples}")
        cfg.samples = args.samples
    if hasattr(args, "dim"):
        cfg.dim = args.dim
    if hasattr(args, "step"):
        cfg.step = args.step
    if hasattr(args, "threshold"):
        cfg.threshold = args.threshold
    if hasattr(args, "branch_sweep"):
        cfg.branch_sweep = args.branch_sweep
    return cfg


def _load_trajectory(path: str) -> Trajectory:
    data = jsonio.load_json(path)
    try:
        duration = float(data["duration"])
        samples = [(float(s["t"]), jsonio.matrix_from_json(s["matrix"]))
                   for s in data["samples"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad trajectory object: {exc}") from exc
    return Trajectory.from_samples(samples, duration=duration)


def _infer_dim(cfg: RunConfig, default: int = 3) -> int:
    if cfg.dim is not None:
        if cfg.dim < 2:
            raise ConfigError(f"field 'dim': must be >= 2, got {cfg.dim}")
        return cfg.dim
    hinted = getattr(cfg.constraint, "dim", None)
    return hinted if hinted is not None else default


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_time(cfg: RunConfig):
    res = gate_time(cfg.constraint, cfg.kappa, cfg.gate, n_max=cfg.n_max,
                    atol=cfg.tolerances.get("unitary", 1e-10))
    report = {
        "command": "time",
        "gate": cfg.gate_spec,
        "kappa": cfg.kappa,
        "n_max": cfg.n_max,
        "time": res.time,
        "f_value": res.f_value,
        "branch_shifts": [int(s) for s in res.branch.shifts],
        "branches_considered": res.diagnostics.branches_considered,
    }
    table = [
        f"T = {_fmt(res.time)}",
        f"f(log O) = {_fmt(res.f_value)}",
        f"kappa = {_fmt(res.kappa)}",
        "branch shifts = " + " ".join(str(int(s)) for s in res.branch.shifts),
        f"branches considered = {res.diagnostics.branches_considered}",
    ]
    rows = [{k: report[k] for k in ("time", "f_value", "kappa", "n_max",
                                    "branch_shifts", "branches_considered")}]
    rows[0]["kappa"] = cfg.kappa
    return report, table, rows, 0


def _cmd_branches(cfg: RunConfig):
    from .linalg import log_branches
    branches = log_branches(cfg.gate, cfg.n_max,
                            atol=cfg.tolerances.get("unitary", 1e-10))
    rows = []
    for i, b in enumerate(branches):
        rows.append({
            "branch": i,
            "shifts": [int(s) for s in b.shifts],
            "frobenius": b.frobenius(),
            "shifted_angles": [float(x) for x in b.shifted_angles],
        })
    report = {"command": "branches", "gate": cfg.gate_spec, "n_max": cfg.n_max,
              "count": len(branches), "branches": rows}
    table = [f"{len(branches)} traceless logarithm branches (|n_k| <= {cfg.n_max})",
             f"{'branch':>6}  {'frobenius':>12}  shifts / shifted angles"]
    for row in rows:
        table.append(f"{row['branch']:>6}  {_fmt(row['frobenius']):>12}  "
                     + " ".join(str(s) for s in row["shifts"])
                     + "  |  " + " ".join(_fmt(a) for a in row["shifted_angles"]))
    return report, table, rows, 0


def _cmd_conjmin(cfg: RunConfig):
    res = conj_min_time(cfg.constraint, cfg.kappa, cfg.gate,
                        restarts=cfg.restarts, seed=cfg.seed,
                        atol=cfg.tolerances.get("unitary", 1e-10))
    report = {
        "command": "conjmin",
        "gate": cfg.gate_spec,
        "kappa": cfg.kappa,
        "seed": cfg.seed,
        "restarts": cfg.restarts,
        "time": res.time,
        "f_value": res.f_value,
        "converged": res.diagnostics.converged,
        "iterations": res.diagnostics.optimizer_iterations,
        "conjugator": jsonio.matrix_to_json(res.conjugator),
    }
    table = [
        f"T = {_fmt(res.time)}",
        f"f min = {_fmt(res.f_value)}",
        f"kappa = {_fmt(res.kappa)}",
        f"converged = {'yes' if res.diagnostics.converged else 'no'}",
        f"iterations = {res.diagnostics.optimizer_iterations}",
        f"restarts = {cfg.restarts}",
    ]
    rows = [{k: report[k] for k in ("time", "f_value", "kappa", "restarts",
                                    "seed", "converged", "iterations")}]
    return report, table, rows, 0


def _cmd_action(cfg: RunConfig):
    value = action(cfg.constraint, cfg.trajectory)
    report = {
        "command": "action",
        "trajectory": cfg.trajectory_path,
        "samples": int(len(cfg.trajectory.times)),
        "duration": float(cfg.trajectory.duration),
        "action": value,
    }
    table = [
        f"S = {_fmt(value)}",
        f"duration = {_fmt(cfg.trajectory.duration)}",
        f"samples = {len(cfg.trajectory.times)}",
    ]
    rows = [{k: report[k] for k in ("action", "duration", "samples")}]
    return report, table, rows, 0


def _invariance_report(cfg: RunConfig):
    n = _infer_dim(cfg)
    return n, geometry.check_ad_invariance(
        cfg.constraint, n, samples=cfg.samples, seed=cfg.seed,
        threshold=cfg.tolerances.get("invariance", geometry.INVARIANCE_THRESHOLD))


def _cmd_invariance(cfg: RunConfig):
    n, rep = _invariance_report(cfg)
    report = {
        "command": "invariance",
        "dim": n,
        "ad_invariant": rep.ad_invariant,
        "max_deviation": rep.max_deviation,
        "samples": rep.samples,
        "is_norm": rep.is_norm,
        "table_cell": rep.table_cell,
        "seed": rep.seed,
        "threshold": rep.threshold,
    }
    table = [
        f"Ad-invariant = {'yes' if rep.ad_invariant else 'no'}",
        f"max deviation = {rep.max_deviation:.3e}",
        f"samples = {rep.samples}",
        f"norm axioms (sampled) = {'yes' if rep.is_norm else 'no'}",
        f"cell = {rep.table_cell}",
    ]
    rows = [{k: report[k] for k in ("dim", "ad_invariant", "max_deviation",
                                    "samples", "is_norm", "seed", "threshold")}]
    return report, table, rows, 0


def _cmd_geodesic(cfg: RunConfig):
    rep = geometry.gate_geodesic_check(
        cfg.constraint, cfg.gate, step=cfg.step,
        threshold=cfg.threshold if cfg.threshold is not None
        else cfg.tolerances.get("geodesic", geometry.GEODESIC_THRESHOLD),
        branch_sweep=cfg.branch_sweep)
    report = {
        "command": "geodesic",
        "gate": cfg.gate_spec,
        "passes": rep.passes,
        "normalized_max": rep.normalized_max,
        "threshold": rep.threshold,
        "step": rep.step,
        "branch_shifts": list(rep.branch_shifts) if rep.branch_shifts else None,
        "residuals": [float(r) for r in rep.residuals],
    }
    table = [
        f"passes = {'yes' if rep.passes else 'no'}",
        f"normalized max residual = {rep.normalized_max:.3e}",
        f"threshold = {rep.threshold:g}",
        f"step = {rep.step:g}",
    ]
    if rep.branch_shifts is not None:
        table.append("branch shifts = " + " ".join(str(s) for s in rep.branch_shifts))
    rows = [{k: report[k] for k in ("passes", "normalized_max", "threshold", "step")}]
    return report, table, rows, 0


def _cmd_classify(cfg: RunConfig):
    n, rep = _invariance_report(cfg)
    line = geometry.classification_line(rep)
    report = {
        "command": "classify",
        "dim": n,
        "ad_invariant": rep.ad_invariant,
        "is_norm": rep.is_norm,
        "classification": line,
        "table_cell": rep.table_cell,
        "max_deviation": rep.max_deviation,
        "samples": rep.samples,
        "seed": rep.seed,
        "threshold": rep.threshold,
    }
    rows = [{k: report[k] for k in ("dim", "ad_invariant", "is_norm",
                                    "classification")}]
    return report, [line], rows, 0


_REPRODUCE_CASES = [("ml", p, n) for p in (1.0, 2.0, 3.0) for n in (2, 3, 4)] + \
                   [("mt", None, n) for n in (2, 3, 4)] + \
                   [("opnorm", None, n) for n in (2, 3, 4)]


def _cmd_reproduce(cfg: RunConfig):
    tol = 1e-9
    rows = []
    all_pass = True
    for family, p, n in _REPRODUCE_CASES:
        anchor = basis_state(n, 0)
        if family == "ml":
            func = GroundShiftedMoment(p=p, psi=anchor)
        elif family == "mt":
            func = EnergyUncertainty(psi=anchor)
        else:
            func = SpectralRange()
        gate = gates.orthogonalizer(np.pi, n)
        computed = gate_time(func, 1.0, gate).time
        expected = analytic_bounds(family, 1.0, p=p)
        err = abs(computed - expected)
        ok = err < tol
        all_pass = all_pass and ok
        rows.append({
            "bound": family,
            "p": p if p is not None else "",
            "n": n,
            "computed": computed,
            "analytic": expected,
            "abs_error": err,
            "status": "PASS" if ok else "FAIL",
        })
    report = {"command": "reproduce", "seed": cfg.seed, "tolerance": tol,
              "all_pass": all_pass,
              "rows": [dict(r, p=(r["p"] if r["p"] != "" else None)) for r in rows]}
    table = [f"closed-form bound reproduction (kappa = 1, tolerance {tol:g}, seed {cfg.seed})",
             f"{'bound':<7}{'p':<5}{'N':<3}{'computed':>14}{'analytic':>14}{'abs error':>12}  status"]
    for r in rows:
        pcell = _fmt(r["p"]) if r["p"] != "" else "-"
        table.append(f"{r['bound']:<7}{pcell:<5}{r['n']:<3}"
                     f"{_fmt(r['computed']):>14}{_fmt(r['analytic']):>14}"
                     f"{r['abs_error']:>12.3e}  {r['status']}")
    table.append("all rows PASS" if all_pass else "FAILURES present")
    return report, table, rows, 0 if all_pass else 1


_COMMANDS = {
    "time": _cmd_time,
    "branches": _cmd_branches,
    "conjmin": _cmd_conjmin,
    "action": _cmd_action,
    "invariance": _cmd_invariance,
    "geodesic": _cmd_geodesic,
    "classify": _cmd_classify,
    "reproduce": _cmd_reproduce,
}


def run(cfg: RunConfig, out=None) -> int:
    """Execute a resolved configuration, writing the report to ``out``."""
    out = out if out is not None else sys.stdout
    report, table, rows, code = _COMMANDS[cfg.command](cfg)
    if cfg.output == "json":
        out.write(jsonio.dumps_canonical(report))
    elif cfg.output == "csv":
        out.write(jsonio.rows_to_csv(rows))
    else:
        out.write("\n".join(table) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        cfg = _build_config(args)
        return run(cfg)
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
