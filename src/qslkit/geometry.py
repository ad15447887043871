"""Geometric classification of constraints and gates.

Two questions are answered numerically.  First, is a constraint invariant
under conjugation?  If so, constant Hamiltonians are time optimal for every
gate and the branch-minimized gate time is the true optimum.  Second, for a
non-invariant constraint, does a specific gate still admit a time-optimal
constant drive?  That holds exactly when the log of the gate is a geodesic
vector of the induced right-invariant Finsler structure, i.e. when the
fundamental tensor g of F satisfies g_X(X, [X, Z]) = 0 for every basis
direction Z.  By Euler's theorem on the degree-2 function F**2, that residual
is half the slope of F**2 along the orbit tangent [X, Z]: exactly -F(X) times
the slope of F along the adjoint orbit, the frame gradient, where
``orbit_slope`` gives it (every invariant tree, Randers, and sums and means
of such), and otherwise a central first difference.  The tensor is a central
second difference of F**2, so it, and the differenced residuals, are only
meaningful at generic probes away from spectral kinks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import constraints as con
from .errors import (
    DimensionMismatchError,
    IdentityGateError,
    InvalidParameterError,
    QslError,
    StepUnderflowError,
)
from .linalg import (
    UNITARY_ATOL,
    _as_rng,
    _eigen_clusters,
    _haar_from_normals,
    _require_algebra,
    _require_count,
    as_square_matrix,
    from_coords,
    is_identity,
    random_algebra_element,
    require_algebra_element,
    su_basis,
)

INVARIANCE_THRESHOLD = 1e-8
GEODESIC_THRESHOLD = 1e-6
FD_STEP = 1e-4
MIN_FD_STEP = 1e-12  # smallest absolute step h a stencil may take
NORM_SLACK = 1e-9
GENERIC_MARGIN = 1e-3
PROBE_TRIES = 500

CELL_ALL_GATES = "Constant Hamiltonian optimal for all gates"
CELL_GEODESIC_GATES = "Constant Hamiltonian optimal only for gates passing the geodesic check"


# ---------------------------------------------------------------------------
# Conjugation invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    ad_invariant: bool
    max_deviation: float
    samples: int
    is_norm: bool
    table_cell: str
    seed: int
    threshold: float


def _table_cell(ad_invariant: bool, is_norm: bool) -> str:
    row = "norm" if is_norm else "PH function"
    col = "Ad-invariant" if ad_invariant else "not Ad-invariant"
    cell = CELL_ALL_GATES if ad_invariant else CELL_GEODESIC_GATES
    return f"{row}, {col}: {cell}"


def classification_line(report: InvarianceReport) -> str:
    yn = "yes" if report.ad_invariant else "no"
    cell = CELL_ALL_GATES if report.ad_invariant else CELL_GEODESIC_GATES
    return f"Ad-invariant: {yn} — {cell}"


def check_ad_invariance(func, n: int, samples: int = 200, seed: int = 0,
                        threshold: float = INVARIANCE_THRESHOLD) -> InvarianceReport:
    """Sample |F(V A V†) - F(A)| / F(A) over random pairs (A, V).

    Also samples the two norm axioms that are not implied by positive
    homogeneity (triangle inequality and F(-A) = F(A)) on a third element B
    to fill ``is_norm``; definiteness is not tested.  Each sample draws A, V
    and, while the axioms hold, B, so the report is deterministic for a fixed
    seed.  F is evaluated on stacks of samples; the first stack holds one
    sample, where an F that is not a norm almost always fails F(-A) = F(A).
    """
    _require_count(n, "n", 2)
    _require_count(samples, "samples", 1)
    con._require_finite_positive(threshold, "threshold")  # else every verdict is one way
    con.require_dim(func, n)
    rng = _as_rng(seed)
    k = n * n - 1
    per_stack = max(1, con.STACK_ENTRIES // (n * n))
    worst = 0.0
    is_norm = True
    done = 0
    while done < samples:
        size = min(per_stack if done else 1, samples - done)
        # per sample, in the order random_algebra_element, haar_su and
        # random_algebra_element draw them: A's coordinates, V's normal pair
        # and, while is_norm holds, B's coordinates
        state = rng.bit_generator.state
        z = rng.standard_normal((size, 2 * k + 2 * n * n if is_norm else k + 2 * n * n))
        a = from_coords(z[:, :k], n)
        v = _haar_from_normals(z[:, k:k + 2 * n * n].reshape(size, 2, n, n))
        fa = func.values(a)
        fconj = func.values(v @ a @ v.conj().transpose(0, 2, 1))
        if is_norm:
            b = from_coords(z[:, k + 2 * n * n:], n)
            fb = func.values(b)
            fneg = func.values(-a)
            fsum = func.values(a + b)
            scale = 1.0 + fa + fb
            fails = (np.abs(fneg - fa) > NORM_SLACK * scale) | (fsum > fa + fb + NORM_SLACK * scale)
            if fails.any():
                # the samples after the first failure must not draw B: keep the
                # stack up to it and draw the rest again from there
                size = int(np.argmax(fails)) + 1
                fa, fconj = fa[:size], fconj[:size]
                rng.bit_generator.state = state
                rng.standard_normal((size, z.shape[1]))
                is_norm = False
        worst = max(worst, float(np.fmax.reduce(np.abs(fconj - fa) / (fa + 1e-300))))
        done += size
    ad = worst < threshold
    return InvarianceReport(
        ad_invariant=ad, max_deviation=worst, samples=samples, is_norm=is_norm,
        table_cell=_table_cell(ad, is_norm),
        seed=int(seed) if isinstance(seed, (int, np.integer)) else -1, threshold=threshold)


# ---------------------------------------------------------------------------
# Fundamental tensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorProbe:
    """Base point and relative finite-difference step for tensor evaluation."""

    base: np.ndarray
    step: float = FD_STEP

    def __post_init__(self):
        object.__setattr__(self, "base", require_algebra_element(self.base))
        _require_step(self.step)


def _require_step(step: float) -> None:
    if not (step > 0.0):
        raise InvalidParameterError(f"step must be positive, got {step}")


def _require_stencil(h: float, stencil: np.ndarray) -> None:
    """Refuse an absolute step h (a positive relative step times |base|_F)
    that underflows, or a stencil at h that overflows."""
    if h < MIN_FD_STEP:
        raise StepUnderflowError(f"finite-difference step underflow: h = {h:.3e}")
    if not np.isfinite(stencil).all():
        raise InvalidParameterError(f"finite-difference step overflow: h = {h:.3e}")


def _squares(func, stencil: np.ndarray) -> np.ndarray:
    """F**2 at each point of a stencil, in one ``values`` call."""
    return con._scalar_powers(func.values(stencil), 2)


def fundamental_tensor_estimate(func, probe: TensorProbe, u, v) -> tuple[float, float]:
    """Finite-difference fundamental tensor with an error estimate.

    g_X(u, v) = (1/2) d^2/ds dt F^2(X + s*u + t*v) at s = t = 0, computed by
    the symmetric four-point stencil at step h and h/2 (h relative to the
    Frobenius norm of the base point).  The half-step value is returned; the
    estimate |g_h - g_{h/2}|/3 is widened to the full disagreement when the
    two stencils differ by more than ten times GEODESIC_THRESHOLD.
    """
    base = probe.base
    u = require_algebra_element(u)
    v = require_algebra_element(v)
    if u.shape != base.shape or v.shape != base.shape:
        raise DimensionMismatchError(
            f"direction shapes {u.shape}/{v.shape} do not match base {base.shape}")
    con.require_dim(func, base.shape[0])
    f0 = func.value(base)
    if not f0 > 0.0:
        raise InvalidParameterError(
            "fundamental tensor is undefined where F vanishes (origin of a "
            f"positive-homogeneous function): F(base) = {f0:.3e}")
    # base +- step*u +- step*v at steps h and h/2
    h = probe.step * float(np.linalg.norm(base))
    with np.errstate(over="ignore", invalid="ignore"):
        stencil = np.stack([corner for step in (h, h / 2.0)
                            for side in (base + step * u, base - step * u)
                            for corner in (side + step * v, side - step * v)])
    _require_stencil(h, stencil)
    fsq = _squares(func, stencil)
    steps = np.array([h, h / 2.0])
    upp, upm, ump, umm = fsq.reshape(2, 4).T
    g_full, g_half = 0.5 * ((upp - upm - ump + umm) / (4.0 * steps * steps))
    disagreement = abs(g_full - g_half)
    return float(g_half), float(disagreement if disagreement > 10.0 * GEODESIC_THRESHOLD
                                else disagreement / 3.0)


def fundamental_tensor(func, probe: TensorProbe, u, v) -> float:
    """Fundamental tensor g_X(u, v) of the constraint at the probe point."""
    value, _ = fundamental_tensor_estimate(func, probe, u, v)
    return value


# ---------------------------------------------------------------------------
# Geodesic checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicReport:
    """Residuals g_X(X, [X, T_i]) over the su basis, and their largest modulus
    over F(X)**2.  The residuals are exact (+0.0 for an invariant F) where F
    has a frame gradient; otherwise central differences at ``step``."""

    residuals: np.ndarray
    normalized_max: float
    passes: bool
    threshold: float
    step: float
    branch_shifts: Optional[tuple] = None


def geodesic_vector_check(func, x, step: float = FD_STEP,
                          threshold: float = GEODESIC_THRESHOLD) -> GeodesicReport:
    """Test whether X generates a critical one-parameter flow of the
    constraint's action, i.e. whether a constant Hamiltonian along X is a
    candidate time-optimal drive.

    F**2 is homogeneous of degree 2, so by Euler's theorem g_X(X, D) is half
    the slope of F**2 at X along D.  For D_i = [X, T_i] that slope is -2 F(X)
    times the slope of F along the orbit t -> e^{t T_i} X e^{-t T_i}, so
    where F's ``orbit_slope`` gives that frame gradient the residual is
    exactly -F(X) times it, and 0 for an invariant F.
    Otherwise (max and min of a varying child, ``ml``, ``mt``, custom F) it is
    the central difference (F**2(X + h D_i) - F**2(X - h D_i)) / (4h), with h
    ``step`` times |X|_F; ``step`` must be positive either way."""
    x = as_square_matrix(x)
    return _geodesic_reports(func, x[None], np.array([np.linalg.norm(x)]), step, threshold)[0]


def _geodesic_reports(func, xs: np.ndarray, norms: np.ndarray, step: float,
                      threshold: float) -> list[GeodesicReport]:
    """``geodesic_vector_check`` at each X of the (m, n, n) stack ``xs``, whose
    Frobenius norms are ``norms``: the reports, and the first error, of a loop
    over xs.  One ``orbit_slope`` pass gives F(X) at every X and, where F
    has a frame gradient, every residual; a stack that fails a check runs the
    loop, which raises the first error.  At each X the loop checks X, then
    F(X) > 0, then the step, as the stacked pass does."""
    con._require_finite_positive(threshold, "threshold")
    try:
        return _stack_reports(func, xs, norms, step, threshold)
    except Exception:  # the loop below raises the first error, in X order
        pass
    reports = []
    for x, norm in zip(xs, norms):
        x = require_algebra_element(x)
        con.require_dim(func, len(x))
        fx = func.value(x)
        if not fx > 0.0:
            raise InvalidParameterError(f"geodesic check needs F(X) > 0, got {fx:.3e}")
        reports += _stack_reports(func, x[None], norm[None], step, threshold)
    return reports


def _stack_reports(func, xs, norms, step, threshold) -> list[GeodesicReport]:
    """The reports at each X of a stack, or an error of the loop's checks,
    not necessarily its first."""
    _require_algebra(xs)
    con.require_dim(func, xs.shape[1])
    f, grad = func.orbit_slope(xs)
    if not (f > 0.0).all():
        raise InvalidParameterError("geodesic check needs F(X) > 0")
    _require_step(step)
    if grad is None:
        residuals = _stencil_residuals(func, xs, norms, step)
    else:
        residuals = 0.0 - f[:, None] * grad  # 0.0 - makes an invariant F's residuals +0.0
    peaks = np.max(np.abs(residuals), axis=1) / con._scalar_powers(f, 2)
    return [GeodesicReport(residuals=r.copy(), normalized_max=v, passes=v < threshold,
                           threshold=threshold, step=step)  # a row of its own, not of the stack
            for r, v in zip(residuals, peaks.tolist())]


def _stencil_residuals(func, xs, norms, step) -> np.ndarray:
    """The central differences of F**2 along each X's tangents [X, T_i] at
    h = step * |X|_F, in rows.  Whole stencils, 2(n**2 - 1) points each, share
    one ``values`` call per chunk of at most STACK_ENTRIES entries, or of one
    X; one broadcast matmul forms the chunk's tangents."""
    n = xs.shape[1]
    basis = su_basis(n)
    with np.errstate(over="ignore", invalid="ignore"):
        hs = step * norms
    per_call = max(1, con.STACK_ENTRIES // (2 * (n * n - 1) * n * n))
    rows = []
    for start in range(0, len(xs), per_call):
        x, h = xs[start:start + per_call, None], hs[start:start + per_call]
        with np.errstate(over="ignore", invalid="ignore"):
            hd = h[:, None, None, None] * (x @ basis - basis @ x)
            points = np.concatenate([x + hd, x - hd], axis=1)
        _require_stencil(float(h.min()), points)
        fsq = _squares(func, points.reshape(-1, n, n)).reshape(len(h), -1)
        rows.append(np.subtract(*np.split(fsq, 2, axis=1)) / (4.0 * h[:, None]))
    return np.concatenate(rows)


def gate_geodesic_check(func, gate, step: float = FD_STEP,
                        threshold: float = GEODESIC_THRESHOLD,
                        branch_sweep: int = 0, atol: float = UNITARY_ATOL) -> GeodesicReport:
    """Geodesic check at the logarithm of a gate.

    A passing report means the gate admits a time-optimal constant drive
    under this constraint, so no pulse-shaping search is needed for it.  It
    probes the branches with winding |n_k| <= ``branch_sweep`` plus the
    principal branch, the set ``gatetime.gate_time`` searches (by default the
    principal branch alone), and reports the first best.  ``atol`` bounds the
    gate's unitarity and determinant defects, as in ``gate_time``.
    """
    clusters = _eigen_clusters(gate, atol=atol)
    if is_identity(gate):
        raise IdentityGateError("geodesic check is undefined for the identity gate")
    _require_count(branch_sweep, "branch_sweep", 0)
    rows, values, norms = clusters.branches(clusters.search_shifts(branch_sweep)[0])
    reports = _geodesic_reports(func, values, norms, step, threshold)
    best = min(range(len(reports)), key=lambda i: reports[i].normalized_max)
    return replace(reports[best], branch_shifts=tuple(rows[best].tolist()))


# ---------------------------------------------------------------------------
# Generic probes
# ---------------------------------------------------------------------------

def kink_margin(func, a) -> float:
    """Distance-to-nonsmoothness heuristic for a constraint at a point.

    Finite differences of F**2 assert nothing at spectral kinks (eigenvalue
    collisions, zero crossings under odd or fractional powers, ties between
    max/min arms), so probes are only considered generic when this margin is
    comfortably positive.  Each constraint class knows its own kinks; this
    validates ``a`` as ``evaluate`` does and computes their shared spectrum once.
    """
    a = require_algebra_element(a)
    con.require_dim(func, a.shape[0])
    return func.kink_margin(a, np.linalg.eigvalsh(1j * a))


def sample_generic_probe(func, n: int, rng) -> np.ndarray:
    """Random algebra element of Frobenius norm 2 at which the constraint is
    smooth enough for finite differencing (kink margin above GENERIC_MARGIN)."""
    _require_count(n, "n", 2)
    rng = _as_rng(rng)
    for _ in range(PROBE_TRIES):
        a = random_algebra_element(n, rng)
        a *= 2.0 / float(np.linalg.norm(a))
        if kink_margin(func, a) > GENERIC_MARGIN:
            return a
    raise QslError(f"no generic probe found within {PROBE_TRIES} draws")
