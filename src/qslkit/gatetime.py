"""Minimum gate implementation times under a constraint F(-1j*H) = kappa.

For a constant Hamiltonian reaching the gate O at time T, taking logarithms
of exp(-1j*H*T) = O and applying F gives T = F(log O) / kappa.  The physical
minimum over constant drives is the minimum of that expression over all
traceless logarithm branches; for constraints that are monotone in the
eigenangle moduli (every unitarily invariant norm) the principal branch is
already optimal.

Every branch shares the gate's eigenbasis Q and differs only in its shifted
angles phi_b, so the branch search never builds a matrix to score a branch:
one batched ``spectral_values`` call evaluates F on all rows phi_b at once.
Only the rows within NEAR_TIE of that minimum are assembled and sorted, in one
stacked pass, and re-evaluated with one ``values`` call, which gives the same
winner, bit for bit, as evaluating every assembled branch.
A far branch whose F overflows may score inf or NaN; ``gate_time`` owns what
that means: inf loses, and NaN is confirmed with ``values`` like a near-tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isinf, pi
from typing import Optional

import numpy as np

from .constraints import _require_finite_positive, require_dim
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvariantViolationError,
    OptimizerDidNotConvergeError,
    QslError,
    TooFewSamplesError,
)
from .linalg import (
    ALGEBRA_ATOL,
    TWO_PI,
    UNITARY_ATOL,
    LogBranch,
    basis_coords,
    from_coords,
    haar_su,
    principal_log,
    _as_rng,
    _expm,
    _eigen_clusters,
    _require_count,
)

# Search defaults, for the F whose conjugation minimum has no closed form.
# Trees whose ``orbit_slope`` gives a frame gradient (Randers and invariant
# leaves joined by sums and means) run the lockstep BFGS on it, with the
# Armijo constant ARMIJO_C1, stopped at gradient inf-norm GRADIENT_TOL; the
# others (max/min, states that differ, custom F) may kink, so they run
# Nelder-Mead to simplex diameter SIMPLEX_TOL.  Either search stops at
# SEARCH_MAXITER iterations.
GRADIENT_TOL = 1e-6
ARMIJO_C1 = 1e-4
SIMPLEX_TOL = 1e-9
SEARCH_MAXITER = 20_000
DEFAULT_RESTARTS = 16

# Branches whose batched spectral value is within NEAR_TIE * (1 + |min|) of the
# minimum are confirmed with ``values``; the two forms agree to about 1e-14.
NEAR_TIE = 1e-9

@dataclass(frozen=True)
class Diagnostics:
    branches_considered: int
    optimizer_iterations: Optional[int]
    converged: bool


@dataclass(frozen=True)
class SpeedLimitResult:
    """Outcome of a minimum-time computation.

    ``time`` is ``f_value / kappa`` by construction, in units where hbar = 1
    and F carries energy units.  ``conjugator`` is set only by searches that
    optimize over conjugations.  For definite constraints (norms), time is
    zero exactly when the gate is the identity; semidefinite constraints such
    as the state-anchored moments can reach zero on nontrivial gates.
    """

    time: float
    branch: LogBranch
    conjugator: Optional[np.ndarray]
    f_value: float
    kappa: float
    diagnostics: Diagnostics


def _require_kappa(kappa: float) -> float:
    kappa = float(kappa)
    _require_finite_positive(kappa, "kappa")
    return kappa


def gate_time(func, kappa: float, gate, n_max: int = 0,
              atol: float = UNITARY_ATOL) -> SpeedLimitResult:
    """Minimum time to reach ``gate`` with a constant Hamiltonian on the
    constraint level set F = kappa, minimized over the logarithm branches with
    winding |n_k| <= n_max (the ``log_branches`` window) plus the principal
    branch.  A gate with neither (-I in SU(2), qft:6 at n_max = 0) raises
    DegenerateBranchTieError.

    The search is spectral: one eigendecomposition of the gate gives every
    branch's shifted angles, and one ``spectral_values`` call scores them all.
    The near-ties of that score (within NEAR_TIE) are assembled and sorted as
    ``log_branches`` sorts them in one stacked pass, evaluated with ``values``,
    and the first minimum wins, as in a full sweep over the same branches.
    A score that overflows loses; one that is NaN, or underflows to 0, is
    confirmed, and ``values`` refuses an F that a float cannot hold.

    For ``unitarily_invariant`` constraints (Schatten, the spectral range and
    their combinators) the principal branch is provably optimal; that is
    asserted whenever the principal branch exists.
    """
    kappa = _require_kappa(kappa)
    clusters = _eigen_clusters(gate, atol=atol)
    require_dim(func, len(clusters.angles))
    shifts, principal = clusters.search_shifts(n_max)
    # an overflowing score loses; a NaN one compares False below and is confirmed
    with np.errstate(over="ignore", invalid="ignore"):
        scores = func.spectral_values(clusters.angles + TWO_PI * shifts,
                                      clusters.eigenvectors)
    low = np.min(scores)
    rows, values, _ = clusters.branches(shifts[~(scores > low + NEAR_TIE * (1.0 + abs(low)))])
    confirmed = func.values(values)
    best = int(np.argmin(confirmed))
    f_value = float(confirmed[best])
    if (principal is not None and func.unitarily_invariant
            and not np.isclose(f_value, scores[principal], rtol=1e-12, atol=1e-12)):
        raise QslError(
            "internal consistency failure: principal branch is not "
            "minimal for a unitarily invariant constraint")
    return SpeedLimitResult(
        time=f_value / kappa, conjugator=None, f_value=f_value, kappa=kappa,
        branch=LogBranch(clusters.angles.copy(), rows[best].copy(), values[best].copy()),
        diagnostics=Diagnostics(branches_considered=len(shifts),
                                optimizer_iterations=None, converged=True))


def conj_min_time(func, kappa: float, gate, restarts: int = DEFAULT_RESTARTS,
                  seed: int = 0, atol: float = UNITARY_ATOL) -> SpeedLimitResult:
    """Minimize F(V X V†)/kappa over conjugators V in SU(n), X = log(gate).

    Conjugation commutes with the principal logarithm, so the search runs on
    the fixed principal branch.  When F's ``orbit_minimizer`` gives a V, the
    minimum is F(V X V†) and no optimizer runs: V = I for an invariant F, V
    maps the ground eigenvector of 1j*X onto psi for ml and mt, and a Randers
    leaf on SU(2) with no oneform, or with a scalar metric on any SU(n), has
    its own closed form; a tree takes the V its varying leaves share.
    Otherwise V is minimized from several starts, the identity and Haar draws
    from ``seed``.  When F's ``orbit_slope`` gives a frame gradient at X, every
    restart runs BFGS in a frame that moves with its V, all in lockstep on one
    stack (``_lockstep_bfgs``).  Otherwise V is charted as exp(sum_i c_i T_i)
    over the su basis, each draw at its principal logarithm's coordinates, and
    scipy's Nelder-Mead runs from each chart point in turn.  The lowest value
    wins, ties broken by start order (for Nelder-Mead first by the final chart
    point).  Either way ``f_value`` is F(V X V†) at the returned V, which
    reproduces it bit for bit, and the identity start keeps a search's result
    at the plain branch value or below, up to that rounding.
    """
    kappa = _require_kappa(kappa)
    _require_count(restarts, "restarts", 1)
    branch = principal_log(gate, atol=atol)
    x = branch.value
    n = len(x)
    require_dim(func, n)
    rng = _as_rng(seed)
    conjugator = func.orbit_minimizer(x)
    nit, converged = 0, True
    if conjugator is None:
        draws = [haar_su(n, rng) for _ in range(restarts - 1)]
        if func.orbit_slope(x[None])[1] is not None:
            starts = np.array([np.eye(n, dtype=np.complex128)] + draws)
            ends, values, nits, flags = _lockstep_bfgs(func.orbit_slope, x, starts)
        else:
            starts = [np.zeros(n * n - 1)] + [basis_coords(principal_log(v).value) for v in draws]
            ends, values, nits, flags = _nelder_mead(func, x, starts)
        best = min(range(restarts), key=lambda i: (values[i], i))
        conjugator = ends[best].copy()  # its own array, not a view that keeps every restart's
        nit, converged = int(nits[best]), bool(any(flags))
    f_value = func.value(conjugator @ x @ conjugator.conj().T)
    result = SpeedLimitResult(
        time=f_value / kappa, branch=branch, conjugator=conjugator, f_value=f_value,
        kappa=kappa, diagnostics=Diagnostics(branches_considered=1,
                                             optimizer_iterations=nit, converged=converged))
    if not converged:
        raise OptimizerDidNotConvergeError(
            f"no restart converged within {SEARCH_MAXITER} iterations; "
            f"best value so far {f_value:.17g}", best=result)
    return result


def _lockstep_bfgs(objective, x: np.ndarray, starts: np.ndarray):
    """BFGS over the conjugations V X V† from every V of the (m, n, n) stack
    ``starts`` at once: (ends, values, iterations, converged), one entry per
    start, ends the (m, n, n) stack of final V.

    Each restart works in a frame that moves with it (right-trivialized steps:
    Absil, Mahony and Sepulchre, Optimization Algorithms on Matrix Manifolds,
    ch. 4 and 8).  It holds V and Y = V X V†; a step W, coordinates over the
    su basis, tries Y' = E Y E† for E = exp(W), and accepting it sets V to E V
    and Y to Y'.  ``objective``, F's ``orbit_slope``, maps an (m, n, n) stack
    of Y to their values and frame gradients, and each pass makes one call, at
    one trial step of every restart still running.  A restart backtracks along
    its quasi-Newton direction until the step decreases F sufficiently
    (Armijo, ARMIJO_C1), shrinking the step by quadratic interpolation, and
    updates its inverse Hessian unless the step's curvature s.y is not positive
    (Nocedal and Wright, Numerical Optimization, ch. 3 and 6).  Each
    iteration's first trial step is scipy's: min(1, 2.02 (f_k - f_{k-1}) /
    slope), which is min(1, 1.01/|g|) at the start.  A restart stops converged
    at gradient inf-norm GRADIENT_TOL, and unconverged at SEARCH_MAXITER
    iterations or when no step that moves its V decreases F enough.
    """
    n = len(x)
    v = starts.copy()
    y = v @ x @ v.conj().swapaxes(-1, -2)
    m, k = len(v), n * n - 1
    f, g = objective(y)
    h = np.tile(np.eye(k), (m, 1, 1))
    nits = np.zeros(m, dtype=int)
    converged = np.abs(g).max(axis=1) <= GRADIENT_TOL
    running = ~converged
    direction = -g
    slope = -np.sum(g * g, axis=1)
    step = 1.01 / np.maximum(np.linalg.norm(g, axis=1), 1.01)
    while running.any():
        r = np.flatnonzero(running)
        w = step[r, None] * direction[r]
        e = _expm(from_coords(w, n))  # traceless anti-Hermitian by construction
        trial = e @ y[r] @ e.conj().swapaxes(-1, -2)
        ft, gt = objective(trial)
        ok = ft <= f[r] + ARMIJO_C1 * step[r] * slope[r]
        # a rejected step shrinks to the least point of the parabola through
        # f, the slope and ft, kept within [0.1, 0.5] of itself; a restart
        # stops when its shrunk step no longer moves V to first order, W V
        b, a = r[~ok], r[ok]
        fit = -0.5 * slope[b] * step[b] / (ft[~ok] - f[b] - slope[b] * step[b])
        step[b] *= np.clip(fit, 0.1, 0.5)
        moved = v[b] + from_coords(step[b, None] * direction[b], n) @ v[b] != v[b]
        running[b] = moved.any(axis=(1, 2))
        s, yk, decrease = w[ok], gt[ok] - g[a], ft[ok] - f[a]
        v[a], y[a], f[a], g[a] = e[ok] @ v[a], trial[ok], ft[ok], gt[ok]
        nits[a] += 1
        # H' = (I - rho s y^T) H (I - rho y s^T) + rho s s^T, rho = 1/(s.y),
        # skipped unless s.y > 0, which keeps H positive definite
        sy = np.sum(s * yk, axis=1)
        curved = sy > 0.0
        rho = 1.0 / sy[curved, None, None]
        s, yk, c = s[curved], yk[curved], a[curved]
        left = np.eye(k) - rho * s[:, :, None] * yk[:, None, :]
        h[c] = left @ h[c] @ left.swapaxes(-1, -2) + rho * s[:, :, None] * s[:, None, :]
        converged[a] = np.abs(g[a]).max(axis=1) <= GRADIENT_TOL
        running[a] = ~converged[a] & (nits[a] < SEARCH_MAXITER)
        a, decrease = a[running[a]], decrease[running[a]]
        direction[a] = -(h[a] @ g[a, :, None])[:, :, 0]
        slope[a] = np.sum(g[a] * direction[a], axis=1)
        # scipy's first trial; a step that gained nothing gives no scale, so 1
        step[a] = np.where(decrease < 0.0, np.minimum(1.0, 2.02 * decrease / slope[a]), 1.0)
    return v, f.tolist(), nits, converged


def _nelder_mead(func, x: np.ndarray, starts: list[np.ndarray]):
    """Nelder-Mead from each chart point of ``starts`` in turn, for F that may
    kink on the orbit: (ends, values, iterations, converged), one entry per
    start, each end the conjugator exp(sum_i c_i T_i) at its final point.
    The entries are sorted by value, then by final chart point, then by start,
    so the first least value is the one the chart coordinates pick."""
    import scipy.optimize  # deferred: it is most of the package's import time
    n = len(x)

    def objective(coords: np.ndarray) -> float:
        v = _expm(from_coords(coords, n))  # traceless anti-Hermitian by construction
        return func.value(v @ x @ v.conj().T)

    results = sorted((scipy.optimize.minimize(
        objective, start, method="Nelder-Mead",
        options={"xatol": SIMPLEX_TOL, "fatol": SIMPLEX_TOL,
                 "maxiter": SEARCH_MAXITER, "maxfev": 2 * SEARCH_MAXITER})
        for start in starts), key=lambda res: (float(res.fun), tuple(res.x.tolist())))
    return ([_expm(from_coords(res.x, n)) for res in results],
            [float(res.fun) for res in results],
            [res.nit for res in results], [bool(res.success) for res in results])


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Sampled time-dependent Hamiltonian on [0, duration].

    ``times`` must be strictly increasing and span the full interval;
    ``hamiltonians`` is the matching stack of Hermitian matrices.
    """

    times: np.ndarray
    hamiltonians: np.ndarray
    duration: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        hams = np.asarray(self.hamiltonians, dtype=np.complex128)
        duration = float(self.duration)
        if times.ndim != 1 or hams.ndim != 3 or hams.shape[0] != len(times):
            raise InvalidParameterError("need matching 1-d times and a stack of matrices")
        if hams.shape[1] != hams.shape[2]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {hams.shape[1:]}")
        if len(times) < 2:
            raise TooFewSamplesError(f"need at least 2 samples, got {len(times)}")
        if not np.all(np.diff(times) > 0):
            raise InvariantViolationError("sample times must be strictly increasing")
        if not duration > 0:
            raise InvalidParameterError(f"duration must be positive, got {duration}")
        if not (abs(times[0]) <= 1e-12 and abs(times[-1] - duration) <= 1e-12):
            raise InvariantViolationError(
                f"samples must span [0, {duration}], got [{times[0]}, {times[-1]}]")
        herm = float(np.max(np.abs(hams - np.conj(np.transpose(hams, (0, 2, 1))))))
        if not herm <= 1e-10:
            raise InvariantViolationError(f"samples must be Hermitian: defect {herm:.3e}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "hamiltonians", hams)
        object.__setattr__(self, "duration", duration)

    @classmethod
    def from_samples(cls, samples, duration=None) -> "Trajectory":
        """Build from an ordered list of (t, H) pairs; duration defaults to
        the last sample time."""
        times = np.array([t for t, _ in samples], dtype=float)
        hams = np.stack([np.asarray(h, dtype=np.complex128) for _, h in samples])
        if duration is None:
            duration = float(times[-1])
        return cls(times=times, hamiltonians=hams, duration=duration)


def action(func, traj: Trajectory) -> float:
    """Integral of F(-1j*H_t) along the trajectory.

    Composite Simpson on uniformly spaced grids with an odd sample count,
    trapezoid otherwise.  On a constraint level set F = kappa the action is
    kappa times the duration, independent of parametrization.
    """
    ts = traj.times
    # Trajectory bounds the samples' anti-Hermiticity; the traces are checked
    # here, as evaluate checks them, sample 0's before the shared dimension
    stack = -1j * traj.hamiltonians
    traces = np.trace(stack, axis1=1, axis2=2)
    traceless = np.abs(traces) <= ALGEBRA_ATOL
    if traceless[0]:
        require_dim(func, stack.shape[1])
    if not traceless.all():
        tr = complex(traces[np.argmin(traceless)])
        raise InvariantViolationError(f"matrix is not traceless: tr = {tr:.3e}")
    vals = func.values(stack)
    dt = np.diff(ts)
    uniform = bool(np.max(np.abs(dt - dt.mean())) <= 1e-9 * dt.mean())
    if uniform and len(ts) % 2 == 1:
        h = float(dt.mean())
        weights = np.ones(len(ts))
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float(h / 3.0 * weights @ vals)
    return float(np.trapezoid(vals, ts))


# ---------------------------------------------------------------------------
# Closed-form reference times
# ---------------------------------------------------------------------------

def analytic_bounds(bound: str, kappa: float, p: Optional[float] = None) -> float:
    """Closed-form orthogonalization time for the named constraint family,
    with the resource quantity set to kappa.

    ``ml``      pi / (2**(1/p) * kappa)   (ground-shifted p-th moment)
    ``mt``      pi / (2 * kappa)          (energy uncertainty)
    ``opnorm``  pi / kappa                (spectral range)
    """
    kappa = _require_kappa(kappa)
    if bound == "ml":
        if p is None or not (p > 0.0) or isinf(p):
            raise InvalidParameterError(f"ml bound needs finite p > 0, got {p}")
        return pi / (2.0 ** (1.0 / p) * kappa)
    if bound == "mt":
        return pi / (2.0 * kappa)
    if bound == "opnorm":
        return pi / kappa
    raise InvalidParameterError(f"unknown bound family {bound!r}; expected ml, mt, or opnorm")
