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
Only the rows within NEAR_TIE of that minimum are assembled and re-evaluated
with ``values``, which gives the same winner, bit for bit, as evaluating every
assembled branch.
A far branch whose F overflows may score inf or NaN; ``gate_time`` owns what
that means: inf loses, and NaN is confirmed with ``values`` like a near-tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isinf, pi
from typing import Optional

import numpy as np

from .constraints import require_dim
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
    expm,
    from_coords,
    haar_su,
    principal_log,
    _as_rng,
    _eigen_clusters,
    _expm_eigh,
)

# Search defaults, for the F whose conjugation minimum has no closed form.
# Trees with an orbit covector (Randers and invariant leaves joined by sums
# and means) run BFGS on the exact chart gradient, stopped at gradient norm
# GRADIENT_TOL; the others (max/min, states that differ, custom F) may kink,
# so they run Nelder-Mead to simplex diameter SIMPLEX_TOL.  Either search
# stops at SEARCH_MAXITER iterations.
GRADIENT_TOL = 1e-6
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
    if not 0.0 < kappa < inf:
        raise InvalidParameterError(f"kappa must be finite and > 0, got {kappa}")
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
    The near-ties of that score (within NEAR_TIE) are assembled, evaluated with
    ``values``, sorted as ``log_branches`` sorts them, and the first minimum
    wins, so the result is the one a full sweep over the same branches gives.
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
                                      clusters.decomposition.eigenvectors)
    low = np.min(scores)
    near = clusters.sorted_branches(shifts[~(scores > low + NEAR_TIE * (1.0 + abs(low)))])
    confirmed = func.values(np.stack([b.value for b in near]))
    best = int(np.argmin(confirmed))
    f_value = float(confirmed[best])
    if (principal is not None and func.unitarily_invariant
            and not np.isclose(f_value, scores[principal], rtol=1e-12, atol=1e-12)):
        raise QslError(
            "internal consistency failure: principal branch is not "
            "minimal for a unitarily invariant constraint")
    return SpeedLimitResult(
        time=f_value / kappa,
        branch=near[best],
        conjugator=None,
        f_value=f_value,
        kappa=kappa,
        diagnostics=Diagnostics(branches_considered=len(shifts),
                                optimizer_iterations=None, converged=True),
    )


def conj_min_time(func, kappa: float, gate, restarts: int = DEFAULT_RESTARTS,
                  seed: int = 0, atol: float = UNITARY_ATOL) -> SpeedLimitResult:
    """Minimize F(V X V†)/kappa over conjugators V in SU(n), X = log(gate).

    Conjugation commutes with the principal logarithm, so the search runs on
    the fixed principal branch.  When F's ``orbit_minimizer`` gives a V, the
    minimum is F(V X V†) and no optimizer runs: V = I for an invariant F, V
    maps the ground eigenvector of 1j*X onto psi for ml and mt, and a Randers
    leaf on SU(2) with no oneform, or with a scalar metric on any SU(n), has
    its own closed form; a tree takes the V its varying leaves share.
    Otherwise V is charted as exp(sum_i c_i T_i) over the su basis and
    minimized from several starts: by BFGS when F has an ``orbit_covector``,
    else by Nelder-Mead.  BFGS takes F and its exact chart gradient from the
    one eigendecomposition that forms V, so F(V X V†) is evaluated as the
    returned conjugator reproduces it.  The identity chart point is always one
    start, so the result can never exceed the plain branch value.
    """
    kappa = _require_kappa(kappa)
    if restarts < 1:
        raise InvalidParameterError(f"restarts must be >= 1, got {restarts}")
    branch = principal_log(gate, atol=atol)
    x = branch.value
    n = len(x)
    require_dim(func, n)
    rng = _as_rng(seed)
    conjugator = func.orbit_minimizer(x)
    if conjugator is not None:
        f_value = func.value(conjugator @ x @ conjugator.conj().T)
        return SpeedLimitResult(
            time=f_value / kappa, branch=branch, conjugator=conjugator, f_value=f_value,
            kappa=kappa, diagnostics=Diagnostics(branches_considered=1,
                                                 optimizer_iterations=0, converged=True))
    import scipy.optimize  # deferred: it is most of the package's import time

    if func.orbit_covector(x) is not None:
        def objective(coords: np.ndarray) -> tuple[float, np.ndarray]:
            # Y = V X V† and G its covector: dF = -Re tr(dV V† [Y, G]), and with
            # iA = U diag(w) U† the derivative of exp is dV = U (Phi o U† dA U) U†,
            # Phi the divided differences of e^{-iw} (Daleckii-Krein).  So the
            # gradient is coords(U (Psi o U† [Y, G] U) U†): Psi_kl = e^{i d/2} sinc(d/2)
            # for d = w_k - w_l is Phi with V's own factor folded in, 1 at d = 0
            v, w, u = _expm_eigh(from_coords(coords, n))
            y = v @ x @ v.conj().T
            f = func.value(y)  # first: it refuses the values the slopes would divide by
            g = func.orbit_covector(y)
            d = w[:, None] - w
            k = u.conj().T @ (y @ g - g @ y) @ u
            return f, basis_coords(u @ (np.exp(0.5j * d) * np.sinc(d / TWO_PI) * k) @ u.conj().T)

        options = {"method": "BFGS", "jac": True,
                   "options": {"gtol": GRADIENT_TOL, "maxiter": SEARCH_MAXITER}}
    else:
        def objective(coords: np.ndarray) -> float:
            v = expm(from_coords(coords, n))
            return func.value(v @ x @ v.conj().T)

        options = {"method": "Nelder-Mead",
                   "options": {"xatol": SIMPLEX_TOL, "fatol": SIMPLEX_TOL,
                               "maxiter": SEARCH_MAXITER, "maxfev": 2 * SEARCH_MAXITER}}
    starts = [np.zeros(n * n - 1)] + [basis_coords(principal_log(haar_su(n, rng)).value)
                                      for _ in range(restarts - 1)]
    results = [scipy.optimize.minimize(objective, start, **options) for start in starts]
    # the lowest value wins, ties broken by the coordinates, then by start order
    best = min(results, key=lambda res: (float(res.fun), tuple(res.x.tolist())))
    best_value = float(best.fun)
    any_converged = any(bool(res.success) for res in results)
    conjugator = expm(from_coords(best.x, n))
    result = SpeedLimitResult(
        time=best_value / kappa,
        branch=branch,
        conjugator=conjugator,
        f_value=best_value,
        kappa=kappa,
        diagnostics=Diagnostics(branches_considered=1,
                                optimizer_iterations=int(best.nit),
                                converged=any_converged),
    )
    if not any_converged:
        raise OptimizerDidNotConvergeError(
            f"no restart converged within {SEARCH_MAXITER} iterations; "
            f"best value so far {best_value:.17g}", best=result)
    return result


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
