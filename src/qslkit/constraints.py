"""Positive-homogeneous resource functionals on su(N).

Each constraint is a function F: su(N) -> R with F(lambda*A) = lambda*F(A)
for lambda > 0, modeling how much of some limited physical quantity a
Hamiltonian consumes.  Hamiltonians enter through A = -1j*H, so every
functional below is written in terms of H = 1j*A.

Atoms
-----
Schatten(p)              p-norm of the singular values of H (p = inf is the
                         operator norm).
SpectralRange()          E_max - E_min of H: the operator norm after shifting
                         the ground energy to zero.
GroundShiftedMoment(p,psi)  (<psi| (H - E_min)**p |psi>)**(1/p), the p-th
                         moment of the ground-shifted Hamiltonian in a fixed
                         reference state.
EnergyUncertainty(psi)   standard deviation of H in a fixed reference state.
Randers(metric, oneform) sqrt(a.M.a) + b.a in su_basis coordinates a, with M
                         positive definite and b small enough that the value
                         stays positive away from zero.

Combinators (all preserve degree-1 homogeneity)
-----------------------------------------------
Sum, Max, Min            pointwise on two constraints.
PowerMean(p)             (F1**p + F2**p)**(1/p).
GeometricMean(p)         (F1**p * F2**p)**(1/(2p)); the naive product of two
                         degree-1 functionals would be degree 2, so the
                         exponent halves it back.

Every constraint is a ``Constraint``: the base holds the defaults (no
``children``, ``dim`` None for any N, ``unitarily_invariant`` False,
``kink_margin`` inf) and each class overrides where it differs.  ``KINDS``
maps each ``kind`` to its class, whose dataclass fields are its ``jsonio``
format.

Each catalog class states F once, in ``values(stack)``: F at each matrix of
an (m, n, n) stack of points that share nothing, with one stacked LAPACK call
for the stack.  A stack of m gives the bits of m stacks of one, and the
base's ``value(a)`` is ``values`` on a stack of one.  A custom constraint may
define ``value`` alone instead; the base's ``values`` then calls it on each
point.  Where F takes a power of a scalar, ``values`` takes it point by point
in scalar arithmetic, since numpy's array power rounds differently.  A power
that overflows, or in Schatten and ``ml`` underflows to 0 from a nonzero
value, raises InvalidParameterError naming its exponent.  The
sampled checks and the finite-difference stencils in ``geometry``, the
homogeneity check and ``gatetime.action`` evaluate F this way.

``spectral_values(phi, q)`` is the eigenbasis form, for points that share
one: F at every X_b = q diag(1j*phi_b) q† for the rows phi_b of ``phi`` and
one unitary q.
The Hamiltonian 1j*X_b has eigenvalues -phi_b on the columns of q, so every
atom reads its value off those rows (Lewis, "Derivatives of spectral
functions", Math. Oper. Res. 1996): the Schatten norms and the spectral range
from the angles alone, the state-anchored moments with the weights
|q† psi|**2, and Randers through the linear map from phi to su coordinates.
Branch search in ``gatetime.gate_time`` scores all logarithm branches of a gate
this way, since they share one eigenbasis.  A class without it gets the
base's default, which assembles the points and calls ``values`` once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isinf
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, InvariantViolationError
from .linalg import basis_coords, random_algebra_element, require_algebra_element, su_basis

STATE_ATOL = 1e-12

# Most matrix entries (128 KB of complex128) a sampled check or a stencil puts
# in one stacked ``values`` call, so its memory stays bounded whatever its
# sample count and dimension.
STACK_ENTRIES = 8192


def require_state(psi) -> np.ndarray:
    """Validate a unit-norm complex state vector (within STATE_ATOL)."""
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1:
        raise DimensionMismatchError(f"state must be a 1-d array, got shape {psi.shape}")
    norm = float(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= STATE_ATOL:
        raise InvariantViolationError(f"state is not normalized: <psi|psi> = {norm:.17g}")
    return psi


def basis_state(n: int, k: int = 0) -> np.ndarray:
    """Computational basis state |k> in dimension n."""
    psi = np.zeros(n, dtype=np.complex128)
    psi[k] = 1.0
    return psi


def _hermitian_eigs(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of H = 1j*A, or of each matrix of a stack."""
    return np.linalg.eigvalsh(1j * a)


def _scalar_powers(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e entry by entry as a scalar power, since numpy's array power
    rounds differently (on an array, ** 0.5 is a square root); for e > 1, the
    only case where a finite power leaves the float range, the range is checked."""
    try:
        out = np.array([v ** e for v in x.tolist()], dtype=float)
    except OverflowError:
        out = np.array([inf])
    if e > 1.0:
        _require_representable(out, x, f"power with exponent {e}")
    return out


def _require_representable(y: np.ndarray, x: np.ndarray, what: str) -> None:
    """Raise InvalidParameterError naming ``what`` unless each y, a power of
    the entries of x in its row, is finite, and nonzero where x is nonzero."""
    if 0.0 < y.min(initial=inf) and y.max(initial=0.0) < inf:  # the common case
        return
    if not np.isfinite(y).all():
        raise InvalidParameterError(f"{what} overflows a float")
    if ((y == 0) & (np.reshape(x, (len(y), -1)) != 0).any(axis=1)).any():
        raise InvalidParameterError(f"{what} underflows a float to 0 from a nonzero value")


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i @ y_i for each row y_i of y, with x one vector or one row per y_i:
    a (1, n) @ (n, 1) product is the BLAS dot of two vectors, where einsum
    sums in another order."""
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


def _require_exponent(p: float, what: str) -> None:
    if not (p > 0.0) or isinf(p):
        raise InvalidParameterError(f"{what} exponent must be finite and > 0, got {p}")


def require_dim(func, n: int) -> None:
    """Raise DimensionMismatchError unless ``func`` accepts n x n arguments."""
    want = func.dim
    if want is not None and want != n:
        raise DimensionMismatchError(f"constraint expects dimension {want}, got dimension {n}")


class Constraint:
    """Base of the catalog: the defaults each class overrides where it differs.

    ``children`` are the constraints a combinator is built from; ``dim`` is
    the dimension N the constraint is tied to, or None for any N;
    ``unitarily_invariant`` marks functions of the spectrum (Schatten, the
    spectral range, and combinators of them) for which gate_time asserts that
    the principal logarithm branch is minimal.

    ``orbit_states`` says how F varies along an adjoint orbit V X V†: ``()``
    when it is constant there (``unitarily_invariant``), the reference states
    when F depends on V only through V†psi and is least where each V†psi is a
    ground eigenvector of 1j*X (the state-anchored moments), and None when F
    varies in any other way.  ``gatetime.conj_min_time`` reads its orbit
    minimum off this in closed form when every state is the same.

    A subclass defines F through ``values`` or, for a custom constraint,
    through ``value`` alone; each defaults to the other.
    """

    kind: str
    children = ()
    dim = None
    unitarily_invariant = False

    @property
    def orbit_states(self) -> Optional[tuple]:
        return () if self.unitarily_invariant else None

    def kink_margin(self, a: np.ndarray, w: np.ndarray) -> float:
        """Distance from A to the nearest point where F is not smooth.

        ``w`` is the ascending spectrum of H = 1j*A, computed once by the
        caller and shared across a combinator tree.
        """
        return inf

    def value(self, a: np.ndarray) -> float:
        """F at one matrix: ``values`` on a stack of one."""
        return float(self.values(a[None])[0])

    def values(self, stack: np.ndarray) -> np.ndarray:
        """F at each matrix of an (m, n, n) stack.

        Every catalog class defines this; the default, for a constraint that
        defines ``value`` alone, calls ``value`` on each point.
        """
        return np.array([self.value(a) for a in stack], dtype=float)

    def spectral_values(self, phi: np.ndarray, q: np.ndarray) -> np.ndarray:
        """F at every X_b = q diag(1j*phi_b) q†, one row phi_b of ``phi`` each.

        This default assembles all points and makes one ``values`` call.
        """
        return self.values((q * (1j * phi[:, None, :])) @ q.conj().T)


def _state_weights(psi, q) -> np.ndarray:
    """|q† psi|**2: the weight of psi on each eigenvector column of q."""
    return np.abs(q.conj().T @ psi) ** 2


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schatten(Constraint):
    """Schatten p-norm of the Hamiltonian; p = inf is the operator norm."""

    p: float
    kind = "schatten"
    unitarily_invariant = True

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise InvalidParameterError(f"Schatten exponent must be >= 1, got {self.p}")

    def values(self, stack) -> np.ndarray:
        sv = np.abs(_hermitian_eigs(stack))
        if isinf(self.p):
            return np.max(sv, axis=1)
        with np.errstate(over="ignore"):
            sums = np.sum(sv ** self.p, axis=1)
        _require_representable(sums, sv, f"schatten exponent p = {self.p}")
        return _scalar_powers(sums, 1.0 / self.p)

    def spectral_values(self, phi, q) -> np.ndarray:
        sv = np.abs(phi)
        if isinf(self.p):
            return np.max(sv, axis=1)
        # an overflowing score loses; one that underflows to 0 wins and ``values`` refuses it
        with np.errstate(over="ignore"):
            return np.sum(sv ** self.p, axis=1) ** (1.0 / self.p)

    def kink_margin(self, a, w) -> float:
        if isinf(self.p):
            # kinks where an extreme eigenvalue degenerates or where the top
            # and bottom arms cross; on su(2) the arms coincide identically
            # (w_min = -w_max), so the crossing is not a kink there
            gaps = [float(w[-1] - w[-2]), float(w[1] - w[0])]
            if len(w) > 2:
                gaps.append(abs(float(w[-1] + w[0])))
            return min(gaps)
        if abs(self.p - round(self.p)) < 1e-12 and int(round(self.p)) % 2 == 0:
            return inf
        # odd or fractional powers kink where an eigenvalue crosses zero
        return float(np.min(np.abs(w)))


@dataclass(frozen=True)
class SpectralRange(Constraint):
    """Spread E_max - E_min of the Hamiltonian spectrum."""

    kind = "op_shifted"
    unitarily_invariant = True

    def values(self, stack) -> np.ndarray:
        w = _hermitian_eigs(stack)
        return w[:, -1] - w[:, 0]

    def spectral_values(self, phi, q) -> np.ndarray:
        return np.max(phi, axis=1) - np.min(phi, axis=1)

    def kink_margin(self, a, w) -> float:
        # kinks where two eigenvalues collide
        return float(np.min(np.diff(w)))


class _StateAnchored(Constraint):
    """An atom anchored at a reference state ``psi``, which fixes its dimension."""

    def __post_init__(self):
        object.__setattr__(self, "psi", require_state(self.psi))

    @property
    def dim(self) -> Optional[int]:
        return len(self.psi)

    @property
    def orbit_states(self) -> tuple:
        # F_psi(V X V†) = F_{V†psi}(X), and ml and mt vanish at a ground eigenvector
        return (self.psi,)


@dataclass(frozen=True, eq=False)
class GroundShiftedMoment(_StateAnchored):
    """p-th root of the p-th moment of H - E_min in a reference state.

    The shifted operator is positive semidefinite, so non-integer exponents
    are defined spectrally and the moment is never negative.
    """

    p: float
    psi: np.ndarray
    kind = "ml"

    def __post_init__(self):
        _require_exponent(self.p, "moment")
        super().__post_init__()

    def values(self, stack) -> np.ndarray:
        w, v = np.linalg.eigh(1j * stack)
        amps = np.abs(v.conj().transpose(0, 2, 1) @ self.psi) ** 2
        gaps = w - w[:, :1]
        # a gap power that overflows makes the moment inf, or NaN at weight 0
        with np.errstate(over="ignore", invalid="ignore"):
            moment = _dots(amps, gaps ** self.p)
        _require_representable(moment, amps * gaps, f"ml exponent p = {self.p}")
        return _scalar_powers(np.maximum(moment, 0.0), 1.0 / self.p)

    def spectral_values(self, phi, q) -> np.ndarray:
        w = -phi
        with np.errstate(over="ignore", invalid="ignore"):
            moment = (w - np.min(w, axis=1, keepdims=True)) ** self.p @ _state_weights(self.psi, q)
            return np.maximum(moment, 0.0) ** (1.0 / self.p)

    kink_margin = SpectralRange.kink_margin  # the ground eigenvector jumps at collisions


@dataclass(frozen=True, eq=False)
class EnergyUncertainty(_StateAnchored):
    """Standard deviation of the Hamiltonian in a reference state."""

    psi: np.ndarray
    kind = "mt"

    def moments(self, stack) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard deviation of H = 1j*A in psi for each A of a stack."""
        # conj(x) @ y is the BLAS dot np.vdot takes
        hpsi = (1j * stack) @ self.psi
        mean = _dots(self.psi.conj(), hpsi).real
        var = _dots(hpsi.conj(), hpsi).real - mean * mean
        return mean, np.sqrt(np.maximum(var, 0.0))

    def values(self, stack) -> np.ndarray:
        return self.moments(stack)[1]

    def spectral_values(self, phi, q) -> np.ndarray:
        weights = _state_weights(self.psi, q)
        mean = phi @ weights  # of -H; the sign drops out of the variance
        return np.sqrt(np.maximum(phi ** 2 @ weights - mean * mean, 0.0))

    def kink_margin(self, a, w) -> float:
        # the square root kinks where the variance vanishes
        return self.value(a)


@dataclass(frozen=True, eq=False)
class Randers(Constraint):
    """Riemannian norm plus a linear drift term, in su_basis coordinates.

    ``metric`` is a symmetric positive-definite (n**2-1) x (n**2-1) matrix and
    ``oneform`` a real vector of matching size with oneform . metric^-1 .
    oneform < 1, which keeps the value positive for every nonzero argument.
    """

    metric: np.ndarray
    oneform: np.ndarray
    kind = "randers"

    def __post_init__(self):
        metric = np.asarray(self.metric, dtype=float)
        oneform = np.asarray(self.oneform, dtype=float)
        if metric.ndim != 2 or metric.shape[0] != metric.shape[1]:
            raise DimensionMismatchError(f"metric must be square, got shape {metric.shape}")
        if oneform.shape != (metric.shape[0],):
            raise DimensionMismatchError(
                f"oneform shape {oneform.shape} does not match metric {metric.shape}")
        if not (np.isfinite(metric).all() and np.isfinite(oneform).all()):
            raise InvalidParameterError("metric and oneform must be finite")
        if float(np.max(np.abs(metric - metric.T))) > 1e-10:
            raise InvalidParameterError("metric must be symmetric")
        eigs = np.linalg.eigvalsh(metric)
        if eigs[0] <= 0.0:
            raise InvalidParameterError(f"metric must be positive definite, min eig {eigs[0]:.3e}")
        drift = float(oneform @ np.linalg.solve(metric, oneform))
        if drift >= 1.0:
            raise InvalidParameterError(
                f"oneform too large for positivity: oneform.M^-1.oneform = {drift:.6g} >= 1")
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "oneform", oneform)
        if self.dim ** 2 - 1 != metric.shape[0]:
            raise DimensionMismatchError(
                f"metric size {metric.shape[0]} is not n**2 - 1 for any integer n")

    @property
    def dim(self) -> Optional[int]:
        return int(round(np.sqrt(self.metric.shape[0] + 1)))

    def values(self, stack) -> np.ndarray:
        coords = basis_coords(stack)
        quad = (coords[:, None, :] @ self.metric @ coords[:, :, None])[:, 0, 0]
        return np.sqrt(quad) + _dots(self.oneform, coords)

    def spectral_values(self, phi, q) -> np.ndarray:
        # coords(X_b) = phi_b @ c with c[k, j] = Im((q† T_j q)_kk), since
        # coords_j(X) = -Re tr(T_j X); the metric folds into the n x n Gram c M c^T
        c = np.sum(q.conj() * (su_basis(q.shape[0]) @ q), axis=1).imag.T
        gram = c @ self.metric @ c.T
        return np.sqrt(np.sum((phi @ gram) * phi, axis=1)) + phi @ (c @ self.oneform)

    def kink_margin(self, a, w) -> float:
        # smooth everywhere except at the origin
        return float(np.linalg.norm(a))


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------

class _Combinator(Constraint):
    """Two children joined pointwise by the subclass's ``combine(F1, F2)``."""

    def __post_init__(self):
        children = tuple(self.children)
        if len(children) != 2:
            raise InvalidParameterError(f"combinators take exactly 2 children, got {len(children)}")
        dims = {c.dim for c in children if c.dim is not None}
        if len(dims) > 1:
            raise DimensionMismatchError(f"children disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "children", children)

    @property
    def dim(self) -> Optional[int]:
        return next((c.dim for c in self.children if c.dim is not None), None)

    @property
    def unitarily_invariant(self) -> bool:
        # every combine is nondecreasing in both arguments, so a branch that
        # is minimal for both children is minimal for the combination
        return all(c.unitarily_invariant for c in self.children)

    @property
    def orbit_states(self) -> Optional[tuple]:
        # nondecreasing combines again: V minimizing every child minimizes the tree
        states = [c.orbit_states for c in self.children]
        return None if any(s is None for s in states) else sum(states, ())

    def values(self, stack) -> np.ndarray:
        return self.combine(*(c.values(stack) for c in self.children))

    def spectral_values(self, phi, q) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing scores lose
            return self.combine(*(c.spectral_values(phi, q) for c in self.children))

    def kink_margin(self, a, w) -> float:
        return min(c.kink_margin(a, w) for c in self.children)


@dataclass(frozen=True)
class Sum(_Combinator):
    children: tuple
    kind = "sum"

    def combine(self, v1, v2):
        return v1 + v2


class _Extremum(_Combinator):
    def kink_margin(self, a, w) -> float:
        # kinks where the arms tie
        v1, v2 = (c.value(a) for c in self.children)
        return min(abs(v1 - v2), super().kink_margin(a, w))


class _Mean(_Combinator):
    def __post_init__(self):
        _require_exponent(self.p, self.kind)
        super().__post_init__()

    def values(self, stack) -> np.ndarray:
        # combine on Python floats: scalar powers, as _scalar_powers takes them
        v1, v2 = (c.values(stack).tolist() for c in self.children)
        try:
            out = np.array([self.combine(x, y) for x, y in zip(v1, v2)], dtype=float)
        except OverflowError:
            out = np.array([inf])
        if not np.isfinite(out).all():  # a geomean product overflows without an OverflowError
            raise InvalidParameterError(f"{self.kind} exponent p = {self.p} overflows a float")
        return out

    def kink_margin(self, a, w) -> float:
        # F**p kinks where F vanishes
        return min(super().kink_margin(a, w), *(c.value(a) for c in self.children))


@dataclass(frozen=True)
class Max(_Extremum):
    children: tuple
    kind = "max"

    def combine(self, v1, v2):
        return np.where(v2 > v1, v2, v1)  # ties keep v1, as the builtin max


@dataclass(frozen=True)
class Min(_Extremum):
    children: tuple
    kind = "min"

    def combine(self, v1, v2):
        return np.where(v2 < v1, v2, v1)  # ties keep v1, as the builtin min


@dataclass(frozen=True)
class PowerMean(_Mean):
    """(F1**p + F2**p)**(1/p) for p > 0."""

    p: float
    children: tuple
    kind = "powmean"

    def combine(self, v1, v2):
        return (v1 ** self.p + v2 ** self.p) ** (1.0 / self.p)


@dataclass(frozen=True)
class GeometricMean(_Mean):
    """(F1**p * F2**p)**(1/(2p)): the degree-1 geometric combination."""

    p: float
    children: tuple
    kind = "geomean"

    def combine(self, v1, v2):
        return (v1 ** self.p * v2 ** self.p) ** (1.0 / (2.0 * self.p))


KINDS = {cls.kind: cls for cls in (Schatten, SpectralRange, GroundShiftedMoment,
                                    EnergyUncertainty, Randers, Sum, Max, Min,
                                    PowerMean, GeometricMean)}


# ---------------------------------------------------------------------------
# Evaluation and verification
# ---------------------------------------------------------------------------

def evaluate(func, a, validate: bool = True) -> float:
    """Evaluate a constraint functional on an algebra element.

    ``func`` is a ``Constraint``.  With ``validate`` the input is checked to
    be a traceless anti-Hermitian matrix of matching dimension.
    """
    a = np.asarray(a, dtype=np.complex128)
    if validate:
        a = require_algebra_element(a)
        require_dim(func, a.shape[0])
    return float(func.value(a))


@dataclass(frozen=True)
class HomogeneityReport:
    max_relative_deviation: float
    trials: int
    seed: int


def check_homogeneity(func, n: int, trials: int = 100, seed: int = 0) -> HomogeneityReport:
    """Sample |F(lambda A) - lambda F(A)| / (lambda F(A) + eps) over random
    algebra elements and scales lambda in (0, 10]."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    per_stack = max(1, STACK_ENTRIES // (n * n))
    for start in range(0, trials, per_stack):
        # A, then lambda uniform in (0, 10], per trial: the stream interleaves them
        elements, scales = zip(*[(random_algebra_element(n, rng), 10.0 * (1.0 - rng.random()))
                                 for _ in range(min(per_stack, trials - start))])
        a = np.stack(elements)
        lam = np.array(scales)
        scaled = func.values(lam[:, None, None] * a)
        direct = lam * func.values(a)
        worst = max(worst, float(np.fmax.reduce(np.abs(scaled - direct) / (direct + 1e-300))))
    return HomogeneityReport(max_relative_deviation=worst, trials=trials, seed=seed)


@dataclass(frozen=True)
class EnergyStats:
    """Spectral and state-relative statistics of a Hamiltonian H = 1j*A."""

    ground: float
    top: float
    expectation: float
    uncertainty: float


def energy_stats(a, psi) -> EnergyStats:
    """Ground/top eigenvalues of H = 1j*A plus mean and standard deviation in psi."""
    a = require_algebra_element(a)
    func = EnergyUncertainty(psi=psi)
    if func.dim != a.shape[0]:
        raise DimensionMismatchError(
            f"state dimension {func.dim} does not match matrix dimension {a.shape[0]}")
    w = _hermitian_eigs(a)
    (mean,), (uncertainty,) = func.moments(a[None])
    return EnergyStats(ground=float(w[0]), top=float(w[-1]),
                       expectation=float(mean), uncertainty=float(uncertainty))
