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
GeometricMean(p)         (F1**p * F2**p)**(1/(2p)) = sqrt(F1 * F2) for every
                         p; the naive product of two degree-1 functionals
                         would be degree 2, so the exponent halves it back.

Every constraint is a ``Constraint``: the base holds the defaults (no
``children``, ``dim`` None for any N, ``unitarily_invariant`` False,
``kink_margin`` inf) and each class overrides where it differs.  ``KINDS``
maps each ``kind`` to its class, whose dataclass fields are its ``jsonio``
format.

Each catalog class states F once, in ``values(stack)``: F at each matrix of
an (m, n, n) stack of points that share nothing, with one stacked LAPACK call
for the stack.  A unitarily invariant F is a function of the spectrum alone
(a spectral function, Lewis, below), so the invariant classes state it as
``from_spectrum(w)`` instead, over the ascending spectrum w of H = 1j*A:
Schatten, the spectral range, and every combinator whose children are all
invariant, so a tree of them takes one ``eigvalsh`` call per stack and joins
its children's values read off that one spectrum.
A stack of m gives the bits of m stacks of one, and the base's ``value(a)``
is ``values`` on a stack of one.  A custom constraint may
define ``value`` alone instead; the base's ``values`` then calls it on each
point.  Where an atom takes a power of a scalar, ``values`` takes it point by
point in scalar arithmetic, since numpy's array power rounds differently.  A
power that overflows, or in Schatten and ``ml`` underflows to 0 from a
nonzero value, raises InvalidParameterError naming its exponent.  A
combinator joins its children's arrays in closed form, the means with no
power of a child, and raises InvalidParameterError naming itself where the
result is not finite.  The
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
from .linalg import (basis_coords, from_coords, random_algebra_element, require_algebra_element,
                     su_basis, _as_rng, _from_eigen, _require_count)

STATE_ATOL = 1e-12

# Most matrix entries (128 KB of complex128) a sampled check puts in one
# stacked ``values`` call, so its memory stays bounded whatever its sample
# count.  The geodesic check of an F with no frame gradient fills a call with
# the stencils of whole logarithm branches, 2(n**2 - 1) points each (17
# branches at n = 4); from n = 9 one branch exceeds the bound and takes a
# call of its own.
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
    """Computational basis state |k> in dimension n (n >= 1, 0 <= k < n)."""
    _require_count(n, "n", 1)
    _require_count(k, "k", 0)
    if k >= n:
        raise InvalidParameterError(f"basis state needs 0 <= k < n, got k = {k}, n = {n}")
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
    """Raise InvalidParameterError naming ``what`` unless each y, a power or
    a quadratic form of the entries of x in its row, is finite, and nonzero
    where x is nonzero."""
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


def _require_finite_positive(value: float, name: str) -> None:
    if not 0.0 < value < inf:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value}")


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

    ``orbit_minimizer(x)`` is a special unitary V at which F(V X V†) is least
    over the adjoint orbit of X, or None when the class knows no closed form:
    the identity for an invariant F, which is constant on the orbit, and each
    class's own minimizer otherwise.  ``orbit_slope(stack)`` is, in one pass,
    ``values(stack)`` and F's frame gradient at each Y: an (m, n**2 - 1) row
    of the slopes d/dt F(e^{t T_i} Y e^{-t T_i}) at t = 0 over the su basis
    T_i, or None where F may kink on the orbit (max and min of a varying
    child, the state-anchored atoms, custom constraints); the rows are zero
    for an invariant F.  A row does not depend on the other rows.
    ``gatetime.conj_min_time`` descends along it and the geodesic checks in
    ``geometry`` read their residuals off it.

    A subclass defines F through ``values`` or, for a custom constraint,
    through ``value`` alone; each defaults to the other.  A
    ``unitarily_invariant`` class, a function of the spectrum alone, defines
    ``from_spectrum(w)`` instead: F at each row of an (m, n) array w of
    ascending spectra of H = 1j*A, which the base's ``values`` reads off one
    ``eigvalsh`` call.
    """

    kind: str
    children = ()
    dim = None
    unitarily_invariant = False

    def orbit_minimizer(self, x: np.ndarray) -> Optional[np.ndarray]:
        return np.eye(len(x), dtype=np.complex128) if self.unitarily_invariant else None

    def orbit_slope(self, stack: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        k = stack.shape[-1] ** 2 - 1
        return self.values(stack), (np.zeros((len(stack), k)) if self.unitarily_invariant else None)

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

        An invariant class reads it off the stack's spectra, every other
        catalog class defines it, and for a constraint that defines ``value``
        alone this default calls ``value`` on each point.
        """
        if self.unitarily_invariant:
            return self.from_spectrum(_hermitian_eigs(stack))
        return np.array([self.value(a) for a in stack], dtype=float)

    def spectral_values(self, phi: np.ndarray, q: np.ndarray) -> np.ndarray:
        """F at every X_b = q diag(1j*phi_b) q†, one row phi_b of ``phi`` each.

        This default forms the points bit for bit as branch values are formed,
        and makes one ``values`` call; a row that overflows may score inf or NaN.
        """
        return self.values(_from_eigen(q, 1j * phi))


def _carry(onto: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The special unitary V = onto u† / det**(1/n): V maps each column of u,
    the eigenvectors of 1j*X, onto the column of ``onto`` in its place, so
    V X V† has X's spectrum on the columns of ``onto``."""
    v = onto @ u.conj().T
    return v / np.linalg.det(v) ** (1.0 / len(v))


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

    def from_spectrum(self, w) -> np.ndarray:
        sv = np.abs(w)
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

    def from_spectrum(self, w) -> np.ndarray:
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

    def orbit_minimizer(self, x) -> np.ndarray:
        # F_psi(V X V†) = F_{V†psi}(X), and ml and mt vanish at a ground
        # eigenvector: V maps the ground eigenvector of 1j*X onto psi, and the
        # rest of the eigenbasis onto a QR completion of psi
        _, u = np.linalg.eigh(1j * x)
        w, _ = np.linalg.qr(np.column_stack([self.psi, np.eye(len(x))]))
        return _carry(w, u)


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
        _require_finite_positive(self.p, "moment exponent")
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
        # |(H - mean) psi|**2: <H psi|H psi> - mean**2 cancels to noise near 0
        dev = hpsi - mean[:, None] * self.psi
        with np.errstate(over="ignore", invalid="ignore"):
            variance = _dots(dev.conj(), dev).real
        _require_representable(variance, dev, "mt variance")
        return mean, np.sqrt(variance)

    def values(self, stack) -> np.ndarray:
        return self.moments(stack)[1]

    def spectral_values(self, phi, q) -> np.ndarray:
        weights = _state_weights(self.psi, q)
        mean = phi @ weights  # of -H; the sign drops out of the variance
        return np.sqrt((phi - mean[:, None]) ** 2 @ weights)

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

    def _terms(self, stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coordinates c of each point, its norm sqrt(c.M.c) and F."""
        coords = basis_coords(stack)
        with np.errstate(over="ignore", invalid="ignore"):
            quad = (coords[:, None, :] @ self.metric @ coords[:, :, None])[:, 0, 0]
        _require_representable(quad, coords, "randers quadratic form")
        norm = np.sqrt(quad)
        return coords, norm, norm + _dots(self.oneform, coords)

    def values(self, stack) -> np.ndarray:
        return self._terms(stack)[2]

    def spectral_values(self, phi, q) -> np.ndarray:
        # coords(X_b) = phi_b @ c with c[k, j] = Im((q† T_j q)_kk), since
        # coords_j(X) = -Re tr(T_j X); the metric folds into the n x n Gram c M c^T
        c = np.sum(q.conj() * (su_basis(q.shape[0]) @ q), axis=1).imag.T
        gram = c @ self.metric @ c.T
        return np.sqrt(np.sum((phi @ gram) * phi, axis=1)) + phi @ (c @ self.oneform)

    def kink_margin(self, a, w) -> float:
        # smooth everywhere except at the origin
        return float(np.linalg.norm(a))

    def orbit_slope(self, stack) -> tuple[np.ndarray, np.ndarray]:
        # dF = (M c / sqrt(c.M.c) + b) . dc = -Re tr(G dY), G = from_coords of
        # that gradient, and dY = [T_i, Y], so the slope is the coordinates of
        # Y G - G Y; the orbit of Y = 0 is the one point, where any G will do
        c, norm, f = self._terms(stack)
        smooth = norm > 0.0
        grad = np.zeros_like(c)
        grad[smooth] = ((self.metric @ c[smooth, :, None])[:, :, 0] / norm[smooth, None]
                        + self.oneform)
        g = from_coords(grad, stack.shape[-1])
        return f, basis_coords(stack @ g - g @ stack)

    def orbit_minimizer(self, x) -> Optional[np.ndarray]:
        n = len(x)
        if np.array_equal(self.metric, self.metric[0, 0] * np.eye(len(self.metric))):
            # F = sqrt(m)|c| + b.c and |c| is constant on the orbit; b.c is
            # tr((1j W)(1j X)) for W = from_coords(b), least when the two
            # spectra pair ascending with descending (von Neumann's trace
            # inequality): V carries X's ascending eigenbasis onto W's descending one
            _, onto = np.linalg.eigh(1j * from_coords(self.oneform, n))
            onto = onto[:, ::-1]
        elif n == 2 and not self.oneform.any():
            # the su(2) orbit is the sphere |c| = r, on which sqrt(c.M.c) is
            # least along the metric's lowest eigenvector e: V carries X onto r e
            _, e = np.linalg.eigh(self.metric)
            r = np.linalg.norm(basis_coords(x))
            _, onto = np.linalg.eigh(1j * from_coords(r * e[:, 0], n))
        else:
            return None
        _, u = np.linalg.eigh(1j * x)
        return _carry(onto, u)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------

class _Combinator(Constraint):
    """Two children joined pointwise by the subclass's array ``combine(F1, F2)``;
    ``join``, which ``values`` takes, refuses a result that is not finite."""

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

    def orbit_minimizer(self, x) -> Optional[np.ndarray]:
        # nondecreasing combines again: a V that minimizes every child that
        # varies on the orbit minimizes the tree
        found = [c.orbit_minimizer(x) for c in self.children if not c.unitarily_invariant]
        if not found:
            return super().orbit_minimizer(x)
        if any(v is None or not np.array_equal(v, found[0]) for v in found):
            return None
        return found[0]

    def orbit_slope(self, stack) -> tuple[np.ndarray, Optional[np.ndarray]]:
        if self.unitarily_invariant:  # one spectrum for the whole tree
            return super().orbit_slope(stack)
        (v1, g1), (v2, g2) = (c.orbit_slope(stack) for c in self.children)
        f = self.join(v1, v2)
        if g1 is None or g2 is None:
            return f, None
        # the chain rule: dF/dF1 g1 + dF/dF2 g2; a child at 0 is at its least
        # on the orbit, so it adds no slope
        with np.errstate(divide="ignore", invalid="ignore"):
            s1, s2 = (np.where(v > 0.0, self.slope(v, f), 0.0) for v in (v1, v2))
        return f, s1[:, None] * g1 + s2[:, None] * g2

    def values(self, stack) -> np.ndarray:
        if self.unitarily_invariant:  # one spectrum for the whole tree
            return super().values(stack)
        return self.join(*(c.values(stack) for c in self.children))

    def from_spectrum(self, w) -> np.ndarray:
        return self.join(*(c.from_spectrum(w) for c in self.children))

    def join(self, v1, v2) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.combine(v1, v2)
        if not np.isfinite(out).all():
            raise InvalidParameterError(f"{self.named} overflows a float")
        return out

    @property
    def named(self) -> str:
        """The combinator as its overflow error names it."""
        return self.kind

    def spectral_values(self, phi, q) -> np.ndarray:
        return self.combine(*(c.spectral_values(phi, q) for c in self.children))

    def kink_margin(self, a, w) -> float:
        return min(c.kink_margin(a, w) for c in self.children)

    def child_values(self, a, w) -> list[float]:
        """Each child's F at A; an invariant child reads it off A's spectrum w."""
        return [float(c.from_spectrum(w[None])[0]) if c.unitarily_invariant else c.value(a)
                for c in self.children]


@dataclass(frozen=True)
class Sum(_Combinator):
    children: tuple
    kind = "sum"

    def combine(self, v1, v2):
        return v1 + v2

    def slope(self, v, f):
        return 1.0


class _Extremum(_Combinator):
    orbit_slope = Constraint.orbit_slope  # kinks where the arms tie

    def kink_margin(self, a, w) -> float:
        # kinks where the arms tie
        v1, v2 = self.child_values(a, w)
        return min(abs(v1 - v2), super().kink_margin(a, w))


class _Mean(_Combinator):
    def __post_init__(self):
        _require_finite_positive(self.p, f"{self.kind} exponent")
        super().__post_init__()

    @property
    def named(self) -> str:
        return f"{self.kind} exponent p = {self.p}"

    def kink_margin(self, a, w) -> float:
        # F**p kinks where F vanishes
        return min(super().kink_margin(a, w), *self.child_values(a, w))


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
        # M (1 + (m/M)**p)**(1/p) for M = max and m = min: no power of a child
        # itself, which over- or underflows where the mean does not; the
        # ratio is 1 at a tie and 0 where both are 0, so the mean is 0 there
        big, small = np.maximum(v1, v2), np.minimum(v1, v2)
        ratio = np.divide(small, big, out=np.where(big > 0.0, 1.0, 0.0), where=small < big)
        return big * (1.0 + ratio ** self.p) ** (1.0 / self.p)

    def slope(self, v, f):
        return (v / f) ** (self.p - 1.0)


@dataclass(frozen=True)
class GeometricMean(_Mean):
    """sqrt(F1 * F2): the degree-1 geometric combination, which ``p`` does not change."""

    p: float
    children: tuple
    kind = "geomean"

    def combine(self, v1, v2):
        return np.sqrt(v1) * np.sqrt(v2)

    def slope(self, v, f):
        return 0.5 * f / v


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
    _require_count(n, "n", 2)
    _require_count(trials, "trials", 1)
    require_dim(func, n)
    rng = _as_rng(seed)
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
    return HomogeneityReport(max_relative_deviation=worst, trials=trials,
                             seed=int(seed) if isinstance(seed, (int, np.integer)) else -1)


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
