"""Independent reference computations for the benchmark's correctness checks.

The checks must not trust the code they check, so nothing here calls the
qslkit function under test.  Eigendata come from ``numpy.linalg.eig`` and
``numpy.linalg.eigh``, logarithm branches from a brute force over integer
shift vectors, and every constraint is evaluated from its defining spectral
formula (README "Atoms"/"Combinators").  The only qslkit object used is
``su_basis``, which defines the coordinate chart that Randers constraints are
written in.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from qslkit import su_basis

TWO_PI = 2.0 * np.pi
CLUSTER_ATOL = 1e-8     # eigenvalues this close share a winding (qslkit's default)
ORBIT_STEP = 1e-5       # central-difference step along the adjoint orbit


class OracleError(Exception):
    """An oracle could not produce a reference value."""


# ---------------------------------------------------------------------------
# Eigendata and logarithm branches
# ---------------------------------------------------------------------------

def eig_unitary(u):
    """Eigenangles in (-pi, pi] and orthonormal eigenvectors of a unitary.

    ``numpy.linalg.eig`` does not promise orthogonal eigenvectors inside a
    degenerate eigenspace; the eigenspaces of a normal matrix are mutually
    orthogonal, so a QR factorization orthonormalizes within each of them
    without mixing them.
    """
    vals, vecs = np.linalg.eig(u)
    theta = np.angle(vals)
    theta = np.where(theta <= -np.pi, theta + TWO_PI, theta)
    q, _ = np.linalg.qr(vecs)
    defect = float(np.max(np.abs((q * np.exp(1j * theta)) @ q.conj().T - u)))
    if defect > 1e-9:
        raise OracleError(f"eigendecomposition does not reconstruct the gate: {defect:.3e}")
    return theta, q


@functools.lru_cache(maxsize=None)
def _shift_grid(n: int, n_max: int) -> np.ndarray:
    return np.array(list(itertools.product(range(-n_max, n_max + 1), repeat=n)), dtype=float)


def brute_force_branches(theta, n_max: int) -> np.ndarray:
    """Shifted eigenangle rows ``theta + 2 pi s`` of every traceless logarithm.

    ``s`` ranges over all integer vectors with |s_k| <= n_max.  Equal
    eigenvalues must keep equal logarithm eigenvalues, which is what makes a
    branch independent of the basis chosen inside a degenerate eigenspace.
    """
    phi = theta + TWO_PI * _shift_grid(len(theta), n_max)
    keep = np.abs(phi.sum(axis=1)) < 1e-6
    eigs = np.exp(1j * theta)
    for j, k in itertools.combinations(range(len(theta)), 2):
        if abs(eigs[j] - eigs[k]) <= CLUSTER_ATOL:
            keep &= np.abs(phi[:, j] - phi[:, k]) < 1e-6
    return phi[keep]


def principal_log_angles(theta) -> np.ndarray:
    """Principal traceless logarithm: 2 pi comes off the m angles nearest +pi
    (onto the |m| nearest -pi when m < 0), where sum(theta) = 2 pi m."""
    m = int(np.rint(theta.sum() / TWO_PI))
    phi = theta.copy()
    if m:
        order = np.argsort(-theta if m > 0 else theta)
        phi[order[:abs(m)]] -= math.copysign(TWO_PI, m)
    return phi


def assemble(phi, q) -> np.ndarray:
    """The algebra element q diag(1j*phi) q^dagger."""
    return (q * (1j * phi)) @ q.conj().T


# ---------------------------------------------------------------------------
# Constraint values from their defining formulas
# ---------------------------------------------------------------------------

def spectral_values(func, phi, q) -> np.ndarray:
    """F at every X = q diag(1j*phi_b) q^dagger, for the rows phi_b of ``phi``.

    The Hamiltonian H = 1j*X has eigenvalues -phi_b on the columns of q.
    """
    phi = np.atleast_2d(phi)
    w = -phi
    kind = func.kind
    if kind == "schatten":
        a = np.abs(w)
        return a.max(axis=1) if math.isinf(func.p) else (a ** func.p).sum(axis=1) ** (1.0 / func.p)
    if kind == "op_shifted":
        return w.max(axis=1) - w.min(axis=1)
    if kind in ("ml", "mt"):
        amps = np.abs(q.conj().T @ func.psi) ** 2
        if kind == "ml":
            shifted = np.clip(w - w.min(axis=1, keepdims=True), 0.0, None)
            return ((shifted ** func.p) @ amps) ** (1.0 / func.p)
        mean = w @ amps
        return np.sqrt(np.clip((w * w) @ amps - mean * mean, 0.0, None))
    if kind == "randers":
        basis = su_basis(q.shape[0])
        # coordinate_j(X) = -Re tr(T_j X) = -Re sum_k (q_k^dagger T_j q_k) * 1j*phi_k
        diag = np.einsum("ak,jab,bk->jk", q.conj(), basis, q)
        coords = -(1j * phi @ diag.T).real
        quad = np.einsum("bi,ij,bj->b", coords, func.metric, coords)
        return np.sqrt(quad) + coords @ func.oneform
    left, right = (spectral_values(c, phi, q) for c in func.children)
    if kind == "sum":
        return left + right
    if kind == "max":
        return np.maximum(left, right)
    if kind == "min":
        return np.minimum(left, right)
    if kind == "powmean":
        return (left ** func.p + right ** func.p) ** (1.0 / func.p)
    if kind == "geomean":
        return (left ** func.p * right ** func.p) ** (1.0 / (2.0 * func.p))
    raise OracleError(f"no reference formula for constraint kind {kind!r}")


def value(func, x) -> float:
    """F at one algebra element, via numpy.linalg.eigh of H = 1j*X."""
    w, v = np.linalg.eigh(1j * np.asarray(x))
    return float(spectral_values(func, -w, v)[0])


# ---------------------------------------------------------------------------
# Stationarity on the adjoint orbit
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _orbit_steps(n: int, h: float):
    """exp(h T_i) for every su(n) basis element, from numpy.linalg.eigh."""
    out = []
    for t in su_basis(n):
        w, v = np.linalg.eigh(1j * t)
        out.append((v * np.exp(-1j * h * w)) @ v.conj().T)
    return tuple(out)


def orbit_residual(func, x, h: float = ORBIT_STEP) -> float:
    """max_i |d/dh F(e^{-hT_i} X e^{hT_i})| / F(X) by central differences.

    By Euler's theorem on the degree-2 function F**2 this equals the geodesic
    residual g_X(X, [X, T_i]) / F(X)**2 that qslkit estimates from the
    fundamental tensor, so it decides the same verdict by a different method.
    """
    fx = value(func, x)
    worst = 0.0
    for e in _orbit_steps(x.shape[0], h):
        ed = e.conj().T
        slope = (value(func, ed @ x @ e) - value(func, e @ x @ ed)) / (2.0 * h)
        worst = max(worst, abs(slope))
    return worst / fx
