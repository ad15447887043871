"""Dense complex linear algebra on SU(N) and its Lie algebra su(N).

Everything works on plain ``numpy`` arrays.  A gate is an N x N complex
array with ``U.conj().T @ U = I`` and ``det U = 1``; an algebra element is a
traceless anti-Hermitian array (a Hamiltonian H enters as ``A = -1j * H``).
Validation helpers raise typed errors instead of silently accepting bad
input (NaN and inf entries fail every check).  Tolerances are the module
constants below; only the unitarity bound ``atol`` of the functions that take
a gate is a keyword, since ``qsl --tol unitary`` sets it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import (
    DegenerateBranchTieError,
    DimensionMismatchError,
    InvalidParameterError,
    InvariantViolationError,
    NoConvergenceError,
    NotNormalError,
)

TWO_PI = 2.0 * np.pi

UNITARY_ATOL = 1e-10
ALGEBRA_ATOL = 1e-10
NORMALITY_ATOL = 1e-8
CLUSTER_ATOL = 1e-8

# Most candidate rows a branch enumeration may build, (2 n_max + 1)**(k - 1)
# for k clusters: n = 8 at n_max = 3 (823,543 rows) runs and n = 10 at
# n_max = 3 (40M rows, about 2.9 GB of indices) is refused.
MAX_BRANCH_ROWS = 1_000_000
MAX_TIE_CANDIDATES = 16  # most candidate branches a DegenerateBranchTieError carries


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def as_square_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array or raise DimensionMismatchError."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def require_special_unitary(u, atol: float = UNITARY_ATOL) -> np.ndarray:
    """Validate U†U = I and det U = 1 (max-abs entrywise, within ``atol``)."""
    u = as_square_matrix(u)
    n = u.shape[0]
    with np.errstate(invalid="ignore"):  # inf entries give a NaN defect, refused below
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if not defect <= atol:
        raise InvariantViolationError(f"matrix is not unitary: max|U†U - I| = {defect:.3e}")
    det = complex(np.linalg.det(u))
    if not abs(det - 1.0) <= atol:
        raise InvariantViolationError(f"matrix is not special unitary: det = {det:.17g}")
    return u


def require_algebra_element(a) -> np.ndarray:
    """Validate A† = -A and tr A = 0 within ALGEBRA_ATOL."""
    a = as_square_matrix(a)
    with np.errstate(invalid="ignore"):  # inf entries give a NaN defect, refused below
        defect = float(np.max(np.abs(a + a.conj().T)))
    if not defect <= ALGEBRA_ATOL:
        raise InvariantViolationError(f"matrix is not anti-Hermitian: max|A + A†| = {defect:.3e}")
    tr = complex(np.trace(a))
    if not abs(tr) <= ALGEBRA_ATOL:
        raise InvariantViolationError(f"matrix is not traceless: tr = {tr:.3e}")
    return a


def is_identity(u) -> bool:
    u = as_square_matrix(u)
    return float(np.max(np.abs(u - np.eye(u.shape[0])))) <= UNITARY_ATOL


def principal_angles(values) -> np.ndarray:
    """Arguments of complex numbers mapped to the half-open interval (-pi, pi].

    ``numpy.angle`` already lands there except for a signed-zero artifact at
    exactly -pi, which we fold to +pi so that an eigenvalue of -1 always gets
    the angle +pi.
    """
    ang = np.angle(np.asarray(values, dtype=np.complex128))
    return np.where(ang <= -np.pi, ang + TWO_PI, ang)


# ---------------------------------------------------------------------------
# Eigendecomposition of normal matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    """Unitary diagonalization M = Q diag(eigenvalues) Q†."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.conj().T


def eig_normal(m) -> SpectralDecomposition:
    """Unitarily diagonalize a normal matrix.

    Uses the complex Schur form, whose orthogonal-iteration backbone keeps the
    eigenvector matrix unitary even for repeated eigenvalues; for a normal
    input the triangular factor is diagonal up to roundoff.  Eigenvalues are
    returned sorted by argument in (-pi, pi], then by modulus, so the ordering
    is deterministic.
    """
    import scipy.linalg  # deferred: importing it is most of the package's import time

    m = as_square_matrix(m)
    with np.errstate(invalid="ignore"):  # inf entries give a NaN defect, refused below
        commut = float(np.max(np.abs(m @ m.conj().T - m.conj().T @ m)))
    if not commut <= NORMALITY_ATOL:
        raise NotNormalError(f"matrix is not normal: max|MM† - M†M| = {commut:.3e}")
    try:
        t, q = scipy.linalg.schur(m, output="complex")
    except np.linalg.LinAlgError as exc:  # zgees hit its iteration cap
        raise NoConvergenceError(f"Schur decomposition did not converge: {exc}") from exc
    eigs = np.diag(t).copy()
    order = np.lexsort((np.abs(eigs), principal_angles(eigs)))
    return SpectralDecomposition(eigenvalues=eigs[order], eigenvectors=q[:, order])


# ---------------------------------------------------------------------------
# Exponential and logarithms
# ---------------------------------------------------------------------------

def expm(a) -> np.ndarray:
    """exp(A) for a traceless anti-Hermitian A, via eigendecomposition of iA.

    The result is special unitary by construction: the eigenvalues of A are
    purely imaginary and sum to zero.
    """
    a = require_algebra_element(a)
    try:
        w, v = np.linalg.eigh(1j * a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc
    return (v * np.exp(-1j * w)) @ v.conj().T


@dataclass(frozen=True)
class LogBranch:
    """One matrix logarithm of a special unitary matrix.

    ``angles`` are the principal eigenangles in (-pi, pi] (eig_normal order),
    ``shifts`` the integer winding numbers, so the log eigenvalues are
    ``1j * (angles + 2*pi*shifts)``, and ``value`` is the assembled traceless
    anti-Hermitian logarithm.
    """

    angles: np.ndarray
    shifts: np.ndarray
    value: np.ndarray

    @property
    def shifted_angles(self) -> np.ndarray:
        return self.angles + TWO_PI * self.shifts

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.value))


@dataclass(frozen=True)
class _EigenClusters:
    """Eigenstructure of a unitary, grouped into degenerate angle clusters."""

    decomposition: SpectralDecomposition
    angles: np.ndarray        # principal angle per eigenvalue, ascending
    base_shifts: np.ndarray   # +1 for members of a wrapped cluster sitting near -pi
    cluster_of: np.ndarray    # cluster id per eigenvalue
    n_clusters: int
    winding: int              # round(sum(angles + 2pi base_shifts) / 2pi)

    def assemble(self, shifts: np.ndarray) -> LogBranch:
        """The branch with these winding shifts: Q diag(1j*phi) Q†."""
        phi = self.angles + TWO_PI * shifts
        q = self.decomposition.eigenvectors
        value = (q * (1j * phi)) @ q.conj().T
        return LogBranch(angles=self.angles.copy(), shifts=shifts, value=value)

    def principal_shifts(self) -> np.ndarray:
        """Shifts of the principal branch (the rule is in ``principal_log``).

        Cluster ids ascend with the angle, so the clusters nearest +pi are the
        highest ids: a winding m > 0 is taken from the top id down, m < 0 from
        the bottom id up.  Raises DegenerateBranchTieError, carrying the
        candidate branches, when the traceless correction would split a
        degenerate cluster.
        """
        m = self.winding
        shifts = self.base_shifts.copy()
        sign = 1 if m > 0 else -1
        remaining = abs(m)
        for cid in range(self.n_clusters)[::-sign]:
            if remaining == 0:
                break
            idx = np.flatnonzero(self.cluster_of == cid)
            if len(idx) > remaining:
                candidates = []
                for chosen in islice(combinations(idx.tolist(), remaining), MAX_TIE_CANDIDATES):
                    alt = shifts.copy()
                    alt[list(chosen)] -= sign
                    candidates.append(self.assemble(alt))
                raise DegenerateBranchTieError(
                    "traceless correction would split a degenerate eigenvalue "
                    f"cluster of multiplicity {len(idx)} (need {remaining}); "
                    "no basis-independent principal logarithm exists",
                    candidates=candidates,
                )
            shifts[idx] -= sign
            remaining -= len(idx)
        return shifts

    def branch_shifts(self, n_max: int) -> np.ndarray:
        """Shift rows of every traceless branch with |n_k| <= n_max.

        Every member's shift base + c must stay in [-n_max, n_max]; the picks
        c (one per cluster) must satisfy sum_c c * size_c = -winding.  Only
        the last cluster carries base shifts (0 on its run at +pi, 1 on its
        wrapped members), so every other cluster ranges over [-n_max, n_max],
        in lexicographic order, and the trace condition fixes the last pick,
        which must land in [-n_max, n_max - max(base)].  Also right for one
        cluster and for an empty window.  A lattice of more than
        MAX_BRANCH_ROWS rows raises InvalidParameterError before anything is
        allocated.
        """
        if n_max < 0:
            raise InvalidParameterError(f"n_max must be >= 0, got {n_max}")
        k = self.n_clusters
        rows = (2 * n_max + 1) ** (k - 1)
        if rows > MAX_BRANCH_ROWS:
            raise InvalidParameterError(
                f"n_max = {n_max} needs {rows} branch lattice rows, "
                f"above the cap of {MAX_BRANCH_ROWS}; lower n_max")
        sizes = np.bincount(self.cluster_of)
        head = np.indices((2 * n_max + 1,) * (k - 1)).reshape(k - 1, rows).T - n_max
        last, rem = np.divmod(-self.winding - head @ sizes[:-1], sizes[-1])
        keep = (rem == 0) & (-n_max <= last) & (last <= n_max - self.base_shifts.max())
        picks = np.column_stack([head[keep], last[keep]])
        return self.base_shifts + picks[:, self.cluster_of]

    def search_shifts(self, n_max: int) -> tuple[np.ndarray, int | None]:
        """Shift rows a minimum-time search scores, the ``branch_shifts(n_max)``
        window plus the principal branch, and the principal row's index (None
        when no principal branch exists; its DegenerateBranchTieError is raised
        when the window is empty too).  Principal shifts lie in {-1, 0, 1} and
        an n_max = 0 window is empty unless it is the principal row, so a
        non-empty window always holds the principal row.
        """
        window = self.branch_shifts(n_max)
        try:
            principal = self.principal_shifts()
        except DegenerateBranchTieError:
            if not len(window):
                raise
            return window, None
        rows = window if len(window) else principal[None]
        return rows, int(np.flatnonzero((rows == principal).all(axis=1))[0])

    def sorted_branches(self, rows) -> list[LogBranch]:
        """Assemble shift rows, ordered by Frobenius norm, then by shifts."""
        branches = [self.assemble(s) for s in rows]
        branches.sort(key=lambda b: (b.frobenius(), tuple(b.shifts.tolist())))
        return branches


def _cluster_eigenangles(dec: SpectralDecomposition) -> _EigenClusters:
    """Group (near-)equal eigenvalues of a unitary into angle clusters.

    ``eig_normal`` returns the angles ascending, so a cluster is a run of
    angles no more than CLUSTER_ATOL apart and ids ascend with the angle.
    Clustering is circular: angles just above -pi and just below +pi belong to
    the same eigenvalue (-1-ish) and are merged, with a base winding of +1
    assigned to the members on the -pi side so the whole cluster behaves as if
    it sat at +pi.  The merged cluster keeps the last id.
    """
    theta = principal_angles(dec.eigenvalues)
    cluster_of = np.concatenate(([0], np.cumsum(np.diff(theta) > CLUSTER_ATOL)))
    base = np.zeros(len(theta), dtype=int)
    if cluster_of[-1] > 0 and (theta[0] + TWO_PI) - theta[-1] <= CLUSTER_ATOL:
        # wrap-around: the run at -pi joins the top cluster, ids drop by one
        low = cluster_of == 0
        base[low] = 1
        cluster_of = np.where(low, cluster_of[-1], cluster_of) - 1
    return _EigenClusters(
        decomposition=dec,
        angles=theta,
        base_shifts=base,
        cluster_of=cluster_of,
        n_clusters=int(cluster_of[-1]) + 1,
        winding=int(np.rint((theta + TWO_PI * base).sum() / TWO_PI)),
    )


def _eigen_clusters(u, atol: float = UNITARY_ATOL) -> _EigenClusters:
    """Validate a special unitary and cluster its eigenangles."""
    u = require_special_unitary(u, atol=atol)
    return _cluster_eigenangles(eig_normal(u))


def principal_log(u, atol: float = UNITARY_ATOL) -> LogBranch:
    """Principal-branch matrix logarithm of a special unitary matrix.

    All eigenangles are taken in (-pi, pi].  Their sum is 2*pi*m for an
    integer m; to land in the traceless algebra, 2*pi is subtracted from the
    m angles closest to +pi (added to those closest to -pi when m < 0).
    Repeated eigenvalues must share a winding number - if the correction
    would split a degenerate cluster, the choice is basis-dependent and
    DegenerateBranchTieError is raised carrying every candidate branch.
    """
    clusters = _eigen_clusters(u, atol)
    return clusters.assemble(clusters.principal_shifts())


def log_branches(u, n_max: int, atol: float = UNITARY_ATOL) -> list[LogBranch]:
    """All traceless logarithm branches of U with winding shifts |n_k| <= n_max.

    A branch is a choice of one integer winding per eigenvalue cluster
    (repeated eigenvalues share a winding so the result does not depend on the
    arbitrary basis inside a degenerate eigenspace), subject to the traceless
    constraint that the shifted angles sum to zero.  The list is sorted by
    Frobenius norm of the branch value, ties broken by the shift vector.
    """
    clusters = _eigen_clusters(u, atol)
    return clusters.sorted_branches(clusters.branch_shifts(n_max))


# ---------------------------------------------------------------------------
# Algebra structure
# ---------------------------------------------------------------------------

def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA.  su(N) is closed under this bracket."""
    a = as_square_matrix(a)
    b = as_square_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


@functools.lru_cache(maxsize=None)
def su_basis(n: int) -> np.ndarray:
    """Orthonormal basis of su(n) under the inner product <A,B> = -tr(AB).

    Returns an array of shape (n**2 - 1, n, n) of traceless anti-Hermitian
    matrices: i/sqrt(2) times the generalized Gell-Mann family, enumerated as
    symmetric then antisymmetric off-diagonal pairs (row-major), followed by
    the diagonal members.
    """
    if n < 2:
        raise InvalidParameterError(f"su(n) basis needs n >= 2, got {n}")
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(sym)
            asym = np.zeros((n, n), dtype=np.complex128)
            asym[j, k] = -1j
            asym[k, j] = 1j
            mats.append(asym)
    for d in range(1, n):
        diag = np.zeros((n, n), dtype=np.complex128)
        norm = np.sqrt(2.0 / (d * (d + 1)))
        for j in range(d):
            diag[j, j] = norm
        diag[d, d] = -d * norm
        mats.append(diag)
    basis = (1j / np.sqrt(2.0)) * np.stack(mats)
    basis.setflags(write=False)
    return basis


def basis_coords(a) -> np.ndarray:
    """Real coordinates of an algebra element in the su_basis chart, or one
    row of them per element of an (m, n, n) stack."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 3:
        a = as_square_matrix(a)
    return -np.einsum("kij,...ji->...k", su_basis(a.shape[-1]), a).real


def from_coords(coords, n: int) -> np.ndarray:
    """Assemble an algebra element from su_basis coordinates, or one element
    per row of an (m, n**2 - 1) array."""
    coords = np.asarray(coords, dtype=float)
    k = n * n - 1
    if coords.shape[-1:] != (k,) or coords.ndim > 2:
        raise DimensionMismatchError(
            f"expected {k} coordinates for su({n}), got shape {coords.shape}")
    # a vector-matrix product per element: one matrix product over the whole
    # stack would round differently from a single element
    basis = su_basis(n).reshape(k, n * n)
    return (coords[..., None, :] @ basis).reshape(coords.shape[:-1] + (n, n))


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_su(n: int, seed) -> np.ndarray:
    """Haar-distributed special unitary matrix, deterministic for a fixed seed.

    The stream is numpy's default_rng (PCG64).  A complex Ginibre sample is
    QR-factorized, the R diagonal phases are absorbed to make the unitary
    factor Haar on U(n), and a global phase det**(-1/n) projects to SU(n).
    ``seed`` may also be a numpy Generator to draw from an existing stream.
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    return _haar_from_normals(_as_rng(seed).standard_normal((1, 2, n, n)))[0]


def _haar_from_normals(g: np.ndarray) -> np.ndarray:
    """``haar_su``'s map from its draws to SU(n), one gate per (real part,
    imaginary part) pair of n x n standard normals in the (m, 2, n, n) stack
    ``g``; each gate has the bits ``haar_su`` gives it from the same draws."""
    n = g.shape[-1]
    z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    # scalar powers: on an array, ** 0.5 is a square root, which rounds differently
    return q / np.array([det ** (1.0 / n) for det in np.linalg.det(q)])[:, None, None]


def random_algebra_element(n: int, seed) -> np.ndarray:
    """Random su(n) element with standard normal coordinates."""
    return from_coords(_as_rng(seed).standard_normal(n * n - 1), n)
