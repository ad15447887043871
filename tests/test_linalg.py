"""Foundation tests: eigendecomposition, exp/log, branches, basis, sampling."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslkit import (
    DegenerateBranchTieError,
    DimensionMismatchError,
    GroundShiftedMoment,
    InvalidParameterError,
    InvariantViolationError,
    NotNormalError,
    Schatten,
    basis_coords,
    basis_state,
    check_ad_invariance,
    check_homogeneity,
    commutator,
    conj_min_time,
    eig_normal,
    expm,
    from_coords,
    gate_geodesic_check,
    gate_time,
    haar_su,
    log_branches,
    principal_log,
    random_algebra_element,
    require_algebra_element,
    require_special_unitary,
    sample_generic_probe,
    su_basis,
)
from qslkit.gates import identity, orthogonalizer, qft
from qslkit.linalg import MAX_BRANCH_ROWS, _eigen_clusters

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
LHAT = np.array([[0, -1j], [-1j, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# eig_normal
# ---------------------------------------------------------------------------

def test_eig_diagonal_matrix():
    dec = eig_normal(np.diag([1.0, -1.0]).astype(complex))
    assert sorted(dec.eigenvalues.real.tolist()) == [-1.0, 1.0]
    # eigenvectors are permuted identity columns
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_eig_sigma_x():
    dec = eig_normal(SX)
    # sorted by argument: +1 (angle 0) before -1 (angle pi)
    assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert abs(np.vdot(dec.eigenvectors[:, 0], plus)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(dec.eigenvectors[:, 1], minus)) == pytest.approx(1.0, abs=1e-12)


def test_eig_reconstructs_haar_unitary():
    u = haar_su(4, seed=11)
    dec = eig_normal(u)
    err = np.linalg.norm(dec.reconstruct() - u)
    assert err < 1e-9 * (1 + np.linalg.norm(u))
    assert np.max(np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(4))) < 1e-9


def test_eig_rejects_non_normal():
    with pytest.raises(NotNormalError):
        eig_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_eig_rejects_non_finite(entry):
    with pytest.raises(NotNormalError):
        eig_normal(np.array([[entry, 0.0], [0.0, 1.0]]))


def test_eig_orthonormal_on_degenerate_spectrum():
    # eigenvalue 1 with multiplicity 3, in a scrambled basis
    v = haar_su(4, seed=5)
    u = v @ np.diag([1, 1, 1, -1]).astype(complex) @ v.conj().T
    dec = eig_normal(u)
    assert np.max(np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(4))) < 1e-9
    assert np.linalg.norm(dec.reconstruct() - u) < 1e-9


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------

def test_expm_zero_is_identity():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_closed_form_2x2():
    # L^2 = -I, so exp(t L) = cos(t) I + sin(t) L; at t = pi/2 this is L itself
    assert np.max(np.abs(expm((np.pi / 2) * LHAT) - LHAT)) < 1e-12


def test_expm_semigroup():
    rng = np.random.default_rng(0)
    a = random_algebra_element(3, rng)
    u1 = expm(a)
    assert np.max(np.abs(expm(2 * a) - u1 @ u1)) < 1e-9


def test_expm_rejects_non_algebra_input():
    with pytest.raises(InvariantViolationError):
        expm(np.eye(2))


def test_expm_takes_a_stack_and_checks_each_matrix():
    rng = np.random.default_rng(3)
    stack = np.stack([random_algebra_element(3, rng) for _ in range(5)])
    out = expm(stack)
    for a, u in zip(stack, out):
        assert np.max(np.abs(u - expm(a))) <= 1e-14
    bad = stack.copy()
    bad[3] += 1e-6j * np.eye(3)  # anti-Hermitian but not traceless
    with pytest.raises(InvariantViolationError, match="traceless: tr = 0.000e"):
        expm(bad)
    bad[3] = np.eye(3)
    with pytest.raises(InvariantViolationError, match="anti-Hermitian"):
        expm(bad)
    with pytest.raises(DimensionMismatchError):
        expm(np.zeros((2, 2, 3)))


@pytest.mark.parametrize("entry,pos", [(np.nan, (0, 0)), (np.nan, (0, 1)),
                                       (np.inf, (1, 1)), (complex(0, np.nan), (1, 0))])
def test_require_special_unitary_rejects_non_finite(entry, pos):
    u = np.eye(2, dtype=complex)
    u[pos] = entry
    with pytest.raises(InvariantViolationError):
        require_special_unitary(u)


@pytest.mark.parametrize("entry,pos", [(np.nan, (0, 0)), (np.nan, (0, 1)),
                                       (np.inf, (1, 1)), (complex(0, np.inf), (0, 0))])
def test_require_algebra_element_rejects_non_finite(entry, pos):
    a = -1j * (np.pi / 2) * SX
    a[pos] = entry
    with pytest.raises(InvariantViolationError):
        require_algebra_element(a)


# ---------------------------------------------------------------------------
# principal_log
# ---------------------------------------------------------------------------

def test_principal_log_identity():
    branch = principal_log(np.eye(3, dtype=complex))
    assert np.max(np.abs(branch.value)) < 1e-12
    assert np.all(branch.shifts == 0)


def test_principal_log_orthogonalizer_block():
    branch = principal_log(orthogonalizer(np.pi, 2))
    assert np.max(np.abs(branch.value - (np.pi / 2) * LHAT)) < 1e-12


def test_principal_log_orthogonalizer_padded():
    # the identity block contributes a zero block to the log
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = (np.pi / 2) * LHAT
    branch = principal_log(orthogonalizer(np.pi, 4))
    assert np.max(np.abs(branch.value - expected)) < 1e-12


def test_principal_log_diag():
    branch = principal_log(np.diag([1j, -1j]))
    assert np.max(np.abs(branch.value - np.diag([1j * np.pi / 2, -1j * np.pi / 2]))) < 1e-12


def test_principal_log_roundtrip_random():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        for _ in range(5):
            a = random_algebra_element(n, rng)
            w = np.linalg.eigvalsh(1j * a)
            a *= (np.pi - 0.1) / max(np.max(np.abs(w)), 1e-12)
            branch = principal_log(expm(a))
            assert np.max(np.abs(branch.value - a)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_principal_log_exponentiates_back_to_the_gate(n, seed):
    u = haar_su(n, seed)
    assert np.max(np.abs(expm(principal_log(u).value) - u)) <= 1e-12


def test_principal_log_degenerate_tie_names_the_split_cluster():
    with pytest.raises(DegenerateBranchTieError, match=r"multiplicity 2 \(need 1\)"):
        principal_log(-np.eye(2, dtype=complex))


def test_principal_log_traceless_correction_distinct_angles():
    # eigenangle sum 2*pi with distinct angles: the angle closest to +pi
    # gets wound down and exp still reconstructs the gate
    u = np.diag(np.exp(1j * np.array([np.pi, 0.9 * np.pi, 0.1 * np.pi])))
    branch = principal_log(u)
    assert abs(np.trace(branch.value)) < 1e-9
    assert sorted(branch.shifts.tolist()) == [-1, 0, 0]
    assert np.max(np.abs(expm(branch.value) - u)) < 1e-9


# ---------------------------------------------------------------------------
# log_branches
# ---------------------------------------------------------------------------

def test_branches_identity_nmax0():
    branches = log_branches(np.eye(3, dtype=complex), 0)
    assert len(branches) == 1
    assert np.max(np.abs(branches[0].value)) < 1e-12


def test_branches_diag_nmax1():
    branches = log_branches(np.diag([1j, -1j]), 1)
    shifts = [tuple(b.shifts.tolist()) for b in branches]
    assert shifts == [(0, 0), (1, -1), (-1, 1)]  # sorted by Frobenius norm
    norms = [b.frobenius for b in branches]
    assert norms == sorted(norms)


def test_branches_match_principal_log():
    u = haar_su(3, seed=3)
    branches = log_branches(u, 0)
    assert len(branches) == 1
    principal = principal_log(u)
    assert np.max(np.abs(branches[0].value - principal.value)) < 1e-12


# named gates with degenerate clusters: qft(6) has repeated eigenvalues, and
# the 5x5 diagonal has a cluster that straddles the -1 cut (angles just
# below +pi and just above -pi) whose window edge three other clusters can
# balance
NAMED_GATES = {
    "qft6": lambda: qft(6),
    "wrap5": lambda: np.diag(np.exp(1j * np.array(
        [np.pi - 1e-12, -np.pi + 1e-12, 0.3, -0.5, 0.2]))),
}


@pytest.mark.parametrize("n,n_max,seed", [(2, 1, 0), (2, 3, 1), (3, 2, 2), (3, 3, 3),
                                          ("qft6", 2, None), ("wrap5", 2, None)])
def test_branch_count_matches_independent_enumeration(n, n_max, seed):
    # independent oracle: integer vectors in the box whose shifted raw
    # eigenangles sum to zero and stay equal on equal eigenvalues, computed
    # from raw eigenvalues rather than the branch machinery
    u = haar_su(n, seed=seed) if seed is not None else NAMED_GATES[n]()
    theta = np.angle(np.linalg.eigvals(u))
    box = itertools.product(range(-n_max, n_max + 1), repeat=len(theta))
    phi = theta + 2 * np.pi * np.array(list(box))
    keep = np.abs(phi.sum(axis=1)) < 1e-6
    eigs = np.exp(1j * theta)
    for j, k in itertools.combinations(range(len(theta)), 2):
        if abs(eigs[j] - eigs[k]) <= 1e-8:
            keep &= np.abs(phi[:, j] - phi[:, k]) < 1e-6
    branches = log_branches(u, n_max)
    assert len(branches) == int(keep.sum()) > 0
    for b in branches:
        assert np.max(np.abs(expm(b.value) - u)) < 1e-9
        assert abs(b.shifted_angles.sum()) < 1e-9


def lattice_reference(clusters, n_max):
    """Shift rows from itertools.product over every cluster's window."""
    k = clusters.n_clusters
    base = [clusters.base_shifts[np.flatnonzero(clusters.cluster_of == c)] for c in range(k)]
    windows = [range(-n_max - b.min(), n_max - b.max() + 1) for b in base]
    sizes = [len(b) for b in base]
    rows = [clusters.base_shifts + np.array(picks)[clusters.cluster_of]
            for picks in itertools.product(*windows)
            if sum(c * size for c, size in zip(picks, sizes)) == -clusters.winding]
    return np.array(rows, dtype=int).reshape(len(rows), len(clusters.angles))


@pytest.mark.parametrize("gate,n_max", [
    ("identity", 0), ("identity", 1), ("identity", 2),
    ("wrap5", 0), ("wrap5", 1), ("qft6", 2), ("haar4", 2), ("minus_identity", 2)])
def test_branch_shift_lattice_matches_product(gate, n_max):
    # one cluster (the identity), an empty window (the wrapped cluster of
    # wrap5 at n_max = 0), degenerate clusters and a generic gate
    u = {"identity": lambda: np.eye(3, dtype=complex),
         "minus_identity": lambda: -np.eye(2, dtype=complex),
         "haar4": lambda: haar_su(4, seed=8), **NAMED_GATES}[gate]()
    clusters = _eigen_clusters(u)
    got = clusters.branch_shifts(n_max)
    want = lattice_reference(clusters, n_max)
    assert got.shape == want.shape
    assert np.array_equal(got, want)  # same rows in the same order
    if gate == "identity":
        assert clusters.n_clusters == 1 and got.tolist() == [[0, 0, 0]]
    if gate == "wrap5" and n_max == 0:
        assert got.shape == (0, 5) and log_branches(u, 0) == []


def principal_shifts_by_rank(clusters):
    """The principal rule with clusters ranked by their first member's
    effective angle, nearest +pi first for a winding m > 0 and nearest -pi
    first for m < 0: the shift row, or, where the correction would split a
    cluster, (its multiplicity, the shifts it needs)."""
    m = clusters.winding
    shifts = clusters.base_shifts.copy()
    sign = 1 if m > 0 else -1
    effective = clusters.angles + 2 * np.pi * clusters.base_shifts
    ranked = sorted(range(clusters.n_clusters),
                    key=lambda c: -sign * effective[clusters.cluster_of == c][0])
    remaining = abs(m)
    for c in ranked:
        idx = np.flatnonzero(clusters.cluster_of == c)
        if remaining == 0:
            break
        if len(idx) > remaining:
            return len(idx), remaining
        shifts[idx] -= sign
        remaining -= len(idx)
    return shifts


def closing_angle(angles):
    """The eigenangle that completes ``angles`` to a special unitary."""
    return math.remainder(-sum(angles), 2 * np.pi)


@st.composite
def cluster_gates(draw):
    """Haar gates at n = 2-7, and constructed spectra: a degenerate run that
    straddles the -1 cut, -I in SU(2), qft:6 and wrap5, each in its own
    eigenbasis or a Haar-rotated one."""
    kind = draw(st.sampled_from(["haar", "straddle", "named"]))
    if kind == "haar":
        return haar_su(draw(st.integers(2, 7)), draw(st.integers(0, 2**32 - 1)))
    if kind == "named":
        return draw(st.sampled_from([lambda: -np.eye(2, dtype=complex), *NAMED_GATES.values()]))()
    eps = draw(st.sampled_from([0.0, 1e-12, 1e-10]))
    angles = ([np.pi - eps] * draw(st.integers(1, 3)) + [-np.pi + eps] * draw(st.integers(1, 3))
              + draw(st.lists(st.sampled_from([0.3, -0.3, 1.2, 2.9, -2.9]), max_size=3)))
    d = np.diag(np.exp(1j * np.array(angles + [closing_angle(angles)])))
    if draw(st.booleans()):
        v = haar_su(len(d), draw(st.integers(0, 2**32 - 1)))
        d = v @ d @ v.conj().T
    return d


@settings(max_examples=150, deadline=None)
@given(cluster_gates())
def test_clusters_are_runs_of_the_sorted_spectrum(u):
    # the facts the branch layer is built on: eig_normal sorts the angles,
    # so clusters are runs with ascending ids, the wrapped run at -pi joins
    # the top cluster, and the principal rule walks the ids from the top
    # (or the bottom) in the order a ranking by angle gives
    c = _eigen_clusters(u)
    top = c.n_clusters - 1
    wrapped = c.base_shifts == 1
    assert np.all(np.diff(c.angles) >= 0)
    assert set(np.unique(c.base_shifts).tolist()) <= {0, 1}
    assert np.all(c.cluster_of[wrapped] == top) and np.all(c.base_shifts[c.cluster_of != top] == 0)
    assert c.cluster_of[~wrapped][0] == 0 and c.cluster_of[-1] == top
    assert set(np.diff(c.cluster_of[~wrapped]).tolist()) <= {0, 1}
    want = principal_shifts_by_rank(c)
    if isinstance(want, np.ndarray):
        assert np.array_equal(c.principal_shifts(), want)
        return
    multiplicity, need = want
    with pytest.raises(DegenerateBranchTieError,
                       match=f"multiplicity {multiplicity} \\(need {need}\\)"):
        c.principal_shifts()


def test_branch_lattice_above_the_cap_is_refused_before_allocating():
    # 11 distinct eigenvalues at n_max = 3: 7**10 lattice rows, 22 GB of
    # indices; n = 8 at n_max = 3 (7**7 rows) stays under the cap
    assert 7 ** 7 <= MAX_BRANCH_ROWS < 7 ** 10
    clusters = _eigen_clusters(np.diag(np.exp(0.1j * (np.arange(11) - 5))))
    assert clusters.n_clusters == 11
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError,
                           match=f"n_max = 3 needs {7 ** 10} branch lattice rows, "
                                 f"above the cap of {MAX_BRANCH_ROWS}"):
            clusters.branch_shifts(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def per_row_branches(clusters, rows):
    """The reference for ``_EigenClusters.branches``: one product and one
    ``np.linalg.norm`` per row, then a sort on (norm, shifts)."""
    q = clusters.eigenvectors
    out = []
    for s in rows:
        value = (q * (1j * (clusters.angles + 2 * np.pi * s))) @ q.conj().T
        out.append((float(np.linalg.norm(value)), tuple(s.tolist()), value))
    return sorted(out, key=lambda r: r[:2])


BRANCH_GATES = {
    **{f"haar{n}": (lambda n=n: haar_su(n, seed=60 + n)) for n in range(2, 7)},
    **{f"qft{n}": (lambda n=n: qft(n)) for n in range(2, 9)},
    "orthogonalizer_pi_2": lambda: orthogonalizer(np.pi, 2),
    "orthogonalizer_pi_4": lambda: orthogonalizer(np.pi, 4),
    "orthogonalizer_0.7_3": lambda: orthogonalizer(0.7, 3),
    "minus_identity4": lambda: -np.eye(4, dtype=complex),
    **NAMED_GATES,
}


@pytest.mark.parametrize("gate", sorted(BRANCH_GATES))
def test_stacked_branches_match_the_per_row_reference(gate):
    # values, norms and order bit for bit: the windows at n_max 0-2 (empty
    # for -I in SU(4), and for wrap5 at n_max 0, whose winding is nonzero),
    # a single row, and up to n = 4 the whole {-1, 0, 1} cube, whose rows
    # are not traceless and tie in norm
    clusters = _eigen_clusters(BRANCH_GATES[gate]())
    n = len(clusters.angles)
    sets = [clusters.branch_shifts(n_max) for n_max in range(3)]
    sets += [rows[:1] for rows in sets if len(rows)]
    if n <= 4:
        sets.append(np.array(list(itertools.product((-1, 0, 1), repeat=n))))
    if gate in ("minus_identity4", "wrap5"):
        assert clusters.winding != 0 and sets[0].shape == (0, n)
    for rows in sets:
        got, values, norms = clusters.branches(rows)
        want = per_row_branches(clusters, rows)
        assert (got.shape, values.shape, norms.shape) == (rows.shape, (len(rows), n, n),
                                                         (len(rows),))
        assert [tuple(r) for r in got.tolist()] == [w[1] for w in want]
        assert norms.tolist() == [w[0] for w in want]
        assert all(v.tobytes() == w[2].tobytes() for v, w in zip(values, want))


def test_returned_branches_own_their_arrays():
    # a kept branch must not hold the whole stacked pass alive
    from qslkit import Schatten, gate_time
    gate = haar_su(4, np.random.default_rng(3))
    branches = log_branches(gate, 1) + [gate_time(Schatten(p=2), 1.0, gate, n_max=1).branch]
    assert len(branches) > 2
    assert all(b.value.base is None and b.shifts.base is None for b in branches)


def test_branches_empty_for_minus_identity():
    # -I in SU(2) has no cluster-coherent traceless branch
    assert log_branches(-np.eye(2, dtype=complex), 3) == []


# ---------------------------------------------------------------------------
# commutator and basis
# ---------------------------------------------------------------------------

def test_commutator_self_is_zero():
    a = random_algebra_element(3, np.random.default_rng(1))
    assert np.max(np.abs(commutator(a, a))) < 1e-14


def test_commutator_su2_convention():
    got = commutator(0.5j * SX, 0.5j * SY)
    assert np.max(np.abs(got - (-0.5j * SZ))) < 1e-14


def test_commutator_entrywise_oracle():
    rng = np.random.default_rng(8)
    a = random_algebra_element(3, rng)
    b = random_algebra_element(3, rng)
    oracle = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                oracle[i, j] += a[i, k] * b[k, j] - b[i, k] * a[k, j]
    got = commutator(a, b)
    assert np.max(np.abs(got - oracle)) < 1e-12
    require_algebra_element(got)  # closure in su(3)


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_basis_orthonormal(n):
    basis = su_basis(n)
    assert basis.shape == (n * n - 1, n, n)
    gram = -np.einsum("aij,bji->ab", basis, basis).real
    assert np.max(np.abs(gram - np.eye(n * n - 1))) < 1e-12
    for t in basis:
        require_algebra_element(t)


def test_su_basis_span_roundtrip():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        a = random_algebra_element(n, rng)
        coords = basis_coords(a)
        assert np.max(np.abs(from_coords(coords, n) - a)) < 1e-10


# ---------------------------------------------------------------------------
# haar_su
# ---------------------------------------------------------------------------

def test_haar_deterministic():
    assert np.array_equal(haar_su(3, seed=123), haar_su(3, seed=123))


@pytest.mark.parametrize("seed", [-1, 1.5, "x"])
def test_haar_refuses_a_seed_numpy_refuses(seed):
    message = f"seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(InvalidParameterError, match=message):
        haar_su(2, seed)
    with pytest.raises(InvalidParameterError, match=message):
        check_homogeneity(Schatten(p=2), 2, seed=seed)


# (entry point, its count parameter, the least count) for each count it takes
COUNT_ENTRIES = {
    "gate_time": ("n_max", 0, lambda u, v: gate_time(Schatten(p=2), 1.0, u, n_max=v)),
    "log_branches": ("n_max", 0, lambda u, v: log_branches(u, v)),
    "gate_geodesic_check": ("branch_sweep", 0,
                            lambda u, v: gate_geodesic_check(Schatten(p=2), u, branch_sweep=v)),
    "check_ad_invariance": ("samples", 1, lambda u, v: check_ad_invariance(Schatten(p=2), 3,
                                                                           samples=v)),
    "check_homogeneity": ("trials", 1, lambda u, v: check_homogeneity(Schatten(p=2), 3,
                                                                      trials=v)),
    # a closed-form tree, which runs no search
    "conj_min_time": ("restarts", 1, lambda u, v: conj_min_time(Schatten(p=2), 1.0, u,
                                                                restarts=v)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_counts_are_integers_at_or_above_their_least(entry):
    # one rule: a count below its least, or one that is not an integer, raises
    # InvalidParameterError; numpy integers pass
    name, low, call = COUNT_ENTRIES[entry]
    u = haar_su(3, seed=21)
    with pytest.raises(InvalidParameterError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        call(u, low - 1)
    with pytest.raises(InvalidParameterError,
                       match=f"^{name} must be an integer >= {low}, got {low + 0.5}$"):
        call(u, low + 0.5)
    call(u, np.int64(low))


# (its dimension or index parameter, the least value) for each entry point
# that takes one
DIMENSION_ENTRIES = {
    "su_basis": ("n", 2, su_basis),
    "haar_su": ("n", 2, lambda v: haar_su(v, 0)),
    "random_algebra_element": ("n", 2, lambda v: random_algebra_element(v, 0)),
    "identity": ("n", 1, identity),
    "orthogonalizer": ("n", 2, lambda v: orthogonalizer(math.pi, v)),
    "qft": ("n", 2, qft),
    "basis_state": ("n", 1, basis_state),
    "basis_state-k": ("k", 0, lambda v: basis_state(3, v)),
    "check_ad_invariance": ("n", 2, lambda v: check_ad_invariance(Schatten(p=2), v, samples=2)),
    "check_homogeneity": ("n", 2, lambda v: check_homogeneity(Schatten(p=2), v, trials=2)),
    "sample_generic_probe": ("n", 2, lambda v: sample_generic_probe(Schatten(p=2), v, 0)),
}


@pytest.mark.parametrize("entry", DIMENSION_ENTRIES)
def test_dimensions_are_integers_at_or_above_their_least(entry):
    # the count rule again: qft(2.5) gave a 3 x 3 matrix that is not unitary,
    # the checks at n = 0 a ZeroDivisionError or a numpy ValueError, and
    # the others a TypeError or an IndexError
    name, low, call = DIMENSION_ENTRIES[entry]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        call(low - 1)
    with pytest.raises(InvalidParameterError,
                       match=f"^{name} must be an integer >= {low}, got {low + 0.5}$"):
        call(low + 0.5)
    call(np.int64(low))


def test_homogeneity_refuses_a_constraint_of_another_dimension():
    # a numpy ValueError from the moment's matrix product before
    with pytest.raises(DimensionMismatchError, match="expects dimension 3, got dimension 4"):
        check_homogeneity(GroundShiftedMoment(p=1, psi=basis_state(3)), 4)


def test_haar_invariants():
    for seed in range(5):
        u = haar_su(4, seed=seed)
        require_special_unitary(u)


def test_haar_first_entry_moment():
    # Haar moment: E|U_00|^2 = 1/N, unchanged by the det-fixing global phase
    rng = np.random.default_rng(99)
    vals = [abs(haar_su(2, rng)[0, 0]) ** 2 for _ in range(10_000)]
    assert abs(np.mean(vals) - 0.5) < 0.02


# ---------------------------------------------------------------------------
# module-level invariants
# ---------------------------------------------------------------------------

def test_every_branch_exponentiates_back():
    for n, seed in ((2, 31), (3, 32)):
        u = haar_su(n, seed=seed)
        for b in log_branches(u, 2):
            assert np.max(np.abs(expm(b.value) - u)) < 1e-9
