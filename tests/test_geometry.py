"""Invariance classification, fundamental tensor, geodesic checks."""

import numpy as np
import pytest

from qslkit import (
    DegenerateBranchTieError,
    DimensionMismatchError,
    EnergyUncertainty,
    GroundShiftedMoment,
    IdentityGateError,
    InvalidParameterError,
    InvariantViolationError,
    Max,
    PowerMean,
    Randers,
    Schatten,
    SpectralRange,
    StepUnderflowError,
    Sum,
    TensorProbe,
    basis_coords,
    basis_state,
    check_ad_invariance,
    commutator,
    conj_min_time,
    evaluate,
    expm,
    from_coords,
    fundamental_tensor,
    gate_geodesic_check,
    geodesic_vector_check,
    haar_su,
    kink_margin,
    random_algebra_element,
    sample_generic_probe,
    su_basis,
)
from qslkit.gates import orthogonalizer
from qslkit.geometry import CELL_ALL_GATES, GENERIC_MARGIN, classification_line


def small_randers(n=2, drift=0.2):
    d = n * n - 1
    b = np.zeros(d)
    b[0] = drift
    return Randers(metric=np.eye(d), oneform=b)


# ---------------------------------------------------------------------------
# conjugation invariance
# ---------------------------------------------------------------------------

def test_schatten_is_ad_invariant():
    rep = check_ad_invariance(Schatten(p=2), 3, samples=100, seed=0)
    assert rep.ad_invariant
    assert rep.max_deviation < 1e-12
    assert rep.is_norm
    assert CELL_ALL_GATES in rep.table_cell


def test_spectral_range_is_ad_invariant():
    rep = check_ad_invariance(SpectralRange(), 3, samples=100, seed=1)
    assert rep.ad_invariant
    assert rep.is_norm


def test_ground_moment_not_invariant_with_witness():
    # explicit witness: V rotates |0> onto the ground eigenvector of sigma_x
    func = GroundShiftedMoment(p=1, psi=basis_state(2))
    a = -1j * (np.pi / 2) * np.array([[0, 1], [1, 0]], dtype=complex)
    v = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
    before = evaluate(func, a)
    after = evaluate(func, v @ a @ v.conj().T)
    assert before == pytest.approx(np.pi / 2, abs=1e-12)
    assert after == pytest.approx(0.0, abs=1e-12)
    rep = check_ad_invariance(func, 2, samples=100, seed=2)
    assert not rep.ad_invariant
    assert not rep.is_norm  # fails absolute homogeneity


def test_uncertainty_not_invariant_but_sampled_norm_axioms_hold():
    rep = check_ad_invariance(EnergyUncertainty(psi=basis_state(2)), 2, samples=100, seed=3)
    assert not rep.ad_invariant
    # triangle inequality and evenness hold in a fixed state; definiteness
    # (which fails on eigenvectors) is deliberately not sampled
    assert rep.is_norm


def test_randers_with_drift_not_invariant():
    rep = check_ad_invariance(small_randers(), 2, samples=100, seed=4)
    assert not rep.ad_invariant
    assert not rep.is_norm


def test_invariance_deterministic_for_fixed_seed():
    r1 = check_ad_invariance(Schatten(p=1), 3, samples=50, seed=7)
    r2 = check_ad_invariance(Schatten(p=1), 3, samples=50, seed=7)
    assert r1 == r2


def test_invariance_reports_integral_seeds():
    rep = check_ad_invariance(Schatten(p=2), 3, samples=5, seed=np.int64(5))
    assert rep.seed == 5 and type(rep.seed) is int
    assert rep == check_ad_invariance(Schatten(p=2), 3, samples=5, seed=5)
    assert check_ad_invariance(Schatten(p=2), 3, samples=5,
                               seed=np.random.default_rng(5)).seed == -1


def test_classification_line_matches_summary_table():
    rep = check_ad_invariance(Schatten(p=2), 2, samples=20, seed=0)
    assert classification_line(rep) == (
        "Ad-invariant: yes — Constant Hamiltonian optimal for all gates")


# ---------------------------------------------------------------------------
# fundamental tensor
# ---------------------------------------------------------------------------

def test_tensor_frobenius_closed_form():
    # F**2 is exactly quadratic for the 2-norm: g_X(u, v) = Re tr(u† v)
    rng = np.random.default_rng(11)
    x = random_algebra_element(3, rng)
    u = random_algebra_element(3, rng)
    v = random_algebra_element(3, rng)
    g = fundamental_tensor(Schatten(p=2), TensorProbe(base=x), u, v)
    exact = float(np.trace(u.conj().T @ v).real)
    assert abs(g - exact) < 1e-6


def test_tensor_randers_closed_form():
    rng = np.random.default_rng(12)
    w = np.diag(rng.uniform(0.5, 2.0, size=8))
    func = Randers(metric=w, oneform=np.zeros(8))
    x = random_algebra_element(3, rng)
    u = random_algebra_element(3, rng)
    v = random_algebra_element(3, rng)
    g = fundamental_tensor(func, TensorProbe(base=x), u, v)
    exact = float(basis_coords(u) @ w @ basis_coords(v))
    assert abs(g - exact) < 1e-6


def test_tensor_positive_definite_on_sampled_directions():
    rng = np.random.default_rng(13)
    b = np.zeros(3)
    b[1] = 0.4
    func = Randers(metric=np.eye(3), oneform=b)
    x = sample_generic_probe(func, 2, rng)
    probe = TensorProbe(base=x)
    for _ in range(10):
        u = random_algebra_element(2, rng)
        assert fundamental_tensor(func, probe, u, u) > 0.0


def test_tensor_symmetric():
    rng = np.random.default_rng(14)
    x = random_algebra_element(2, rng)
    u = random_algebra_element(2, rng)
    v = random_algebra_element(2, rng)
    probe = TensorProbe(base=x)
    func = Sum(children=(Schatten(p=2), SpectralRange()))
    guu = fundamental_tensor(func, probe, u, u)
    g1 = fundamental_tensor(func, probe, u, v)
    g2 = fundamental_tensor(func, probe, v, u)
    assert abs(g1 - g2) < 1e-9 * (1 + abs(guu))


def test_tensor_scale_invariant_in_base():
    # the fundamental tensor of a degree-1 functional is degree 0 in X
    rng = np.random.default_rng(15)
    func = Schatten(p=3)
    x = sample_generic_probe(func, 2, rng)
    u = random_algebra_element(2, rng)
    v = random_algebra_element(2, rng)
    g1 = fundamental_tensor(func, TensorProbe(base=x), u, v)
    for lam in (0.5, 3.0):
        g2 = fundamental_tensor(func, TensorProbe(base=lam * x), u, v)
        assert abs(g1 - g2) < 1e-5 * (1 + abs(g1))


def test_tensor_rejects_vanishing_base():
    probe = TensorProbe(base=np.zeros((2, 2)))
    u = random_algebra_element(2, np.random.default_rng(0))
    with pytest.raises(InvalidParameterError):
        fundamental_tensor(Schatten(p=2), probe, u, u)


def test_tensor_step_underflow():
    rng = np.random.default_rng(16)
    x = random_algebra_element(2, rng)
    u = random_algebra_element(2, rng)
    with pytest.raises(StepUnderflowError):
        fundamental_tensor(Schatten(p=2), TensorProbe(base=x, step=1e-16), u, u)


# ---------------------------------------------------------------------------
# geodesic checks
# ---------------------------------------------------------------------------

def test_bi_invariant_norm_passes_everywhere():
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = random_algebra_element(3, rng)
        rep = geodesic_vector_check(Schatten(p=2), x)
        assert rep.passes
        assert rep.normalized_max < 1e-6


def test_residual_vanishes_exactly_along_base_direction():
    # X parallel to a basis element: that component commutes with X
    x = from_coords(1.5 * np.eye(8)[2], 3)
    rep = geodesic_vector_check(Schatten(p=2), x)
    assert rep.residuals[2] == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_residuals_of_a_quadratic_f_squared_are_exact(n):
    # F**2 = c(X)^T M c(X) for Randers(M, 0), so g_X(X, D) = c(X)^T M c(D),
    # and a central first difference of a quadratic has no truncation error
    rng = np.random.default_rng(30 + n)
    d = n * n - 1
    a = rng.standard_normal((d, d))
    metric = a @ a.T + d * np.eye(d)
    x = random_algebra_element(n, rng)
    rep = geodesic_vector_check(Randers(metric=metric, oneform=np.zeros(d)), x)
    c = basis_coords(x)
    exact = [c @ metric @ basis_coords(commutator(x, t)) for t in su_basis(n)]
    assert np.max(np.abs(rep.residuals - exact)) < 1e-10 * (c @ metric @ c)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_residual_is_the_fundamental_tensor_on_the_orbit_tangent(n):
    # Euler: g_X(X, D) = (1/2) d/dt F**2(X + t D), so the slope of F**2 along
    # [X, T_i] agrees with the tensor's mixed second difference
    rng = np.random.default_rng(40 + n)
    psi = basis_state(n)
    for func in (GroundShiftedMoment(p=1.5, psi=psi), EnergyUncertainty(psi=psi),
                 small_randers(n, drift=0.3), Schatten(p=3)):
        for _ in range(3):
            x = sample_generic_probe(func, n, rng)
            probe = TensorProbe(base=x)
            tensor = [fundamental_tensor(func, probe, x, commutator(x, t)) for t in su_basis(n)]
            residuals = geodesic_vector_check(func, x).residuals
            assert np.max(np.abs(residuals - tensor)) < 1e-6 * evaluate(func, x) ** 2, func


@pytest.mark.parametrize("n", [2, 3, 4])
def test_residual_is_minus_f_times_the_frame_gradient(n):
    # the slope of F**2 along [X, T_i] is -2 F times the orbit slope of F
    # along T_i, so where F has a covector each residual is -F(X) times the
    # search's exact gradient, bit for bit, and an invariant F's is +0.0
    from test_gatetime import smooth_trees
    rng = np.random.default_rng(50 + n)
    invariant = [Schatten(p=3), Sum(children=(Schatten(p=2), SpectralRange())),
                 Max(children=(Schatten(p=1), SpectralRange()))]
    for func in smooth_trees(n, seed=n) + invariant:
        x = random_algebra_element(n, rng)
        f, grad = func.orbit_slope(x[None])
        rep = geodesic_vector_check(func, x)
        assert rep.residuals.tobytes() == (0.0 - f[0] * grad[0]).tobytes(), func
        assert rep.normalized_max == np.max(np.abs(rep.residuals)) / f[0] ** 2
        if func.unitarily_invariant:
            assert rep.residuals.tobytes() == np.zeros(n * n - 1).tobytes()


# Richardson's central difference below errs by about h**4 times F's fifth
# orbit derivative plus 1e-16 F / h of rounding: at h = 3e-4 it met the exact
# residual within 2.4e-12 F**2 on these trees (at 1e-3, 2.0e-9 on one), and a
# central difference of F**2 at step 1e-4 errs by up to 6.8e-6 F**2
ORBIT_STEP = 3e-4
ORBIT_TOL = 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_residual_matches_a_richardson_difference_along_the_orbit(n):
    # independent of the covector: residual_i = -F(X) d/dt F(e^{t T_i} X e^{-t T_i})
    # at t = 0, the slope by central differences at h and h/2 combined as
    # (4 D(h/2) - D(h)) / 3, on the orbit itself rather than along X + t [X, T_i]
    from test_gatetime import smooth_trees
    rng = np.random.default_rng(60 + n)
    basis = su_basis(n)
    for func in smooth_trees(n, seed=n) + [Schatten(p=3), small_randers(n, drift=0.3)]:
        x = random_algebra_element(n, rng)
        fx = evaluate(func, x)

        def slopes(h):
            up, down = expm(h * basis), expm(-h * basis)
            return (func.values(up @ x @ down) - func.values(down @ x @ up)) / (2.0 * h)

        richardson = (4.0 * slopes(ORBIT_STEP / 2.0) - slopes(ORBIT_STEP)) / 3.0
        residuals = geodesic_vector_check(func, x).residuals
        assert np.max(np.abs(residuals + fx * richardson)) < ORBIT_TOL * fx ** 2, func


@pytest.mark.parametrize("n", [2, 3, 4])
def test_constant_drives_at_orbit_critical_points_pass(n):
    # X* = V X V† at the conjugation search's minimum is critical on its orbit
    # (frame gradient inf-norm <= 1e-6), so its gate exp(X*) passes; a central
    # difference of F**2 at step 1e-4 failed 27 of these 48 with its O(h**2)
    # truncation error, up to 8.3e-6
    from test_gatetime import smooth_trees
    worst = 0.0
    for seed in (1, 2):
        gate = haar_su(n, np.random.default_rng(100 + seed))
        for func in smooth_trees(n, seed):
            res = conj_min_time(func, 1.0, gate, restarts=4)
            v = res.conjugator
            rep = gate_geodesic_check(func, expm(v @ res.branch.value @ v.conj().T))
            assert rep.passes, (func, rep.normalized_max)
            worst = max(worst, rep.normalized_max)
    assert worst > 0.0  # a residual, not an invariant tree's exact 0


def test_randers_drift_fails_at_generic_points():
    rng = np.random.default_rng(22)
    func = small_randers(drift=0.2)
    found = 0
    for _ in range(100):
        x = sample_generic_probe(func, 2, rng)
        rep = geodesic_vector_check(func, x)
        if rep.normalized_max > 1e-3:
            found += 1
    assert found > 50


def test_gate_check_orthogonalizer_under_invariant_norm():
    rep = gate_geodesic_check(Schatten(p=2), orthogonalizer(np.pi, 2))
    assert rep.passes
    assert rep.branch_shifts == (0, 0)


def test_gate_check_identity_rejected():
    with pytest.raises(IdentityGateError):
        gate_geodesic_check(Schatten(p=2), np.eye(2, dtype=complex))


@pytest.mark.parametrize("gate,message", [
    (1.5 * np.eye(2, dtype=complex), r"^matrix is not unitary: max\|U†U - I\| = 1\.250e\+00$"),
    (1j * np.eye(2, dtype=complex), r"^matrix is not special unitary: det = -1\+0j$"),
])
def test_gate_check_rejects_non_special_unitary_before_the_identity_check(gate, message):
    # a scaled identity is caught by the gate validation, not reported as the identity
    with pytest.raises(InvariantViolationError, match=message):
        gate_geodesic_check(Schatten(p=2), gate)


def fibonacci_directions(count):
    k = np.arange(count)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    z = 1.0 - 2.0 * (k + 0.5) / count
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def test_randers_admits_gates_aligned_with_drift():
    # brute-force direction search at N = 2: the only passing log directions
    # are parallel to the drift covector, and the aligned gate passes
    func = small_randers(drift=0.2)
    bhat = np.array([1.0, 0.0, 0.0])
    best_dir = None
    best_res = np.inf
    for direction in fibonacci_directions(400):
        x = from_coords(1.2 * direction, 2)
        rep = geodesic_vector_check(func, x)
        if rep.normalized_max < best_res:
            best_res = rep.normalized_max
            best_dir = direction
    alignment = abs(float(best_dir @ bhat))
    assert alignment > 0.98, (best_res, best_dir)

    gate = expm(from_coords(1.2 * bhat, 2))
    rep = gate_geodesic_check(func, gate)
    assert rep.passes
    assert rep.normalized_max < 1e-6


def test_randers_generic_haar_gate_fails():
    func = small_randers(drift=0.2)
    failures = 0
    for seed in range(5):
        gate = haar_su(2, seed=1000 + seed)
        rep = gate_geodesic_check(func, gate)
        failures += 0 if rep.passes else 1
    assert failures >= 4


def test_branch_sweep_reports_best_branch():
    func = Schatten(p=2)
    gate = haar_su(2, seed=77)
    rep0 = gate_geodesic_check(func, gate)
    rep3 = gate_geodesic_check(func, gate, branch_sweep=3)
    assert rep3.passes
    assert rep3.normalized_max <= rep0.normalized_max + 1e-12


def test_branch_sweep_with_no_branch_raises():
    # -I in SU(2) has no cluster-coherent traceless branch at any winding
    with pytest.raises(DegenerateBranchTieError):
        gate_geodesic_check(Schatten(p=2), -np.eye(2, dtype=complex), branch_sweep=1)


def test_negative_branch_sweep_is_rejected():
    with pytest.raises(InvalidParameterError, match="branch_sweep must be >= 0, got -1"):
        gate_geodesic_check(Schatten(p=2), haar_su(2, seed=77), branch_sweep=-1)


@pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("check", [
    lambda t: check_ad_invariance(small_randers(), 2, samples=2, threshold=t),
    lambda t: geodesic_vector_check(Schatten(p=2), random_algebra_element(2, 3), threshold=t),
    lambda t: gate_geodesic_check(Schatten(p=2), haar_su(2, seed=77), threshold=t),
], ids=["check_ad_invariance", "geodesic_vector_check", "gate_geodesic_check"])
def test_checks_refuse_a_threshold_that_is_not_finite_and_positive(check, threshold):
    # below or at 0, or NaN, every verdict would read False; at inf, True
    with pytest.raises(InvalidParameterError, match="threshold must be finite and > 0"):
        check(threshold)


# ---------------------------------------------------------------------------
# generic probe machinery
# ---------------------------------------------------------------------------

def test_kink_margin_flags_eigenvalue_ties():
    func = Schatten(p=np.inf)
    # on su(2) the +-c eigenvalue pair ties by construction but the norm is
    # smooth (the arms coincide identically), so no kink is flagged
    x2 = from_coords(np.array([0.0, 0.0, 1.0]), 2)
    assert kink_margin(func, x2) > 1.0
    # on su(3) a symmetric spectrum (c, 0, -c) is a genuine arm crossing
    x3 = -1j * np.diag([1.0, 0.0, -1.0]).astype(complex)
    assert kink_margin(func, x3) < 1e-12
    assert kink_margin(Schatten(p=2), x3) == np.inf    # smooth everywhere


def test_kink_margin_max_combinator():
    f1, f2 = Schatten(p=2), Schatten(p=2)
    tree = Max(children=(f1, f2))
    x = random_algebra_element(2, np.random.default_rng(1))
    assert kink_margin(tree, x) == 0.0  # arms identically equal


def test_kink_margin_facts_per_class():
    x = random_algebra_element(3, np.random.default_rng(2))
    w = np.linalg.eigvalsh(1j * x)
    gap = float(np.min(np.diff(w)))
    psi = basis_state(3)
    mt = EnergyUncertainty(psi=psi)
    assert kink_margin(SpectralRange(), x) == gap
    assert kink_margin(GroundShiftedMoment(p=1.5, psi=psi), x) == gap
    assert kink_margin(Schatten(p=3), x) == float(np.min(np.abs(w)))
    assert kink_margin(mt, x) == evaluate(mt, x)
    assert kink_margin(small_randers(n=3), x) == float(np.linalg.norm(x))
    # a mean kinks where a child vanishes, as well as at the children's kinks
    mean = PowerMean(p=3, children=(Schatten(p=2), mt))
    assert kink_margin(mean, x) == min(evaluate(mt, x), evaluate(Schatten(p=2), x))
    assert kink_margin(Sum(children=(Schatten(p=2), SpectralRange())), x) == gap


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kink_margin_reads_invariant_children_off_the_shared_spectrum(monkeypatch, n):
    # the margins keep the bits of evaluating every child with ``value``,
    # and an all-invariant tree makes no eigvalsh call besides the shared one
    psi = basis_state(n)
    trees = [Max(children=(Schatten(p=2), SpectralRange())),
             PowerMean(p=3, children=(Schatten(p=1), Schatten(p=np.inf))),
             Max(children=(GroundShiftedMoment(p=1.5, psi=psi),
                           PowerMean(p=0.5, children=(SpectralRange(),
                                                      GroundShiftedMoment(p=2, psi=psi)))))]

    def by_value(func, a, w):
        """The margin with every child of a max or a mean evaluated by ``value``."""
        if not func.children:
            return func.kink_margin(a, w)
        inner = min(by_value(c, a, w) for c in func.children)
        v1, v2 = (c.value(a) for c in func.children)
        return min(abs(v1 - v2), inner) if func.kind == "max" else min(inner, v1, v2)

    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        a = random_algebra_element(n, rng)
        w = np.linalg.eigvalsh(1j * a)
        for tree in trees:
            assert kink_margin(tree, a) == by_value(tree, a, w), tree
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        calls.append(np.shape(m))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    kink_margin(trees[0], a)
    assert calls == [(n, n)]


def test_generic_probe_respects_margin():
    rng = np.random.default_rng(23)
    func = SpectralRange()
    for _ in range(10):
        x = sample_generic_probe(func, 3, rng)
        w = np.linalg.eigvalsh(1j * x)
        assert np.min(np.diff(w)) > GENERIC_MARGIN == 1e-3


@pytest.mark.parametrize("case", ["nan", "not-square", "dim", "probe-dim"])
def test_kink_margin_and_generic_probe_validate_their_input(case):
    # a NaN point once read as smooth (inf), a 2 x 3 one raised LinAlgError,
    # and a state in C^3 was read at a 2 x 2 point (0.94) or probe
    ml3 = GroundShiftedMoment(p=1, psi=basis_state(3))
    call, error, text = {
        "nan": (lambda: kink_margin(Schatten(p=2), np.full((2, 2), np.nan)),
                InvariantViolationError, "not anti-Hermitian"),
        "not-square": (lambda: kink_margin(Schatten(p=2), np.zeros((2, 3))),
                       DimensionMismatchError, "expected a square matrix"),
        "dim": (lambda: kink_margin(ml3, random_algebra_element(2, 0)),
                DimensionMismatchError, "expects dimension 3, got dimension 2"),
        "probe-dim": (lambda: sample_generic_probe(ml3, 2, 0),
                      DimensionMismatchError, "expects dimension 3, got dimension 2"),
    }[case]
    with pytest.raises(error, match=text):
        call()


@pytest.mark.parametrize("entry", [evaluate, kink_margin, geodesic_vector_check])
def test_empty_matrix_is_a_dimension_mismatch(entry):
    # a 0 x 0 point raised numpy's untyped "zero-size array to reduction
    # operation maximum" ValueError
    with pytest.raises(DimensionMismatchError, match=r"non-empty matrix, got shape \(0, 0\)"):
        entry(Schatten(p=2), np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# invariance <-> geodesic cross-check (small version; full run in acceptance)
# ---------------------------------------------------------------------------

def test_invariant_constraints_pass_geodesic_checks():
    rng = np.random.default_rng(24)
    for func in (Schatten(p=1), Schatten(p=2), SpectralRange(),
                 Sum(children=(Schatten(p=2), SpectralRange()))):
        for _ in range(5):
            x = sample_generic_probe(func, 3, rng)
            assert geodesic_vector_check(func, x).passes


def test_non_invariant_constraints_fail_somewhere():
    rng = np.random.default_rng(25)
    for func in (GroundShiftedMoment(p=1, psi=basis_state(2)),
                 EnergyUncertainty(psi=basis_state(2)),
                 small_randers(drift=0.2)):
        found = False
        for _ in range(200):
            x = sample_generic_probe(func, 2, rng)
            if not geodesic_vector_check(func, x).passes:
                found = True
                break
        assert found, func
