"""Invariance classification, fundamental tensor, geodesic checks."""

import numpy as np
import pytest

from qslkit import (
    DegenerateBranchTieError,
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


def test_generic_probe_respects_margin():
    rng = np.random.default_rng(23)
    func = SpectralRange()
    for _ in range(10):
        x = sample_generic_probe(func, 3, rng)
        w = np.linalg.eigvalsh(1j * x)
        assert np.min(np.diff(w)) > GENERIC_MARGIN == 1e-3


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
