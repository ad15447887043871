"""Resource functional catalog: values, homogeneity, and combinator algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qslkit import (
    Constraint,
    DimensionMismatchError,
    EnergyUncertainty,
    GeometricMean,
    GroundShiftedMoment,
    InvalidParameterError,
    Max,
    Min,
    PowerMean,
    Randers,
    Schatten,
    SpectralRange,
    Sum,
    InvariantViolationError,
    basis_state,
    check_ad_invariance,
    check_homogeneity,
    energy_stats,
    evaluate,
    from_coords,
    gate_time,
    haar_su,
    random_algebra_element,
)
from qslkit.geometry import INVARIANCE_THRESHOLD

SX = np.array([[0, 1], [1, 0]], dtype=complex)
A_HALF_PI_X = -1j * (np.pi / 2) * SX  # Hamiltonian (pi/2) * sigma_x
PSI0 = basis_state(2)


def randers_pair(n, drift=0.0, seed=0):
    d = n * n - 1
    rng = np.random.default_rng(seed)
    w = np.diag(rng.uniform(0.5, 2.0, size=d))
    b = np.zeros(d)
    if drift:
        b[0] = drift
    return Randers(metric=w, oneform=b)


def catalog(n):
    """Every atom plus one tree per combinator, anchored at dimension n."""
    psi = basis_state(n)
    return [
        Schatten(p=1), Schatten(p=2), Schatten(p=3), Schatten(p=math.inf),
        SpectralRange(),
        GroundShiftedMoment(p=1, psi=psi), GroundShiftedMoment(p=2.5, psi=psi),
        EnergyUncertainty(psi=psi),
        randers_pair(n, drift=0.3),
        Sum(children=(Schatten(p=2), SpectralRange())),
        Max(children=(Schatten(p=2), SpectralRange())),
        Min(children=(Schatten(p=2), SpectralRange())),
        PowerMean(p=3, children=(Schatten(p=2), EnergyUncertainty(psi=psi))),
        GeometricMean(p=2, children=(Schatten(p=2), SpectralRange())),
    ]


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

def test_uncertainty_closed_form():
    # <0|H|0> = 0 and <0|H^2|0> = (pi/2)^2 for H = (pi/2) sigma_x
    assert evaluate(EnergyUncertainty(psi=PSI0), A_HALF_PI_X) == pytest.approx(np.pi / 2, abs=1e-12)


def test_ground_moment_closed_form():
    # E_min = -pi/2, <0|H - E_min|0> = pi/2
    assert evaluate(GroundShiftedMoment(p=1, psi=PSI0), A_HALF_PI_X) == pytest.approx(np.pi / 2, abs=1e-12)


def test_spectral_range_closed_form():
    assert evaluate(SpectralRange(), A_HALF_PI_X) == pytest.approx(np.pi, abs=1e-12)


def test_atoms_vanish_at_zero():
    zero = np.zeros((2, 2), dtype=complex)
    for func in (Schatten(p=2), SpectralRange(), GroundShiftedMoment(p=1, psi=PSI0),
                 EnergyUncertainty(psi=PSI0), randers_pair(2, drift=0.2)):
        assert evaluate(func, zero) == 0.0


def test_schatten_values():
    # H = (pi/2) sigma_x has singular values (pi/2, pi/2)
    assert evaluate(Schatten(p=1), A_HALF_PI_X) == pytest.approx(np.pi, abs=1e-12)
    assert evaluate(Schatten(p=2), A_HALF_PI_X) == pytest.approx(np.pi / np.sqrt(2), abs=1e-12)
    assert evaluate(Schatten(p=math.inf), A_HALF_PI_X) == pytest.approx(np.pi / 2, abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        evaluate(EnergyUncertainty(psi=basis_state(3)), A_HALF_PI_X)


def test_randers_positivity_condition_enforced():
    with pytest.raises(InvalidParameterError):
        Randers(metric=np.eye(3), oneform=np.array([1.0, 0.0, 0.0]))


def test_moment_exponent_domain():
    with pytest.raises(InvalidParameterError):
        GroundShiftedMoment(p=0.0, psi=PSI0)
    with pytest.raises(InvalidParameterError):
        Schatten(p=0.5)


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_catalog_homogeneity(n):
    for func in catalog(n):
        rep = check_homogeneity(func, n, trials=60, seed=7)
        assert rep.max_relative_deviation < 1e-9, func


def test_homogeneity_norm_tight():
    rep = check_homogeneity(Schatten(p=2), 2, trials=100, seed=0)
    assert rep.max_relative_deviation < 1e-12


def test_homogeneity_ground_moment():
    rep = check_homogeneity(GroundShiftedMoment(p=2, psi=basis_state(3)), 3,
                            trials=100, seed=0)
    assert rep.max_relative_deviation < 1e-10


def test_homogeneity_negative_control():
    # a product of two degree-1 functionals is degree 2 and must be flagged
    class DegreeTwoProduct(Constraint):
        def value(self, a):
            return Schatten(p=2).value(a) * SpectralRange().value(a)

    rep = check_homogeneity(DegreeTwoProduct(), 2, trials=100, seed=1)
    assert rep.max_relative_deviation > 0.1


# ---------------------------------------------------------------------------
# combinator identities and inequalities
# ---------------------------------------------------------------------------

def test_geomean_of_equal_children_is_identity():
    rng = np.random.default_rng(2)
    f = Schatten(p=2)
    for p in (0.5, 1.0, 3.0):
        tree = GeometricMean(p=p, children=(f, f))
        for _ in range(10):
            a = random_algebra_element(3, rng)
            assert evaluate(tree, a) == pytest.approx(evaluate(f, a), rel=1e-12)


def test_max_dominates_large_power_mean():
    rng = np.random.default_rng(3)
    f1, f2 = Schatten(p=2), SpectralRange()
    mx = Max(children=(f1, f2))
    pm = PowerMean(p=64, children=(f1, f2))
    for _ in range(25):
        a = random_algebra_element(3, rng)
        assert evaluate(mx, a) >= evaluate(pm, a) / 2 ** (1 / 64) - 1e-12


def test_atoms_non_negative():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        for func in catalog(n):
            for _ in range(20):
                assert evaluate(func, random_algebra_element(n, rng)) >= 0.0


def test_triangle_inequality_for_norms():
    # asserted for the unitarily invariant atoms only; the state-anchored
    # functionals are positive homogeneous but not norms
    rng = np.random.default_rng(5)
    for func in (Schatten(p=1), Schatten(p=2), Schatten(p=math.inf), SpectralRange()):
        for _ in range(50):
            a = random_algebra_element(3, rng)
            b = random_algebra_element(3, rng)
            fa, fb = evaluate(func, a), evaluate(func, b)
            assert evaluate(func, a + b) <= fa + fb + 1e-9 * (1 + fa + fb)


# ---------------------------------------------------------------------------
# energy statistics
# ---------------------------------------------------------------------------

def test_energy_stats_closed_form():
    stats = energy_stats(A_HALF_PI_X, PSI0)
    assert stats.ground == pytest.approx(-np.pi / 2, abs=1e-12)
    assert stats.top == pytest.approx(np.pi / 2, abs=1e-12)
    assert stats.expectation == pytest.approx(0.0, abs=1e-12)
    assert stats.uncertainty == pytest.approx(np.pi / 2, abs=1e-12)


def test_energy_stats_zero_hamiltonian():
    stats = energy_stats(np.zeros((2, 2)), PSI0)
    assert (stats.ground, stats.top, stats.expectation, stats.uncertainty) == (0, 0, 0, 0)


def test_energy_stats_in_ground_state():
    ground = np.array([1, -1]) / np.sqrt(2)  # ground eigenvector of sigma_x
    stats = energy_stats(A_HALF_PI_X, ground.astype(complex))
    assert stats.expectation == pytest.approx(stats.ground, abs=1e-12)
    assert stats.uncertainty == pytest.approx(0.0, abs=1e-7)


def test_energy_stats_ordering_invariant():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_algebra_element(3, rng)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        stats = energy_stats(a, psi)
        assert stats.ground <= stats.expectation + 1e-12
        assert stats.expectation <= stats.top + 1e-12
        assert stats.uncertainty >= 0.0


# ---------------------------------------------------------------------------
# facts carried by the classes, and non-finite input
# ---------------------------------------------------------------------------

def test_unitarily_invariant_marks_spectral_atoms_and_their_combinators():
    # a combinator is invariant when all its children are; powmean(s2, mt)
    # has a state-anchored child, so it stays unmarked
    marked = {f.kind for f in catalog(3) if f.unitarily_invariant}
    assert marked == {"schatten", "op_shifted", "sum", "max", "min", "geomean"}


def test_orbit_states_name_the_anchoring_states_of_the_tree():
    # () for functions of the spectrum, the state for ml and mt, concatenated
    # through combinators, and None wherever a Randers leaf or a custom
    # constraint enters the tree
    psi, other = basis_state(3), basis_state(3, 1)

    def listed(func):
        states = func.orbit_states
        return None if states is None else [s.tolist() for s in states]

    for func in catalog(3):
        if func.unitarily_invariant:
            assert listed(func) == [], func.kind
    kinds = {f.kind: listed(f) for f in catalog(3) if not f.unitarily_invariant}
    assert kinds == {"ml": [psi.tolist()], "mt": [psi.tolist()], "randers": None,
                     "powmean": [psi.tolist()]}
    pair = Max(children=(GroundShiftedMoment(p=1, psi=psi), EnergyUncertainty(psi=other)))
    assert listed(pair) == [psi.tolist(), other.tolist()]
    assert listed(Sum(children=(Schatten(p=2), randers_pair(3)))) is None
    assert listed(Sum(children=(Schatten(p=2), SpectrumNorm()))) is None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), lam=st.floats(1e-3, 1e3))
def test_invariant_catalog_is_homogeneous_and_conjugation_invariant(n, seed, lam):
    # F(lam A) = lam F(A) to test_catalog_homogeneity's 1e-9 and
    # F(V A V†) = F(A) to check_ad_invariance's threshold, both relative
    rng = np.random.default_rng(seed)
    a = random_algebra_element(n, rng)
    v = haar_su(n, rng)
    for func in (f for f in catalog(n) if f.unitarily_invariant):
        fa = evaluate(func, a)
        assert abs(evaluate(func, lam * a) - lam * fa) <= 1e-9 * lam * fa, func
        assert abs(evaluate(func, v @ a @ v.conj().T) - fa) <= INVARIANCE_THRESHOLD * fa, func


class SpectrumNorm(Constraint):
    """Custom constraint that defines ``value`` alone and inherits the rest."""

    def value(self, a):
        return Schatten(p=2).value(a)


def test_value_only_subclass_gets_the_looping_defaults():
    a = random_algebra_element(3, np.random.default_rng(4))
    stack = np.stack([a, 2.0 * a])
    assert np.array_equal(SpectrumNorm().values(stack), Schatten(p=2).values(stack))
    assert evaluate(SpectrumNorm(), a) == evaluate(Schatten(p=2), a)
    gate = haar_su(3, seed=6)
    assert gate_time(SpectrumNorm(), 1.0, gate, n_max=1).f_value == \
        gate_time(Schatten(p=2), 1.0, gate, n_max=1).f_value
    assert check_ad_invariance(SpectrumNorm(), 3, samples=20).ad_invariant


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_evaluate_rejects_non_finite_element(entry):
    a = A_HALF_PI_X.copy()
    a[0, 1] = entry
    with pytest.raises(InvariantViolationError):
        evaluate(Schatten(p=2), a)


@pytest.mark.parametrize("psi", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
def test_state_validation_rejects_non_finite(psi):
    with pytest.raises(InvariantViolationError):
        EnergyUncertainty(psi=np.array(psi, dtype=complex))


# ---------------------------------------------------------------------------
# batched spectral form
# ---------------------------------------------------------------------------

@st.composite
def spectral_points(draw):
    """Traceless angle rows phi of order 1 and a Haar eigenbasis q.

    Each drawn row is scaled to max |phi| = 1 before it is centred: F is
    positively homogeneous, so scale is no loss, and it keeps powers of F
    clear of underflow.
    """
    n = draw(st.integers(2, 5))
    rows = draw(st.integers(1, 4))
    phi = draw(arrays(np.float64, (rows, n), elements=st.floats(-10.0, 10.0)))
    top = np.max(np.abs(phi), axis=1, keepdims=True)
    phi = np.divide(phi, top, out=np.zeros_like(phi), where=top > 0)
    return phi - phi.mean(axis=1, keepdims=True), haar_su(n, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(spectral_points())
def test_spectral_values_match_value_on_assembled_points(point):
    # F at q diag(1j*phi_b) q† from the angle rows equals value() on the
    # assembled matrix.  Where F takes a root that amplifies roundoff near
    # zero it is compared on a power: F**p (ml), F**2 (mt, and geomean, the
    # square root of a product); the bound is relative to F plus the scale
    # of phi (order 1), since F may vanish
    phi, q = point
    n = q.shape[1]
    for func in catalog(n) + [SpectrumNorm()]:
        kind = getattr(func, "kind", "")
        power = {"ml": getattr(func, "p", 1.0), "mt": 2.0, "geomean": 2.0}.get(kind, 1.0)
        got = func.spectral_values(phi, q)
        assert got.shape == (len(phi),)
        for row, value in zip(phi, got):
            want = func.value((q * (1j * row)) @ q.conj().T)
            assert abs(value ** power - want ** power) <= 1e-12 * (want ** power + 1.0)


# ---------------------------------------------------------------------------
# stacked form
# ---------------------------------------------------------------------------

@st.composite
def stacks(draw):
    """(m, n, n) stacks of 1 to 8 algebra elements at n = 2 to 6; coordinates
    in [-10, 10], zeros and repeated eigenvalues included."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    return from_coords(draw(arrays(np.float64, (m, n * n - 1), elements=st.floats(-10.0, 10.0))), n)


@settings(max_examples=80, deadline=None)
@given(stacks())
def test_values_match_value_bit_for_bit(stack):
    # value is values on a stack of one, so this pins that a stack of m gives
    # the bits of m stacks of one, which the chunked sweeps rely on; a power
    # out of float range (tiny coordinates under Schatten(3)) fails the stack
    # with the error of one of its points
    for func in catalog(stack.shape[1]) + [SpectrumNorm()]:
        try:
            got = func.values(stack)
        except InvalidParameterError as exc:
            assert str(exc) in [outcome(func.value, a) for a in stack], func
            continue
        assert got.shape == (len(stack),)
        assert np.array_equal(got, [func.value(a) for a in stack]), func


def outcome(f, *args):
    """f(*args), or the text of the InvalidParameterError it raises."""
    try:
        return f(*args)
    except InvalidParameterError as exc:
        return str(exc)


def homogeneity_loop(func, n, trials, seed):
    """check_homogeneity's deviation with one evaluate per point, the loop the
    stacked sweep replaced."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a = random_algebra_element(n, rng)
        lam = 10.0 * (1.0 - rng.random())
        scaled = evaluate(func, lam * a, validate=False)
        direct = lam * evaluate(func, a, validate=False)
        worst = max(worst, abs(scaled - direct) / (direct + 1e-300))
    return worst


@pytest.mark.parametrize("n,trials", [(2, 40), (6, 300)])  # n = 6 spans two stacks
def test_check_homogeneity_matches_the_per_trial_loop(n, trials):
    for func in catalog(n) + [SpectrumNorm()]:
        rep = check_homogeneity(func, n, trials=trials, seed=3)
        assert rep.max_relative_deviation == homogeneity_loop(func, n, trials, 3), func
