"""Stacked evaluation of F against the per-point loops it replaced.

Each oracle below is the loop its function ran when F was evaluated one
matrix at a time, written with the same arithmetic in the same order.  The
stacked forms must reproduce it bit for bit: reports, residuals, action
values and the state a seeding Generator is left in.
"""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qslkit import (
    DimensionMismatchError,
    EnergyUncertainty,
    GeometricMean,
    GroundShiftedMoment,
    InvalidParameterError,
    InvariantViolationError,
    Max,
    Min,
    PowerMean,
    Schatten,
    SpectralRange,
    StepUnderflowError,
    Sum,
    TensorProbe,
    Trajectory,
    action,
    basis_state,
    check_ad_invariance,
    commutator,
    evaluate,
    fundamental_tensor_estimate,
    gate_geodesic_check,
    geodesic_vector_check,
    haar_su,
    log_branches,
    principal_log,
    random_algebra_element,
    sample_generic_probe,
    su_basis,
)
from qslkit import constraints, gates, linalg
from qslkit.geometry import FD_STEP, GEODESIC_THRESHOLD, NORM_SLACK

from test_constraints import SpectrumNorm, catalog, decimal_mean


class LopsidedNorm(constraints.Constraint):
    """Custom F: the Frobenius norm, half as large again where H = 1j*A has
    Re H[0, 1] > 1.5, so F(-A) = F(A) first fails after the first sample."""

    def value(self, a):
        return (1.5 if (1j * a)[0, 1].real > 1.5 else 1.0) * float(np.linalg.norm(a))


def draw_element(n, rng):
    """random_algebra_element as one tensordot per element."""
    return np.tensordot(rng.standard_normal(n * n - 1), su_basis(n), axes=1)


def draw_gate(n, rng):
    """haar_su as one QR factorization and one determinant per gate."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q / np.linalg.det(q) ** (1.0 / n)


def invariance_loop(func, n, samples, rng):
    """(max_deviation, is_norm) of check_ad_invariance, one sample at a time."""
    worst = 0.0
    is_norm = True
    for _ in range(samples):
        a = draw_element(n, rng)
        v = draw_gate(n, rng)
        fa = evaluate(func, a, validate=False)
        fconj = evaluate(func, v @ a @ v.conj().T, validate=False)
        worst = max(worst, abs(fconj - fa) / (fa + 1e-300))
        if is_norm:
            b = draw_element(n, rng)
            fb = evaluate(func, b, validate=False)
            fneg = evaluate(func, -a, validate=False)
            fsum = evaluate(func, a + b, validate=False)
            scale = 1.0 + fa + fb
            if abs(fneg - fa) > NORM_SLACK * scale or fsum > fa + fb + NORM_SLACK * scale:
                is_norm = False
    return worst, is_norm


def tensor_loop(func, base, u, v, step=FD_STEP, tol=GEODESIC_THRESHOLD):
    """fundamental_tensor_estimate: four evaluate calls per stencil."""
    h = step * float(np.linalg.norm(base))

    def fsq(a):
        return evaluate(func, a, validate=False) ** 2

    def mixed(h):
        return (fsq(base + h * u + h * v) - fsq(base + h * u - h * v)
                - fsq(base - h * u + h * v) + fsq(base - h * u - h * v)) / (4.0 * h * h)

    g_full = 0.5 * mixed(h)
    g_half = 0.5 * mixed(h / 2.0)
    disagreement = abs(g_full - g_half)
    return g_half, disagreement if disagreement > 10.0 * tol else disagreement / 3.0


def geodesic_loop(func, gate, sweep):
    """(normalized_max, residuals, shifts) of gate_geodesic_check, the first
    best branch: per branch, -F(X) times the frame gradient where F has a
    covector, else evaluate at X +- h*D_i for each orbit tangent D_i = [X, T_i]."""
    branches = log_branches(gate, sweep)
    principal = principal_log(gate)
    if not any(np.array_equal(b.shifts, principal.shifts) for b in branches):
        branches.append(principal)
    best = None
    for b in sorted(branches, key=lambda b: (b.frobenius, tuple(b.shifts.tolist()))):
        x = b.value
        f, grad = func.orbit_slope(x[None])
        if grad is None:
            h = FD_STEP * float(np.linalg.norm(x))
            d = [commutator(x, t) for t in su_basis(len(x))]
            plus = np.array([evaluate(func, x + h * di, validate=False) ** 2 for di in d])
            minus = np.array([evaluate(func, x - h * di, validate=False) ** 2 for di in d])
            residuals = (plus - minus) / (4.0 * h)
        else:
            residuals = 0.0 - f[0] * grad[0]
        normalized = float(np.max(np.abs(residuals)) / evaluate(func, x) ** 2)
        if best is None or normalized < best[0]:
            best = (normalized, residuals, tuple(b.shifts.tolist()))
    return best


def action_loop(func, traj):
    """action with one evaluate, and its validation, per sample."""
    ts = traj.times
    vals = np.array([evaluate(func, -1j * h) for h in traj.hamiltonians])
    dt = np.diff(ts)
    if np.max(np.abs(dt - dt.mean())) <= 1e-9 * dt.mean() and len(ts) % 2 == 1:
        weights = np.ones(len(ts))
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float(float(dt.mean()) / 3.0 * weights @ vals)
    return float(np.trapezoid(vals, ts))


def test_draws_keep_their_bits():
    # the stacked draws reuse haar_su and random_algebra_element's arithmetic
    for n in range(2, 9):
        for seed in range(25):
            assert np.array_equal(haar_su(n, seed), draw_gate(n, np.random.default_rng(seed)))
            assert np.array_equal(random_algebra_element(n, seed),
                                  draw_element(n, np.random.default_rng(seed)))


# STACK_ENTRIES = 80 makes stacks of 8 samples at n = 3, so a sweep crosses
# many stacks and the norm failures of LopsidedNorm (samples 7 and 18) land
# inside one
@pytest.mark.parametrize("entries", [constraints.STACK_ENTRIES, 80])
@pytest.mark.parametrize("seed", [0, 2])
def test_check_ad_invariance_matches_the_per_sample_loop(monkeypatch, entries, seed):
    monkeypatch.setattr(constraints, "STACK_ENTRIES", entries)
    for func in catalog(3) + [SpectrumNorm(), LopsidedNorm()]:
        rep = check_ad_invariance(func, 3, samples=120, seed=seed)
        worst, is_norm = invariance_loop(func, 3, 120, np.random.default_rng(seed))
        assert (rep.max_deviation, rep.is_norm, rep.samples, rep.seed) == (worst, is_norm, 120, seed)
        assert rep.ad_invariant == (worst < rep.threshold)


def test_norm_axioms_fail_at_the_sample_the_loop_names():
    # LopsidedNorm fails at sample 7 (seed 0) and 18 (seed 2), ml at the first
    for seed, first in ((0, 7), (2, 18)):
        assert check_ad_invariance(LopsidedNorm(), 3, samples=first, seed=seed).is_norm
        assert not check_ad_invariance(LopsidedNorm(), 3, samples=first + 1, seed=seed).is_norm
    assert not check_ad_invariance(catalog(3)[5], 3, samples=1).is_norm


@pytest.mark.parametrize("func", [Schatten(p=2), catalog(3)[5], LopsidedNorm()],
                         ids=["schatten", "ml", "lopsided"])
def test_generator_seed_ends_in_the_loops_state(func):
    stacked, looped = np.random.default_rng(9), np.random.default_rng(9)
    rep = check_ad_invariance(func, 3, samples=40, seed=stacked)
    assert (rep.max_deviation, rep.is_norm) == invariance_loop(func, 3, 40, looped)
    assert rep.seed == -1
    assert stacked.bit_generator.state == looped.bit_generator.state
    assert stacked.standard_normal() == looped.standard_normal()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("sweep", [0, 1])
def test_gate_geodesic_check_matches_the_per_direction_loop(n, sweep):
    gate = haar_su(n, 40 + n)
    for func in catalog(n) + [SpectrumNorm()]:
        rep = gate_geodesic_check(func, gate, branch_sweep=sweep)
        normalized, residuals, shifts = geodesic_loop(func, gate, sweep)
        assert rep.residuals.tobytes() == residuals.tobytes(), func
        assert (rep.normalized_max, rep.branch_shifts) == (normalized, shifts)


def branch_loop(func, gate, sweep, step):
    """gate_geodesic_check as one geodesic_vector_check per branch, the first
    best: its report, or the first error it raises."""
    clusters = linalg._eigen_clusters(gate)
    rows, values, _ = clusters.branches(clusters.search_shifts(sweep)[0])
    reports = [replace(geodesic_vector_check(func, x, step=step),
                       branch_shifts=tuple(s.tolist()))
               for s, x in zip(rows, values)]
    return min(reports, key=lambda rep: rep.normalized_max)


def outcome(check, *args):
    try:
        rep = check(*args)
    except Exception as exc:  # the error, compared by type and text
        return type(exc), str(exc)
    return (rep.residuals.tobytes(), rep.normalized_max, rep.passes, rep.branch_shifts,
            rep.step, rep.threshold)


# stencil chunks of all branches (n = 2), three (n = 3 at 500 entries), 17
# (n = 4), six (n = 5) and one (n = 4 at 200).  Step 1e-13 underflows, and at 1e308 a
# short branch's stencil stays finite and overflows F while a longer one's
# overflows at once: the first error in branch order must win
@pytest.mark.parametrize("n,entries", [(2, constraints.STACK_ENTRIES), (3, 500),
                                       (4, constraints.STACK_ENTRIES), (4, 200),
                                       (5, constraints.STACK_ENTRIES)])
def test_gate_geodesic_check_matches_the_per_branch_loop(monkeypatch, n, entries):
    monkeypatch.setattr(constraints, "STACK_ENTRIES", entries)
    rng = np.random.default_rng(80 + n)
    phases = np.exp(1j * rng.uniform(-1.0, 1.0, n))
    gates = [haar_su(n, rng), np.diag(phases / np.prod(phases) ** (1.0 / n))]  # mt(e_0) = 0 on the diagonal
    for sweep in (1, 2) if n < 4 else (1,):
        for func in catalog(n) + [SpectrumNorm()]:
            for gate in gates:
                for step in (FD_STEP, 1e-13, 1e308):
                    got = outcome(gate_geodesic_check, func, gate, step, GEODESIC_THRESHOLD, sweep)
                    assert got == outcome(branch_loop, func, gate, sweep, step), (func, sweep, step)


class Counted(constraints.Constraint):
    """Wraps a constraint, recording the name and size of each ``values`` and
    ``orbit_slope`` call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    @property
    def dim(self):
        return self.inner.dim

    def values(self, stack):
        self.calls.append(("values", len(stack)))
        return self.inner.values(stack)

    def orbit_slope(self, stack):
        self.calls.append(("orbit_slope", len(stack)))
        return self.inner.orbit_slope(stack)


@pytest.mark.parametrize("func", catalog(4) + [SpectrumNorm()], ids=lambda f: type(f).__name__)
def test_gate_geodesic_check_makes_one_values_call_per_chunk(func):
    # F(X) at every branch comes from one orbit_slope pass, which also gives
    # every residual where F has a covector; otherwise the stencils, 2 * 15
    # points per branch at n = 4, take one values call per 17 branches, and
    # F is evaluated nowhere else
    gate = haar_su(4, 44)
    branches = len(linalg._eigen_clusters(gate).search_shifts(1)[0])
    assert branches > 17
    stencil = func.orbit_slope(np.zeros((1, 4, 4), dtype=complex))[1] is None
    counted = Counted(func)
    args = (gate, FD_STEP, GEODESIC_THRESHOLD, 1)
    assert outcome(gate_geodesic_check, counted, *args) == outcome(gate_geodesic_check, func, *args)
    assert counted.calls == [("orbit_slope", branches)] + [
        ("values", 30 * min(17, branches - s)) for s in range(0, branches, 17) if stencil]
    counted.calls.clear()
    geodesic_vector_check(counted, principal_log(gate).value)
    assert counted.calls == [("orbit_slope", 1)] + [("values", 30)] * stencil
    assert stencil == (type(func).__name__ in ("GroundShiftedMoment", "EnergyUncertainty",
                                               "PowerMean", "SpectrumNorm"))


# the loop's checks in its order: X, F(X) > 0, then the step; a 1 x 1 X
# fails before any su(1) basis is asked for.  Only a stencil, which mt takes
# and Schatten does not, has an h to underflow or overflow
X2 = np.diag([1j, -1j])
X2_OFF = np.array([[0, 1j], [1j, 0]])  # mt(e_0) = 1
MT2 = EnergyUncertainty(psi=basis_state(2))


@pytest.mark.parametrize("func,x,step,error", [
    (Schatten(p=2), [[1j]], FD_STEP,
     (InvariantViolationError, "matrix is not traceless: tr = 0.000e+00+1.000e+00j")),
    (Schatten(p=2), [[0]], FD_STEP,
     (InvalidParameterError, "geodesic check needs F(X) > 0, got 0.000e+00")),
    (Schatten(p=2), np.zeros((2, 2)), 1e-13,
     (InvalidParameterError, "geodesic check needs F(X) > 0, got 0.000e+00")),
    (Schatten(p=2), [[1, 0], [0, -1]], FD_STEP,
     (InvariantViolationError, "matrix is not anti-Hermitian: max|A + A†| = 2.000e+00")),
    (Schatten(p=2), np.ones((2, 3)), FD_STEP,
     (DimensionMismatchError, "expected a square matrix, got shape (2, 3)")),
    (GroundShiftedMoment(p=1, psi=basis_state(3)), X2, FD_STEP,
     (DimensionMismatchError, "constraint expects dimension 3, got dimension 2")),
    (Schatten(p=2), X2, 0.0, (InvalidParameterError, "step must be positive, got 0.0")),
    (MT2, X2_OFF, 1e-13,
     (StepUnderflowError, "finite-difference step underflow: h = 1.414e-13")),
    (MT2, X2_OFF, 1e308,
     (InvalidParameterError, "finite-difference step overflow: h = 1.414e+308")),
], ids=["1x1-trace", "1x1-zero", "zero-before-step", "hermitian", "not-square",
        "dim", "step-0", "underflow", "overflow"])
def test_geodesic_vector_check_refuses_invalid_input(func, x, step, error):
    assert outcome(geodesic_vector_check, func, x, step) == error


@pytest.mark.parametrize("func", [Schatten(p=2), catalog(2)[8]], ids=["schatten", "randers"])
def test_a_covector_residual_takes_no_step(func):
    # a step that would underflow or overflow a stencil changes only the
    # report's step field where F has a covector
    ref = outcome(geodesic_vector_check, func, X2_OFF, FD_STEP)
    for step in (1e-13, 1e308):
        assert outcome(geodesic_vector_check, func, X2_OFF, step) == ref[:4] + (step,) + ref[5:]


def test_gate_geodesic_check_memory_stays_within_its_chunks():
    # 489 branches at n = 4, sweep 4: their stencils together would take
    # 3.9 MB, one chunk 128 KB; the branches and reports themselves take about
    # 1 MB.  mt takes the stencils; Schatten, which has a covector, none
    gate = haar_su(4, 44)
    branches = len(linalg._eigen_clusters(gate).search_shifts(4)[0])
    stencils = branches * 31 * 16 * np.dtype(np.complex128).itemsize
    assert branches == 489
    for func in (Schatten(p=2), EnergyUncertainty(psi=basis_state(4))):
        tracemalloc.start()
        try:
            gate_geodesic_check(func, gate, branch_sweep=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stencils / 2, func


def per_child(func, stack):
    """``values`` with every combinator joining its children's own ``values``."""
    if not func.children:
        return func.values(stack)
    return func.join(*(per_child(c, stack) for c in func.children))


def spectral_trees():
    """A tree per combinator over spectral atoms only, and a nested one."""
    s2, sinf, rng = Schatten(p=2), Schatten(p=math.inf), SpectralRange()
    return [Sum(children=(s2, rng)), Max(children=(s2, rng)), Min(children=(Schatten(p=3), rng)),
            PowerMean(p=3, children=(s2, sinf)), GeometricMean(p=2, children=(s2, rng)),
            Sum(children=(Max(children=(Schatten(p=1), rng)),
                          PowerMean(p=3, children=(sinf, Min(children=(s2, rng))))))]


def element_stack(n, m, seed):
    return np.stack([random_algebra_element(n, seed + i) for i in range(m)])


def counted_eigvalsh(monkeypatch):
    """The shapes np.linalg.eigvalsh is called on from now on."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def counted(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


@pytest.mark.parametrize("tree", spectral_trees(), ids=lambda f: f.kind)
def test_a_spectral_tree_takes_one_spectrum_per_stack(monkeypatch, tree):
    stack = element_stack(4, 6, 30)
    shapes = counted_eigvalsh(monkeypatch)
    got = tree.values(stack)
    tree.value(stack[0])
    assert shapes == [(6, 4, 4), (1, 4, 4)]
    assert tree.unitarily_invariant
    assert np.array_equal(got, per_child(tree, stack))


# a state-anchored or value-only child keeps the per-child path: one spectrum
# per spectral subtree, one per point for the custom child
@pytest.mark.parametrize("tree,calls", [
    (Max(children=(Schatten(p=2), GroundShiftedMoment(p=1, psi=basis_state(4)))), 1),
    (Max(children=(Sum(children=(Schatten(p=2), SpectralRange())),
                   constraints.EnergyUncertainty(psi=basis_state(4)))), 1),
    (Sum(children=(Schatten(p=2), SpectrumNorm())), 1 + 6),
], ids=["ml-child", "spectral-subtree", "custom-child"])
def test_a_tree_with_another_child_evaluates_each_child(monkeypatch, tree, calls):
    stack = element_stack(4, 6, 30)
    shapes = counted_eigvalsh(monkeypatch)
    got = tree.values(stack)
    assert len(shapes) == calls
    assert not tree.unitarily_invariant
    assert np.array_equal(got, per_child(tree, stack))


def values_outcome(f, *args):
    try:
        return f(*args).tobytes()
    except InvalidParameterError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_spectrum_gives_the_per_child_bits(n):
    # scales from 1e-3 to 1e3, the zero matrix and a basis element, whose
    # spectrum has a zero eigenvalue from n = 3
    stack = np.concatenate([element_stack(n, 8, 10 * n) * np.geomspace(1e-3, 1e3, 8)[:, None, None],
                            np.zeros((1, n, n)), linalg.from_coords(np.eye(1, n * n - 1), n)])
    for func in catalog(n) + spectral_trees():
        assert values_outcome(func.values, stack) == values_outcome(per_child, func, stack), func


def qft3_log():
    return principal_log(gates.parse_gate_spec("qft:3")).value


@pytest.mark.parametrize("func,x,message", [
    (Schatten(p=2000), None, "schatten exponent p = 2000 overflows a float"),
    (PowerMean(p=1e-300, children=(Schatten(p=2), SpectralRange())), None,
     "powmean exponent p = 1e-300 overflows a float"),
    (Sum(children=(Schatten(p=math.inf), Schatten(p=math.inf))), np.diag([1e308j, -1e308j]),
     "sum overflows a float"),
], ids=["schatten", "powmean", "sum"])
def test_one_spectrum_keeps_the_overflow_texts(func, x, message):
    # at x = qft:3's logarithm unless given; the sum printed an action of inf
    x = qft3_log() if x is None else x
    for stack in (x[None], np.stack([0.5 * x, x])):
        assert values_outcome(func.values, stack) == (InvalidParameterError, message)
        assert values_outcome(per_child, func, stack) == (InvalidParameterError, message)


@pytest.mark.parametrize("func", [
    PowerMean(p=2000, children=(Schatten(p=2), Schatten(p=math.inf))),
    GeometricMean(p=1e-300, children=(Schatten(p=2), SpectralRange())),
], ids=["powmean", "geomean"])
def test_one_spectrum_gives_a_mean_whose_powers_leave_the_float_range(func):
    # F**p overflows at p = 2000 and rounds to 1 at p = 1e-300, where each
    # raised InvalidParameterError
    x = qft3_log()
    for stack in (x[None], np.stack([0.5 * x, x])):
        got = func.values(stack)
        assert np.array_equal(per_child(func, stack), got)
        for f, f1, f2 in zip(got, *(c.values(stack) for c in func.children)):
            want = decimal_mean(func.kind, func.p, f1, f2)
            assert abs(f - want) <= 1e-15 * want, (f, want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fundamental_tensor_matches_the_four_point_loop(n):
    rng = np.random.default_rng(60 + n)
    for func in catalog(n) + [SpectrumNorm()]:
        x = sample_generic_probe(func, n, rng)
        u, v = random_algebra_element(n, rng), random_algebra_element(n, rng)
        for step in (FD_STEP, 1e-2):
            got = fundamental_tensor_estimate(func, TensorProbe(base=x, step=step), u, v)
            assert got == tensor_loop(func, x, u, v, step=step), func


def trajectory(count, duration=2.0):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ts = np.linspace(0.0, duration, count)
    return Trajectory.from_samples([(t, np.cos(t) * sx + (1.0 + 0.5 * np.sin(t)) * sz)
                                    for t in ts])


@pytest.mark.parametrize("count", [2, 11, 40])  # Simpson, and trapezoid on an even count
def test_action_matches_the_per_sample_loop(count):
    traj = trajectory(count)
    for func in catalog(2) + [SpectrumNorm()]:
        assert action(func, traj) == action_loop(func, traj), func


@pytest.mark.parametrize("func", [Schatten(p=2), constraints.EnergyUncertainty(psi=basis_state(3))],
                         ids=["schatten", "dimension-3"])
def test_action_validates_each_sample_as_the_loop(func):
    traj = trajectory(5)
    hams = traj.hamiltonians.copy()
    hams[3] += 0.5 * np.eye(2)  # Hermitian, not traceless
    bad = Trajectory(times=traj.times, hamiltonians=hams, duration=traj.duration)
    with pytest.raises(Exception) as want:
        action_loop(func, bad)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        action(func, bad)
    if isinstance(func, Schatten):
        assert want.type is InvariantViolationError


@pytest.mark.parametrize("sample", [0, 4])
def test_action_checks_sample_0_trace_before_the_dimension(sample):
    # the loop validated sample 0 fully before any other, so a non-traceless
    # sample 0 is named ahead of a dimension mismatch, and a later one after it
    func = constraints.EnergyUncertainty(psi=basis_state(3))
    traj = trajectory(5)
    hams = traj.hamiltonians.copy()
    hams[sample] += 0.5 * np.eye(2)
    bad = Trajectory(times=traj.times, hamiltonians=hams, duration=traj.duration)
    with pytest.raises(Exception) as want:
        action_loop(func, bad)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        action(func, bad)
    assert want.type is (InvariantViolationError if sample == 0 else DimensionMismatchError)


def test_trajectory_rejects_non_square_samples():
    with pytest.raises(DimensionMismatchError, match=re.escape("expected a square matrix, got shape (2, 3)")):
        Trajectory(times=[0.0, 1.0], hamiltonians=np.zeros((2, 2, 3)), duration=1.0)
