"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest -s`` to see them on success).  Tolerances are pinned
here and nowhere else.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np

import qslkit
from qslkit import (
    EnergyUncertainty,
    GroundShiftedMoment,
    Max,
    Min,
    Randers,
    Schatten,
    SpectralRange,
    Sum,
    Trajectory,
    action,
    basis_state,
    conj_min_time,
    evaluate,
    gate_time,
    geodesic_vector_check,
    haar_su,
    principal_log,
    sample_generic_probe,
)
from qslkit.gates import orthogonalizer

from grid_oracle import RANDERS_METRIC_DIAG, RANDERS_GRID_MIN_001, randers_grid_min


def report(number, name, passed, detail):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------

def test_criterion_1_ground_moment_family():
    # warm caches so the timing covers the computation, not module setup
    gate_time(GroundShiftedMoment(p=1, psi=basis_state(2)), 1.0, orthogonalizer(np.pi, 2))
    tic = time.perf_counter()
    worst = 0.0
    for p in (1.0, 2.0, 3.0):
        for n in (2, 3, 4):
            res = gate_time(GroundShiftedMoment(p=p, psi=basis_state(n)), 1.0,
                            orthogonalizer(np.pi, n))
            worst = max(worst, abs(res.time - np.pi / 2.0 ** (1.0 / p)))
    elapsed = time.perf_counter() - tic
    report(1, "ground-moment family times", worst < 1e-9 and elapsed < 1.0,
           f"max abs error {worst:.3e}, {elapsed:.3f}s")


def test_criterion_2_energy_uncertainty():
    worst = 0.0
    for n in (2, 3, 4):
        res = gate_time(EnergyUncertainty(psi=basis_state(n)), 1.0,
                        orthogonalizer(np.pi, n))
        worst = max(worst, abs(res.time - np.pi / 2.0))
    report(2, "energy-uncertainty time", worst < 1e-9, f"max abs error {worst:.3e}")


def test_criterion_3_spectral_range():
    worst = 0.0
    for n in (2, 3, 4):
        res = gate_time(SpectralRange(), 1.0, orthogonalizer(np.pi, n))
        worst = max(worst, abs(res.time - np.pi))
    report(3, "spectral-range time", worst < 1e-9, f"max abs error {worst:.3e}")


def test_criterion_4_invariance_geodesic_crosscheck():
    def invariant_catalog():
        return [
            Schatten(p=1), Schatten(p=2), Schatten(p=3), Schatten(p=math.inf),
            SpectralRange(),
            Max(children=(Schatten(p=2), SpectralRange())),
            Min(children=(Schatten(p=1), Schatten(p=2))),
            Sum(children=(Schatten(p=2), SpectralRange())),
        ]

    def non_invariant_catalog(n):
        d = n * n - 1
        drift = np.zeros(d)
        drift[0] = 0.2
        return [
            GroundShiftedMoment(p=1, psi=basis_state(n)),
            GroundShiftedMoment(p=2, psi=basis_state(n)),
            EnergyUncertainty(psi=basis_state(n)),
            Randers(metric=np.eye(d), oneform=drift),
        ]

    tic = time.perf_counter()
    worst_residual = 0.0
    for n in (2, 3):
        rng = np.random.default_rng(1000 + n)
        for func in invariant_catalog():
            for _ in range(50):
                x = sample_generic_probe(func, n, rng)
                rep = geodesic_vector_check(func, x)
                worst_residual = max(worst_residual, rep.normalized_max)
                assert rep.passes, (func, rep.normalized_max)
    missing = []
    for n in (2, 3):
        rng = np.random.default_rng(2000 + n)
        for func in non_invariant_catalog(n):
            for k in range(200):
                x = sample_generic_probe(func, n, rng)
                if not geodesic_vector_check(func, x).passes:
                    break
            else:
                missing.append((n, func.kind))
    elapsed = time.perf_counter() - tic
    report(4, "invariance/geodesic cross-check",
           worst_residual < 1e-6 and not missing and elapsed < 60.0,
           f"worst invariant residual {worst_residual:.3e}, "
           f"unrefuted non-invariant {missing}, {elapsed:.1f}s")


def test_criterion_5_branch_minimization():
    def brute_force(u, n_max):
        theta = np.angle(np.linalg.eigvals(u))
        total = int(np.rint(theta.sum() / (2 * np.pi)))
        best = math.inf
        for vec in itertools.product(range(-n_max, n_max + 1), repeat=len(theta)):
            if sum(vec) == -total:
                best = min(best, float(np.linalg.norm(theta + 2 * np.pi * np.array(vec))))
        return best

    worst_vs_principal = 0.0
    worst_vs_brute = 0.0
    for n in (2, 3):
        for k in range(50):
            u = haar_su(n, seed=5000 + 100 * n + k)
            wide = gate_time(Schatten(p=2), 1.0, u, n_max=3)
            principal_value = evaluate(Schatten(p=2), principal_log(u).value)
            worst_vs_principal = max(worst_vs_principal, abs(wide.f_value - principal_value))
            worst_vs_brute = max(worst_vs_brute, abs(wide.f_value - brute_force(u, 3)))
    report(5, "principal branch dominance",
           worst_vs_principal < 1e-10 and worst_vs_brute < 1e-10,
           f"vs principal {worst_vs_principal:.3e}, vs brute force {worst_vs_brute:.3e}")


def test_criterion_6_reparametrization_invariance():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    def ham(t):
        return np.cos(t) * sx + (1.0 + 0.5 * np.sin(t)) * sz

    duration = 2.0
    ts = np.linspace(0.0, duration, 1001)
    base = Trajectory(times=ts, hamiltonians=np.stack([ham(t) for t in ts]),
                      duration=duration)
    reference = action(Schatten(p=2), base)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(5):
        c = rng.uniform(0.2, 2.0, size=3)
        c /= c.sum()

        def phi(s):
            u = s / duration
            return duration * (c[0] * u + c[1] * u ** 2 + c[2] * u ** 3)

        def dphi(s):
            u = s / duration
            return c[0] + 2 * c[1] * u + 3 * c[2] * u ** 2

        hams = np.stack([dphi(s) * ham(phi(s)) for s in ts])
        warped = action(Schatten(p=2), Trajectory(times=ts, hamiltonians=hams,
                                                  duration=duration))
        worst = max(worst, abs(warped - reference) / abs(reference))
    report(6, "reparametrization invariance", worst < 1e-6,
           f"max relative deviation {worst:.3e}")


def test_criterion_7_conjugation_minimization():
    gate = orthogonalizer(np.pi, 2)

    invariant = conj_min_time(Schatten(p=2), 1.0, gate, restarts=8, seed=11)
    plain = gate_time(Schatten(p=2), 1.0, gate)
    invariant_gap = abs(invariant.time - plain.time)

    moment = conj_min_time(GroundShiftedMoment(p=1, psi=basis_state(2)), 1.0,
                           gate, restarts=8, seed=12)

    randers = Randers(metric=np.diag(RANDERS_METRIC_DIAG), oneform=np.zeros(3))
    searched = conj_min_time(randers, 1.0, gate, restarts=8, seed=13)
    oracle = randers_grid_min(0.01)
    assert oracle == RANDERS_GRID_MIN_001  # frozen copy of the same grid
    grid_gap = abs(searched.time - oracle)

    report(7, "conjugation minimization",
           invariant_gap < 1e-8 and moment.time < 1e-6 and grid_gap < 1e-4,
           f"invariant gap {invariant_gap:.3e}, moment infimum {moment.time:.3e}, "
           f"grid-oracle gap {grid_gap:.3e}")


def test_criterion_8_reproduce_determinism():
    cmd = [sys.executable, "-m", "qslkit", "reproduce", "--seed", "42"]
    # the children import the qslkit under test, also under a bare `pytest`
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qslkit.__file__)))
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    identical = first.stdout == second.stdout and first.returncode == second.returncode == 0
    all_pass = first.stdout.decode().splitlines()[-1] == "all rows PASS"
    report(8, "reproduction determinism", identical and all_pass,
           f"{len(first.stdout)} bytes, byte-identical {identical}, suite pass {all_pass}")
