"""The benchmark's four closed-loop workloads.

Each workload is driven by one caller that issues the next operation only
after the previous one returns.  A workload's mix is a fixed, stratified
round of cells with equal counts per cell; the round order is a fixed
shuffle, so a run cut at any point still samples every cell evenly.  The run
seed draws only the Haar gates and the optimizer/sampler starting points.

For each workload:
  ``build``     constructs the constraint catalog (part of ``setup_s``);
  ``generate``  makes the inputs from the seed before timing starts;
  ``run``       performs one operation through qslkit's public API;
  ``check``     judges one output against an independent oracle, untimed;
  ``replay``    in traced runs, calls the lower-layer public functions that
                an operation uses, directly and on the operation's own
                inputs, so each layer can be timed without patching qslkit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np
import qslkit as q
from qslkit import cli, jsonio, linalg

import oracles

PI = math.pi
INVARIANCE_THRESHOLD = 1e-8
GEODESIC_THRESHOLD = 1e-6
RANDERS_GRID_DIAG = (1.0, 0.49, 0.25)   # the criterion-7 Randers instance
EVAL_SAMPLE = 4     # branches per operation whose F evaluation a replay times


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """Spans and notes recorded on the benchmark's side of each call.

    A span is (phase, name, start, end, parent index, tag), where the tag is
    the dimension of the operation being traced; a note is a value (a count,
    an iteration number, a flag) attached to a name.  Everything stays in
    memory until the run ends.
    """

    def __init__(self):
        self.phase = None
        self.tag = None
        self.spans = []
        self.notes = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((self.phase, name, start, perf_counter(), parent, self.tag))

    def call(self, name, fn, *args, **kwargs):
        """Time one successful call; a call that raises records no span."""
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        self.spans.append((self.phase, name, start, end,
                           self._stack[-1] if self._stack else None, self.tag))
        return result

    def note(self, name, value):
        self.notes.append((self.phase, name, float(value)))


class NullTracer:
    """Tracing off: spans cost one context-manager entry, notes nothing."""

    _null = contextlib.nullcontext()
    tag = None

    def span(self, name):
        return self._null

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, name, value):
        pass


NULL = NullTracer()


def traced_evaluate(tr, func, x):
    """Time evaluate() of a constraint and, separately, of each child."""
    tr.call(f"constraints.evaluate.{func.kind}", q.evaluate, func, x, validate=False)
    for child in func.children:
        traced_evaluate(tr, child, x)


def traced_gate_time(tr, func, gate, n_max, top=True):
    """The calls gate_time makes: eigendecomposition, branch enumeration,
    the principal branch (invariant atoms and empty windows) and one F
    evaluation per branch."""
    tr.call("linalg.eig_normal", linalg.eig_normal, gate)
    branches = tr.call("linalg.log_branches", linalg.log_branches, gate, n_max)
    tr.note("linalg.log_branches.branches", len(branches))
    with contextlib.suppress(q.QslError):
        tr.call("linalg.principal_log", linalg.principal_log, gate)
    for b in branches[:EVAL_SAMPLE]:
        traced_evaluate(tr, func, b.value)
    if top:
        with contextlib.suppress(q.QslError):
            res = tr.call("gatetime.gate_time", q.gate_time, func, 1.0, gate, n_max=n_max)
            tr.note("gatetime.gate_time.branches_considered",
                    res.diagnostics.branches_considered)


def traced_conj_search(tr, func, gate, restarts, seed, top=True):
    """The calls conj_min_time makes: the principal log, the starting
    points, and objective calls expm(from_coords(c)) -> V X V^dagger -> F."""
    n = gate.shape[0]
    tr.call("linalg.eig_normal", linalg.eig_normal, gate)
    x = tr.call("linalg.principal_log", linalg.principal_log, gate).value
    rng = np.random.default_rng(seed)
    starts = [np.zeros(n * n - 1)]
    for _ in range(restarts - 1):
        starts.append(linalg.basis_coords(linalg.principal_log(q.haar_su(n, rng)).value))
    for c in starts:
        tr.call("linalg.expm", linalg.expm, linalg.from_coords(c, n))
        with tr.span("gatetime.conj_objective"):
            v = linalg.expm(linalg.from_coords(c, n))
            q.evaluate(func, v @ x @ v.conj().T, validate=False)
    traced_evaluate(tr, func, x)
    if top:
        res = tr.call("gatetime.conj_min_time", q.conj_min_time, func, 1.0, gate,
                      restarts=restarts, seed=seed)
        note_conj(tr, res)


def note_conj(tr, res):
    tr.note("gatetime.conj_min_time.best_nit", res.diagnostics.optimizer_iterations)
    tr.note("gatetime.conj_min_time.converged_frac", res.diagnostics.converged)


def traced_geodesic(tr, func, gate, branch_sweep, top=True):
    """The calls gate_geodesic_check makes: the logarithm branches, one
    geodesic_vector_check per branch, and the fundamental tensor per
    direction of the su(n) basis."""
    tr.call("linalg.eig_normal", linalg.eig_normal, gate)
    if branch_sweep > 0:
        branches = tr.call("linalg.log_branches", linalg.log_branches, gate, branch_sweep)
        tr.note("linalg.log_branches.branches", len(branches))
        xs = [b.value for b in branches]
    else:
        xs = [tr.call("linalg.principal_log", linalg.principal_log, gate).value]
    for x in xs[:2]:
        tr.call("geometry.geodesic_vector_check", q.geodesic_vector_check, func, x)
    probe = q.TensorProbe(base=xs[0])
    for t in linalg.su_basis(gate.shape[0])[:3]:
        tr.call("geometry.fundamental_tensor", q.fundamental_tensor, func, probe, xs[0],
                linalg.commutator(xs[0], t))
    traced_evaluate(tr, func, xs[0])
    if top:
        tr.call("geometry.gate_geodesic_check", q.gate_geodesic_check, func, gate,
                branch_sweep=branch_sweep)


def decades(statistic, threshold):
    """Distance, in decades, between a verdict's statistic and its threshold."""
    return abs(math.log10(max(statistic, 1e-300) / threshold))


class HostProbe:
    """A fixed piece of small-matrix numpy and interpreter work whose time
    tracks how fast the host runs at the moment.

    On a virtual machine sharing its host, the speed of a vCPU moves by up to
    1.7x from one stretch of a few seconds to the next, and every timing
    moves with it.  The probe is timed next to the work it describes (around
    each operation of the timed loop, after each set-up), so run.py can
    state each timing at the probe's reference time REF_MS: its median on a
    2-vCPU x86_64 virtual machine while the host was in its fast state.
    """

    REF_MS = 0.28

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.times = []

    def __call__(self):
        # the fastest of three back-to-back passes: the first refills the
        # caches that the preceding operation evicted, which would otherwise
        # tie the probe to that operation's memory use
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(8):
                w, v = np.linalg.eig(self.matrix)
                x = v @ np.diag(np.exp(1j * w)) @ v.conj().T
                sum(abs(complex(z)) for z in x.flat)
            best = min(best, perf_counter() - t0)
        self.times.append(best)
        return best

    def median_ms(self):
        return float(np.median(self.times)) * 1e3


# ---------------------------------------------------------------------------
# Operations and workloads
# ---------------------------------------------------------------------------

@dataclass
class Op:
    cell: str
    n: int
    func: object = None
    gate: Optional[np.ndarray] = None
    seed: int = 0
    invariant: Optional[bool] = None
    argv: Optional[tuple] = None


class Workload:
    name = ""
    # op_tail_ms percentile: at the baseline the highest with >= 10 samples
    # beyond it, kept inside one latency cluster of the mix so that it does
    # not jump between cells from run to run; fixed so runs stay comparable
    tail_pct = 50.0
    rounds_pregenerated = 32

    def build(self):
        raise NotImplementedError

    def cells(self):
        """The stratified round: (cell, n, func, fixed gate or None, extra)."""
        raise NotImplementedError

    def generate(self, rng):
        template = self.cells()
        random.Random(0).shuffle(template)  # fixed order, independent of the seed
        self.round_size = len(template)
        ops = []
        for _ in range(self.rounds_pregenerated):
            for cell, n, func, gate, extra in template:
                ops.append(Op(cell=cell, n=n, func=func,
                              gate=q.haar_su(n, rng) if gate is None else gate,
                              seed=int(rng.integers(2 ** 31)), **extra))
        return ops

    def warmup(self, rng):
        """One operation per dimension, on inputs the timed loop never sees."""
        ops, seen = [], set()
        for op in self.generate(rng)[:self.round_size]:
            if op.n not in seen:
                seen.add(op.n)
                ops.append(op)
        return ops

    def fault_ops(self):
        """Inputs that hit a known fault.  They are kept out of the timed mix,
        whose operations must all succeed, and run once per run, untimed, so
        that every run still reports each fault by class."""
        return []

    def fail_class(self, op, exc):
        return type(exc).__name__

    def margins(self, op, out):
        return []

    def close(self):
        pass


def _drift(n, scale):
    b = np.zeros(n * n - 1)
    b[0] = scale
    return b


def _s2_range_max():
    return q.Max(children=(q.Schatten(p=2), q.SpectralRange()))


class BranchScan(Workload):
    """gate_time(F, 1, U, n_max=2): branch enumeration plus per-branch F."""

    name = "branch_scan"
    tail_pct = 95.0
    N_MAX = 2
    DIMS = (4, 5, 6)
    HAAR_PER_CELL = 3
    INVARIANT_ATOMS = ("s2", "sinf", "range")

    def build(self):
        self.catalog = {n: [
            ("s2", q.Schatten(p=2)),
            ("sinf", q.Schatten(p=math.inf)),
            ("range", q.SpectralRange()),
            ("max", _s2_range_max()),
            ("ml1", q.GroundShiftedMoment(p=1, psi=q.basis_state(n))),
            ("randers", q.Randers(metric=np.eye(n * n - 1), oneform=_drift(n, 0.2))),
        ] for n in self.DIMS}

    def cells(self):
        out = []
        for n in self.DIMS:
            structured = [(f"orthogonalizer:pi:{n}", q.orthogonalizer(PI, n)),
                          (f"qft:{n}", q.qft(n))]
            for label, func in self.catalog[n]:
                out += [(f"haar{n}/{label}", n, func, None, {})] * self.HAAR_PER_CELL
                out += [(f"{g}/{label}", n, func, gate, {}) for g, gate in structured
                        if not self._faults(g, label)]
        return out

    def _faults(self, gate_label, label):
        # on qft:6 the principal-branch check that gate_time makes for the
        # invariant atoms raises DegenerateBranchTieError
        return gate_label == "qft:6" and label in self.INVARIANT_ATOMS

    def fault_ops(self):
        return [Op(cell=f"qft:6/{label}", n=6, func=func, gate=q.qft(6))
                for label, func in self.catalog[6] if self._faults("qft:6", label)]

    def run(self, op, tr):
        with tr.span("gatetime.gate_time"):
            res = q.gate_time(op.func, 1.0, op.gate, n_max=self.N_MAX)
        tr.note("gatetime.gate_time.branches_considered", res.diagnostics.branches_considered)
        return res.f_value, res.diagnostics.branches_considered

    def check(self, op, out):
        f_value, count = out
        theta, vecs = oracles.eig_unitary(op.gate)
        phi = oracles.brute_force_branches(theta, self.N_MAX)
        ref = float(oracles.spectral_values(op.func, phi, vecs).min())
        if abs(f_value - ref) > 1e-9:
            return f"f_value {f_value!r} differs from brute force {ref!r}"
        if count != len(phi):
            return f"{count} branches considered, brute force has {len(phi)}"
        return None

    def replay(self, op, tr):
        traced_gate_time(tr, op.func, op.gate, self.N_MAX, top=False)


class ConjSearch(Workload):
    """conj_min_time(F, 1, U, restarts=8): Nelder-Mead over conjugations."""

    name = "conj_search"
    tail_pct = 80.0
    RESTARTS = 8
    DIMS = (2, 3)
    rounds_pregenerated = 16
    RANDERS_MIN = PI / math.sqrt(2.0) * math.sqrt(min(RANDERS_GRID_DIAG))

    def build(self):
        self.catalog = {n: [
            ("ml1", q.GroundShiftedMoment(p=1, psi=q.basis_state(n))),
            ("mt", q.EnergyUncertainty(psi=q.basis_state(n))),
            ("randers", q.Randers(
                metric=np.diag(RANDERS_GRID_DIAG if n == 2 else np.linspace(1.0, 0.25, n * n - 1)),
                oneform=np.zeros(n * n - 1))),
            ("max", _s2_range_max()),
        ] for n in self.DIMS}
        self.criterion7 = [
            ("s2", q.Schatten(p=2)),
            ("ml1", self.catalog[2][0][1]),
            ("randers", self.catalog[2][2][1]),
        ]

    def cells(self):
        out = [(f"haar{n}/{label}", n, func, None, {"invariant": label == "max"})
               for n in self.DIMS for label, func in self.catalog[n]]
        gate = q.orthogonalizer(PI, 2)
        out += [(f"criterion7/{label}", 2, func, gate, {"invariant": label == "s2"})
                for label, func in self.criterion7]
        return out

    def run(self, op, tr):
        with tr.span("gatetime.conj_min_time"):
            res = q.conj_min_time(op.func, 1.0, op.gate, restarts=self.RESTARTS, seed=op.seed)
        note_conj(tr, res)
        return res

    def check(self, op, res):
        theta, vecs = oracles.eig_unitary(op.gate)
        phi = oracles.principal_log_angles(theta)
        principal = float(oracles.spectral_values(op.func, phi, vecs)[0])
        if res.f_value > principal + 1e-12:
            return f"f_value {res.f_value!r} above the principal-branch value {principal!r}"
        x = oracles.assemble(phi, vecs)
        v = res.conjugator
        again = oracles.value(op.func, v @ x @ v.conj().T)
        # mt is the square root of a variance: near zero, a rounding error of
        # 1e-17 in the variance moves F by 3e-9, so agreement of F**2 counts
        if abs(again - res.f_value) > 1e-9 and abs(again ** 2 - res.f_value ** 2) > 1e-9:
            return f"F(V X V^dagger) = {again!r} does not reproduce f_value {res.f_value!r}"
        if op.invariant:
            # n_max=1 always holds the principal branch, so the reference is
            # defined for every gate this workload draws
            ref = q.gate_time(op.func, 1.0, op.gate, n_max=1).time
            if abs(res.time - ref) > 1e-8:
                return f"invariant F: time {res.time!r} differs from gate_time {ref!r}"
        if op.cell == "criterion7/ml1" and not res.time < 1e-6:
            return f"moment infimum {res.time!r} not below 1e-6"
        if op.cell == "criterion7/randers" and abs(res.time - self.RANDERS_MIN) >= 1e-4:
            return f"Randers minimum {res.time!r} differs from {self.RANDERS_MIN!r}"
        return None

    def replay(self, op, tr):
        traced_conj_search(tr, op.func, op.gate, self.RESTARTS, op.seed, top=False)


class GeometryScreen(Workload):
    """check_ad_invariance(F, n, samples=200), then gate_geodesic_check(F, U,
    branch_sweep=1), per (F, n, U)."""

    name = "geometry_screen"
    tail_pct = 90.0
    DIMS = (2, 3, 4)
    SAMPLES = 200
    BRANCH_SWEEP = 1

    def build(self):
        self.catalog = {n: [
            ("s1", q.Schatten(p=1), True),
            ("s2", q.Schatten(p=2), True),
            ("sinf", q.Schatten(p=math.inf), True),
            ("range", q.SpectralRange(), True),
            ("max", _s2_range_max(), True),
            ("sum", q.Sum(children=(q.Schatten(p=2), q.SpectralRange())), True),
            ("ml1", q.GroundShiftedMoment(p=1, psi=q.basis_state(n)), False),
            ("ml2", q.GroundShiftedMoment(p=2, psi=q.basis_state(n)), False),
            ("mt", q.EnergyUncertainty(psi=q.basis_state(n)), False),
            ("randers", q.Randers(metric=np.eye(n * n - 1), oneform=_drift(n, 0.2)), False),
        ] for n in self.DIMS}

    def cells(self):
        return [(f"haar{n}/{label}", n, func, None, {"invariant": inv})
                for n in self.DIMS for label, func, inv in self.catalog[n]]

    def run(self, op, tr):
        with tr.span("geometry.check_ad_invariance"):
            inv = q.check_ad_invariance(op.func, op.n, samples=self.SAMPLES, seed=op.seed)
        with tr.span("geometry.gate_geodesic_check"):
            geo = q.gate_geodesic_check(op.func, op.gate, branch_sweep=self.BRANCH_SWEEP)
        return inv, geo

    def check(self, op, out):
        inv, geo = out
        if inv.ad_invariant != op.invariant:
            return f"invariance verdict {inv.ad_invariant} (deviation {inv.max_deviation:.3e})"
        if op.invariant:
            if not geo.passes:
                return f"invariant F fails the geodesic check ({geo.normalized_max:.3e})"
            return None
        theta, vecs = oracles.eig_unitary(op.gate)
        residual = min(oracles.orbit_residual(op.func, oracles.assemble(phi, vecs))
                       for phi in oracles.brute_force_branches(theta, self.BRANCH_SWEEP))
        if residual > 10 * GEODESIC_THRESHOLD and geo.passes:
            return f"passes, but the orbit residual is {residual:.3e}"
        if residual < GEODESIC_THRESHOLD / 10 and not geo.passes:
            return f"fails ({geo.normalized_max:.3e}), but the orbit residual is {residual:.3e}"
        return None

    def margins(self, op, out):
        inv, geo = out
        return [decades(inv.max_deviation, INVARIANCE_THRESHOLD),
                decades(geo.normalized_max, GEODESIC_THRESHOLD)]

    def replay(self, op, tr):
        traced_evaluate(tr, op.func, q.random_algebra_element(op.n, op.seed))
        traced_geodesic(tr, op.func, op.gate, self.BRANCH_SWEEP, top=False)


class CommandFailed(Exception):
    def __init__(self, code, stderr):
        super().__init__(f"exit {code}: {stderr.strip()[-200:]}")
        self.code = code


class CliSession(Workload):
    """A fixed script of `qsl` commands, one at a time, through
    ``qslkit.cli.main`` in the workload's process.

    The commands run in process because the time a child process takes to
    start moves with the shared host in a way that no probe run beside it
    tracks.  What a child adds, interpreter start-up and `import qslkit`, is
    measured as set-up time on every workload and, in traced runs, by the
    cli.interpreter_s and cli.import_s probes.

    `time` runs with its default n_max=0, whose window holds a traceless
    branch only when the gate's principal eigenangles sum to zero.  The
    scripted Haar gates are drawn from those; a Haar gate whose angles do not
    sum to zero, which `time` rejects with exit 4, is the known-fault input.
    """

    name = "cli_session"
    tail_pct = 90.0
    HAAR_FILES = (("h3", 3), ("h4", 4), ("h5", 5), ("h5b", 5), ("h6", 6))
    FAULT_DIM = 4
    CONJ_RESTARTS = 4

    def build(self):
        self.catalog = {
            "s2.json": q.Schatten(p=2),
            "max.json": _s2_range_max(),
            "mt4.json": q.EnergyUncertainty(psi=q.basis_state(4)),
            "ml5.json": q.GroundShiftedMoment(p=1, psi=q.basis_state(5)),
            "ml3.json": q.GroundShiftedMoment(p=2, psi=q.basis_state(3)),
            "randers2.json": q.Randers(metric=np.diag(RANDERS_GRID_DIAG), oneform=np.zeros(3)),
        }

    def script(self):
        orth = f"orthogonalizer:{PI!r}:2"
        return [
            ("time", "--gate", "file:h3.json", "--constraint", "s2.json"),
            ("time", "--gate", "file:h6.json", "--constraint", "max.json", "--output", "json"),
            ("branches", "--gate", "file:h3.json", "--output", "json"),
            ("time", "--gate", "file:h4.json", "--constraint", "mt4.json", "--output", "json"),
            ("invariance", "--constraint", "max.json", "--dim", "3", "--output", "json"),
            ("conjmin", "--gate", orth, "--constraint", "randers2.json",
             "--restarts", str(self.CONJ_RESTARTS), "--output", "json"),
            ("time", "--gate", "file:h5.json", "--constraint", "ml5.json", "--output", "csv"),
            ("action", "--constraint", "s2.json", "--trajectory", "traj.json", "--output", "csv"),
            ("geodesic", "--gate", "file:h4.json", "--constraint", "mt4.json", "--output", "json"),
            ("classify", "--constraint", "ml3.json"),
            ("reproduce", "--seed", "42"),
            ("time", "--gate", "file:h5b.json", "--constraint", "s2.json", "--output", "json"),
        ]

    def generate(self, rng):
        here = os.path.dirname(os.path.abspath(__file__))
        self.workdir = os.path.join(here, "_work", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.gates = {}
        for stem, n in self.HAAR_FILES:
            self._save_gate(stem, _haar_where(n, rng, lambda u: linalg.log_branches(u, 0)))
        self._save_gate("fault", _haar_where(self.FAULT_DIM, rng,
                                             lambda u: not linalg.log_branches(u, 0)))
        for fname, func in self.catalog.items():
            with open(os.path.join(self.workdir, fname), "w") as fh:
                fh.write(jsonio.dumps_canonical(jsonio.constraint_to_json(func)))
        with open(os.path.join(self.workdir, "traj.json"), "w") as fh:
            fh.write(jsonio.dumps_canonical(_trajectory()))
        self.first_stdout = {}
        self.reference = {}
        script = self.script()
        self.round_size = len(script)
        return [Op(cell=f"{i:02d}/{argv[0]}", n=0, argv=argv) for i, argv in enumerate(script)]

    def _save_gate(self, stem, gate):
        path = os.path.join(self.workdir, f"{stem}.json")
        jsonio.save_matrix(path, gate)
        self.gates[f"file:{stem}.json"] = jsonio.load_matrix(path)

    def warmup(self, rng):
        return [Op(cell="warmup", n=0, argv=argv) for argv in self.script()]

    def fault_ops(self):
        return [Op(cell="time n_max=0 on a Haar gate with nonzero winding", n=0,
                   argv=("time", "--gate", "file:fault.json", "--constraint", "s2.json"))]

    def run(self, op, tr):
        out, err = io.StringIO(), io.StringIO()
        with tr.span(f"cli.main.{op.argv[0]}"), _chdir(self.workdir), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        if code != 0:
            raise CommandFailed(code, err.getvalue())
        return out.getvalue()

    def _arg(self, op, flag):
        argv = op.argv
        return argv[argv.index(flag) + 1] if flag in argv else None

    def _library_time(self, op):
        """The in-process result of a `time` command, or the exception it raises."""
        if op.cell not in self.reference:
            func = self.catalog[self._arg(op, "--constraint")]
            gate = self.gates[self._arg(op, "--gate")]
            try:
                self.reference[op.cell] = q.gate_time(func, 1.0, gate).time
            except q.QslError as exc:
                self.reference[op.cell] = exc
        return self.reference[op.cell]

    def fail_class(self, op, exc):
        if not isinstance(exc, CommandFailed):
            return type(exc).__name__
        if op.argv[0] == "time":
            ref = self._library_time(op)
            if isinstance(ref, Exception):
                return f"{type(ref).__name__} (exit {exc.code})"
        return f"exit {exc.code}"

    def check(self, op, stdout):
        first = self.first_stdout.setdefault(op.cell, stdout)
        if stdout != first:
            return "stdout differs from an earlier run of the same command"
        text = stdout
        command = op.argv[0]
        if command == "reproduce" and text.splitlines()[-1] != "all rows PASS":
            return "reproduce does not end with 'all rows PASS'"
        if "json" not in op.argv or command not in ("time", "conjmin"):
            return None
        reported = json.loads(text)["time"]
        if command == "time":
            ref = self._library_time(op)
        else:
            if op.cell not in self.reference:
                self.reference[op.cell] = q.conj_min_time(
                    self.catalog[self._arg(op, "--constraint")], 1.0,
                    q.parse_gate_spec(self._arg(op, "--gate")),
                    restarts=self.CONJ_RESTARTS, seed=0).time
            ref = self.reference[op.cell]
        if isinstance(ref, Exception) or abs(reported - ref) > 1e-12:
            return f"JSON time {reported!r} differs from the library's {ref!r}"
        return None

    def margins(self, op, stdout):
        if "json" not in op.argv or op.argv[0] not in ("invariance", "geodesic"):
            return []
        report = json.loads(stdout)
        stat = report["max_deviation" if op.argv[0] == "invariance" else "normalized_max"]
        return [decades(stat, report["threshold"])]

    def replay(self, op, tr):
        argv = list(op.argv)
        command = argv[0]
        out = io.StringIO()
        with _chdir(self.workdir), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            tr.call(f"cli.main.{command}", cli.main, argv)
            constraint = self._arg(op, "--constraint")
            if constraint:
                tr.call("jsonio.parse_constraint_arg", jsonio.parse_constraint_arg, constraint)
            gate_spec = self._arg(op, "--gate")
            if gate_spec and gate_spec.startswith("file:"):
                tr.call("jsonio.load_matrix", jsonio.load_matrix, gate_spec[5:])
        if "json" in argv and out.getvalue():
            tr.call("jsonio.dumps_canonical", jsonio.dumps_canonical, json.loads(out.getvalue()))
        func = self.catalog.get(constraint)
        gate = self.gates.get(gate_spec) if gate_spec else None
        if command == "time":
            traced_gate_time(tr, func, gate, 0)
        elif command == "branches":
            tr.call("linalg.eig_normal", linalg.eig_normal, gate)
            branches = tr.call("linalg.log_branches", linalg.log_branches, gate, 1)
            tr.note("linalg.log_branches.branches", len(branches))
        elif command == "conjmin":
            traced_conj_search(tr, func, q.parse_gate_spec(gate_spec), self.CONJ_RESTARTS, 0)
        elif command in ("invariance", "classify"):
            dim = int(self._arg(op, "--dim") or func.dim or 3)
            tr.call("geometry.check_ad_invariance", q.check_ad_invariance, func, dim,
                    samples=200, seed=0)
        elif command == "geodesic":
            traced_geodesic(tr, func, gate, 0)
        elif command == "action":
            for h in _trajectory_hamiltonians()[:EVAL_SAMPLE]:
                traced_evaluate(tr, func, -1j * h)
        elif command == "reproduce":
            for family, p, n in cli._REPRODUCE_CASES:
                anchor = q.basis_state(n)
                rep = (q.GroundShiftedMoment(p=p, psi=anchor) if family == "ml"
                       else q.EnergyUncertainty(psi=anchor) if family == "mt"
                       else q.SpectralRange())
                traced_gate_time(tr, rep, q.orthogonalizer(PI, n), 0)

    def close(self):
        shutil.rmtree(getattr(self, "workdir", ""), ignore_errors=True)


def _haar_where(n, rng, accept, tries=1000):
    """The first Haar gate drawn from ``rng`` that ``accept`` holds for."""
    for _ in range(tries):
        gate = q.haar_su(n, rng)
        if accept(gate):
            return gate
    raise RuntimeError(f"no accepted Haar gate of dimension {n} in {tries} draws")


@contextlib.contextmanager
def _chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _trajectory_hamiltonians():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return [np.cos(t) * sx + (1.0 + 0.5 * np.sin(t)) * sz for t in np.linspace(0.0, 2.0, 101)]


def _trajectory():
    ts = np.linspace(0.0, 2.0, 101)
    return {"duration": 2.0,
            "samples": [{"t": float(t), "matrix": jsonio.matrix_to_json(h)}
                        for t, h in zip(ts, _trajectory_hamiltonians())]}


WORKLOADS = {w.name: w for w in (BranchScan, ConjSearch, GeometryScreen, CliSession)}
