"""One workload in one fresh interpreter; run.py starts it and reads its report.

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python bench/worker.py --workload NAME --setup-only

The report is one JSON line on stdout.  Nothing else is printed there:
cli_session captures the output of the commands it runs.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

IMPORT_PROBES = 3
SETUP_HOST_PROBES = 5
EXIT_ORACLE = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def timed_loop(wl, ops, start, seconds, tr, probe):
    """Closed loop: issue operations in sequence until ``seconds`` elapse and
    at least one whole round of the mix has run, so every cell has a sample.

    The host probe runs before the first operation and after each one,
    outside their times; each operation is paired with the mean of the two
    probes around it, which saw the host in the state the operation ran in.
    """
    records = []
    i = start
    before = probe()
    t_start = perf_counter()
    deadline = t_start + seconds
    while True:
        op = ops[i % len(ops)]
        i += 1
        tr.tag = op.n
        t0 = perf_counter()
        try:
            out, exc = wl.run(op, tr), None
        except Exception as e:  # every exception is a failed operation, classified later
            out, exc = None, e
        seconds_taken = perf_counter() - t0
        after = probe()
        records.append((op, out, exc, seconds_taken, (before + after) / 2))
        before = after
        if perf_counter() >= deadline and len(records) >= wl.round_size:
            return records, perf_counter() - t_start, i


def known_faults(wl, tr):
    """Run each known-fault input once, untimed: the class of what it raises,
    or "no error" once the fault is gone."""
    outcomes = {}
    for op in wl.fault_ops():
        try:
            wl.run(op, tr)
            outcomes[op.cell] = "no error"
        except Exception as exc:  # the outcome being reported
            outcomes[op.cell] = wl.fail_class(op, exc)
    return outcomes


def judge(wl, records):
    """Oracle verdicts, untimed: which operations succeeded, failure counts by
    class, and the verdict margins the outputs carry."""
    good, classes, wrong, margins = [], Counter(), [], []
    for op, out, exc, _seconds, _host in records:
        reason = None
        if exc is not None:
            classes[wl.fail_class(op, exc)] += 1
        else:
            reason = wl.check(op, out)
            if reason is not None:
                classes["wrong answer"] += 1
                wrong.append(f"{op.cell}: {reason}")
            else:
                margins += wl.margins(op, out)
        good.append(exc is None and reason is None)
    return good, classes, wrong, margins


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def import_probes():
    """Fresh-interpreter start-up, `import numpy` and `import qslkit`."""
    def child_time(code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=60)
        return float(proc.stdout)

    interp, numpy_s, qslkit_s = [], [], []
    for _ in range(IMPORT_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interp.append(perf_counter() - t0)
        numpy_s.append(child_time(
            "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"))
        qslkit_s.append(child_time(
            "import time; t = time.perf_counter(); import qslkit; print(time.perf_counter() - t)"))
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_numpy_s": statistics.median(numpy_s),
            "cli.import_s": statistics.median(qslkit_s)}


def layer_summary(tr, rounds):
    """Per span name: median duration, busy seconds per round of the mix and
    median duration per operation dimension; per note name: total per round,
    median and mean."""
    durations = defaultdict(list)
    by_dim = defaultdict(lambda: defaultdict(list))
    busy = defaultdict(float)
    for phase, name, start, end, _parent, dim in tr.spans:
        durations[name].append(end - start)
        by_dim[name][dim].append(end - start)
        busy[name] += (end - start) / rounds[phase]
    notes = defaultdict(list)
    per_round = defaultdict(float)
    for phase, name, value in tr.notes:
        notes[name].append(value)
        per_round[name] += value / rounds[phase]
    return {
        "spans": {name: {"p50": statistics.median(d), "busy": busy[name],
                         "p50_by_n": {n: statistics.median(v)
                                      for n, v in sorted(by_dim[name].items()) if n}}
                  for name, d in durations.items()},
        "notes": {name: {"per_round": per_round[name], "median": statistics.median(v),
                         "mean": statistics.fmean(v)} for name, v in notes.items()},
    }


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = _parse(argv)
    t0 = perf_counter()
    import qslkit  # timed: this is the user's start-up cost
    import_s = perf_counter() - t0
    import numpy as np
    import workloads  # imports qslkit, so after the timed import
    wl = workloads.WORKLOADS[args.workload]()
    t0 = perf_counter()
    wl.build()
    setup_s = import_s + perf_counter() - t0
    setup_probe = workloads.HostProbe()
    for _ in range(SETUP_HOST_PROBES):
        setup_probe()
    setup = {"setup_s": setup_s, "host_ms": setup_probe.median_ms(),
             "host_ref_ms": setup_probe.REF_MS}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    try:
        ops = wl.generate(np.random.default_rng(args.seed))
        for op in wl.warmup(np.random.default_rng([args.seed, 1])):
            try:
                wl.run(op, workloads.NULL)
            except Exception:  # failures here are counted when they recur in the timed loop
                pass
        probe = workloads.HostProbe()
        report = {"setup": setup, "env": environment(), "round_size": wl.round_size,
                  "round_cells": Counter(op.cell for op in ops[:wl.round_size]),
                  "tail_pct": wl.tail_pct}
        if args.trace == 0:
            records, elapsed, _ = timed_loop(wl, ops, 0, args.seconds, workloads.NULL, probe)
            report["peak_rss_mb"] = peak_rss_mb()
        else:
            half = args.seconds / 2.0
            plain, _, nxt = timed_loop(wl, ops, 0, half, workloads.NULL, probe)
            tr = workloads.Tracer()
            tr.phase = "loop"
            traced, elapsed, _ = timed_loop(wl, ops, nxt, half, tr, probe)
            tr.phase = "replay"
            for op in ops[:wl.round_size]:
                tr.tag = op.n
                # an input the library rejects was counted in the loop; its
                # replay just records fewer spans
                with contextlib.suppress(qslkit.QslError):
                    wl.replay(op, tr)
            rounds = {"loop": len(traced) / wl.round_size, "replay": 1.0}
            report["layers"] = layer_summary(tr, rounds)
            report["imports"] = import_probes()
            records = plain + traced
        report["known_faults"] = known_faults(wl, workloads.NULL)
        try:
            good, classes, wrong, margins = judge(wl, records)
        except Exception as exc:
            print(f"error: an oracle could not run: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_ORACLE
    finally:
        wl.close()
    # timings come from every operation that returned; one whose answer is
    # wrong was timed like the others and fails the run through "correct"
    returned = [r for r in records if r[2] is None]
    latencies = [r[3] for r in returned]
    host = [r[4] for r in returned]
    if args.trace == 1:
        cut = len(plain)
        for key, recs, flags in (("p50_untraced_s", plain, good[:cut]),
                                 ("p50_traced_s", traced, good[cut:])):
            kept = [r[3] for r, ok in zip(recs, flags) if ok]
            report[key] = statistics.median(kept) if kept else 0.0
    report["cells"] = [r[0].cell for r in returned]
    report.update(attempted=len(records), latencies_s=latencies, fail_classes=dict(classes),
                  wrong=wrong[:10], elapsed_s=elapsed, host_s=host, host_ref_ms=probe.REF_MS,
                  verdict_margin_min=min(margins) if margins else 0.0)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
