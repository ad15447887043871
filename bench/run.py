"""qslkit benchmark: closed-loop workloads timed end to end and layer by layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

qslkit is imported from the repository's src/ directory.  Each workload
runs in a fresh interpreter (bench/worker.py) with BLAS pinned to one
thread.  With --trace 0 the run reports the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 it reports the per-layer metrics, measured in
a separate traced pass, plus the tracing overhead.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Its
end-to-end timings are restated at a reference speed of the host, measured
by a probe timed around every operation (HostProbe in bench/workloads.py);
the raw timings are printed beside them.

An operation fails if it raises (a typed QslError included), if its CLI
child exits non-zero, or if its output disagrees with the workload's oracle.
Failures are printed by class.  "correct" is false when any output was
wrong; the run exits non-zero, printing no result, when an oracle cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("branch_scan", "conj_search", "geometry_screen", "cli_session")
SETUP_PROBES = 6          # fresh interpreters besides the worker; setup_s is the median
RUN_LIMIT_S = 170         # a worker still running after this is killed
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# per-layer metrics read from the tracer's notes rather than its spans
NOTE_STATS = {
    "linalg.log_branches.branches": "per_round",
    "gatetime.gate_time.branches_considered": "per_round",
    "gatetime.conj_min_time.best_nit": "median",
    "gatetime.conj_min_time.converged_frac": "mean",
}
SPAN_STATS = {"p50_ms": ("p50", 1e3), "p50_us": ("p50", 1e6), "busy_s": ("busy", 1.0)}


class BenchError(Exception):
    pass


def quantile(values, p):
    """Linear-interpolation quantile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env():
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **BLAS_PIN)


def worker(args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def by_cell(rep, at_ref=False):
    """Latencies per cell of the mix; with ``at_ref``, each restated at the
    reference host speed by the host probe timed around it."""
    cells = defaultdict(list)
    ref_s = rep["host_ref_ms"] * 1e-3
    for cell, t, host_s in zip(rep["cells"], rep["latencies_s"], rep["host_s"]):
        cells[cell].append(t * ref_s / host_s if at_ref else t)
    return cells


def timings(rep, cells):
    """The mix's latencies are clustered by cell (n=6 gate_time takes 30 times
    as long as n=4), so a median or a count over the whole run moves with
    where the run stops in the round and with which cluster it lands in.
    Both timing metrics are therefore taken from each cell's median latency
    and combined with the mix's fixed weights: ops_per_s is the round size
    over the time one round takes, op_p50_gmean_ms the geometric mean of the
    cells' medians.  Medians rather than means, because a Haar gate of n=3
    can take 1.4 times as long as another in conj_search, and a few
    samples per cell leave a mean at the mercy of the gates drawn."""
    p50 = {c: statistics.median(cells[c]) for c in rep["round_cells"]}
    round_s = sum(k * p50[c] for c, k in rep["round_cells"].items())
    p50_gmean_s = statistics.geometric_mean(p50.values())
    return {"ops_per_s": rep["round_size"] / round_s, "op_p50_gmean_ms": p50_gmean_s * 1e3}


def end_to_end(rep, setups):
    """Timings at the reference host speed, and the raw ones beside them."""
    raw = {"setup_s": statistics.median(s["setup_s"] for s in setups),
           **timings(rep, by_cell(rep))}
    metrics = {
        "setup_s": statistics.median(
            s["setup_s"] * s["host_ref_ms"] / s["host_ms"] for s in setups),
        **timings(rep, by_cell(rep, at_ref=True)),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    return metrics, raw


def per_layer(rep, names):
    layers = rep["layers"]
    out = {}
    for name in names:
        if name in rep["imports"]:
            out[name] = rep["imports"][name]
        elif name == "geometry.verdict_margin_min":
            out[name] = rep["verdict_margin_min"]
        elif name == "trace.overhead_ms":
            out[name] = (rep["p50_traced_s"] - rep["p50_untraced_s"]) * 1e3
        elif name in NOTE_STATS:
            note = layers["notes"].get(name)
            out[name] = note[NOTE_STATS[name]] if note else 0.0
        else:
            span, _, stat = name.rpartition(".")
            if stat not in SPAN_STATS:
                raise BenchError(f"no rule computes per-layer metric {name!r}")
            key, scale = SPAN_STATS[stat]
            # a function this workload's operations never call reads 0
            out[name] = layers["spans"][span][key] * scale if span in layers["spans"] else 0.0
    return out


def run_workload(name, seed, seconds, trace, spec):
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(["--workload", name, "--setup-only"], deadline))
    rep = worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace)], deadline)
    setups.append(rep["setup"])
    failed = sum(rep["fail_classes"].values())
    attempted = rep["attempted"]
    lat = rep["latencies_s"]
    pct = rep["tail_pct"]
    cells = by_cell(rep)
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={trace}  "
          f"round={rep['round_size']} ops")
    classes = ", ".join(f"{k} {v}" for k, v in sorted(rep["fail_classes"].items())) or "none"
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} {'1':<6} "
          f"{failed}/{attempted} ops: {classes}")
    for line in rep["wrong"]:
        print(f"  wrong answer: {line}")
    for case, outcome in sorted(rep["known_faults"].items()):
        print(f"  known fault, untimed: {case}: {outcome}")
    missing = sorted(set(rep["round_cells"]) - set(cells))
    if missing:
        raise BenchError(f"{name}: no operation returned in cells {', '.join(missing)}")
    if trace:
        metrics, raw = per_layer(rep, [m["name"] for m in spec["per_layer"]]), {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, raw = end_to_end(rep, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    beyond = sum(1 for x in lat if x > quantile(lat, pct / 100.0))
    detail = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "ops_per_s": f"{len(lat)} ops returned, {len(lat) / rep['round_size']:.1f} rounds "
                     f"in {rep['elapsed_s']:.2f} s",
        "op_p50_gmean_ms": f"{len(cells)} cells, at least "
                           f"{min(len(v) for v in cells.values())} samples each",
        "peak_rss_mb": "workload process",
    }
    for key, value in metrics.items():
        note = f"raw {raw[key]:.6g}, " if key in raw else ""
        print(f"  {key:<44} {value:>14.6g} {units[key]:<6} {note}{detail.get(key, '')}")
    if not trace:
        # whole-run order statistics, printed but not gated: they jump
        # between the mix's latency clusters from run to run
        print(f"  {'op_p50_ms':<44} {statistics.median(lat) * 1e3:>14.6g} {'ms':<6} "
              f"n={len(lat)}")
        print(f"  {'op_tail_ms':<44} {quantile(lat, pct / 100.0) * 1e3:>14.6g} {'ms':<6} "
              f"p{pct:g}, n={len(lat)}, {beyond} beyond")
    print("  cell p50 ms: " + ", ".join(f"{c} {statistics.median(v) * 1e3:.4g}"
                                       for c, v in sorted(cells.items())))
    if trace:
        for span, stats in sorted(rep["layers"]["spans"].items()):
            if stats["p50_by_n"]:
                print(f"  {span} p50 ms by n: " + ", ".join(
                    f"{n}: {v * 1e3:.4g}" for n, v in stats["p50_by_n"].items()))
    print(f"  host probe: {statistics.median(rep['host_s']) * 1e3:.4g} ms in the loop (reference "
          f"{rep['host_ref_ms']:g}), {statistics.median(s['host_ms'] for s in setups):.4g} ms "
          f"after set-up (reference {setups[0]['host_ref_ms']:g})")
    print("  env " + json.dumps(rep["env"], sort_keys=True))
    return {"correct": "wrong answer" not in rep["fail_classes"], "attempted": attempted,
            "failed": failed, "metrics": {k: {"value": v, "unit": units[k]}
                                          for k, v in metrics.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "qslkit", "__init__.py")):
        print(f"error: no qslkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
