"""fbmcf benchmark: one workload per process, timed from outside the library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trough-curved --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

The workload is repeated until ``--seconds`` is used up (at least
``MIN_REPS`` times).  After every repetition the outputs are checked against
oracles, untimed.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with no wrappers installed.
``wall_s`` is the mean time of a repetition and ``sim_t_per_s`` the simulated
time over the timed wall time, both over the whole run: on a shared host the
speed drifts in spells of tens of seconds, and a run's median jumps between
spells where its mean does not.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.SPANS`` (median over traced repetitions) and
the tracing overhead.  The spans are written to ``.perfbench_work/``.
"""

from __future__ import annotations

import os

# Cap BLAS and OpenMP threads before numpy loads; one thread keeps the timing
# steady on a small machine, and it is never above nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3
SETUP_SAMPLES = 7
MAX_SECONDS = 150.0   # hard stop well inside the 180 s a run may take


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--grid", type=int, default=128,
                   help="inverse grid spacing 1/h (the self-test uses 16)")
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload inputs and exit (times setup_s)")
    return p.parse_args(argv)


def import_library():
    """Put the checkout's src/ on the path; fail if the library is not there."""
    if not (ROOT / "src" / "fbmcf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fbmcf sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    return workloads


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def _provenance(args, params):
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "grid": args.grid,
            "inputs": params, "git_sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}


def _measure_setup(args):
    """Median wall time of SETUP_SAMPLES fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--grid", str(args.grid), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                       timeout=60)
        samples.append(time.perf_counter() - t0)
    return samples


def _run_reps(args, workload, tracer):
    """Repeat the workload; returns per-rep records and the probe results."""
    reps, probes = [], []
    start = time.perf_counter()
    last = 0.0
    while len(reps) < MIN_REPS or (args.trace and len(reps) < 2) or \
            time.perf_counter() - start + last <= args.seconds:
        if time.perf_counter() - start + last > MAX_SECONDS:
            break
        traced = bool(tracer) and len(reps) % 2 == 1
        if tracer:
            tracer.rep = len(reps)
            tracer.active = traced
        workload.reset()
        t0 = time.perf_counter()
        try:
            sim_t = workload.rep()
            error = None
        except Exception as err:   # a failed operation is counted, not fatal
            sim_t, error = 0.0, f"{type(err).__name__}: {err}"
        last = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        fails = [error] if error else workload.check()
        reps.append({"wall_s": last, "sim_t": sim_t, "traced": traced,
                     "fails": fails})
        probes.append(workload.probes())
    return reps, probes


def _emit(name, value, unit, n, table):
    table[name] = {"value": value, "unit": unit}
    print(f"{name:48s} {value!r:>24} {unit:8s} n={n}")


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)} or all")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, 1.0 / args.grid,
                                                      str(workdir))
        if args.setup_only:
            return 0
        return _measure(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload):
    setup = [] if args.trace else _measure_setup(args)
    workload.prepare()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        reps, probes = _run_reps(args, workload, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    print(json.dumps(_provenance(args, workload.params)))
    walls = [r["wall_s"] for r in reps]
    print(f"rep wall_s (n={len(walls)}, median {statistics.median(walls):.4f}, "
          f"max {max(walls):.4f}, * traced): "
          + " ".join(f"{r['wall_s']:.4f}" + "*" * r["traced"] for r in reps))
    for k, rep in enumerate(reps):
        for msg in rep["fails"]:
            print(f"rep {k}: check failed: {msg}")
    probe_fail = sum(1 for p in probes for v in p.values() if v)
    for name, msg in (probes[0] if probes else {}).items():
        print(f"known-defect probe {name}: {'FAILED: ' + msg if msg else 'ok'}")
    n_ops = len(reps) + sum(len(p) for p in probes)
    n_failed_reps = sum(1 for r in reps if r["fails"])
    table = {}
    if args.trace:
        traced = [k for k, r in enumerate(reps) if r["traced"]]
        plain = [r["wall_s"] for r in reps if not r["traced"]]
        walls = [reps[k]["wall_s"] for k in traced]
        layers = tracer.layer_metrics(traced)
        _add_flow_metrics(workload, layers)
        for name, (value, unit) in sorted(layers.items()):
            _emit(name, value, unit, len(traced), table)
        _emit("trace.wall_s", statistics.fmean(walls), "s", len(walls), table)
        _emit("trace.untraced_wall_s", statistics.fmean(plain), "s", len(plain), table)
        _emit("trace.overhead_s", statistics.fmean(walls) - statistics.fmean(plain),
              "s", len(walls), table)
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        _emit("wall_s", statistics.fmean(walls), "s", len(walls), table)
        _emit("sim_t_per_s", sum(r["sim_t"] for r in reps) / sum(walls),
              "sim_t/s", len(reps), table)
        _emit("setup_s", statistics.median(setup), "s", len(setup), table)
        _emit("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "MB", 1, table)
        _emit("ok_frac", (n_ops - n_failed_reps - probe_fail) / n_ops, "ratio",
              n_ops, table)
    # The known-defect probes show in ok_frac; `failed` counts the timed
    # operations, so that the workloads themselves run with no failures.
    print(json.dumps({"correct": n_failed_reps == 0, "attempted": len(reps),
                      "failed": n_failed_reps, "metrics": table}))
    return 0


def _add_flow_metrics(workload, layers):
    """Step count, dt range and node throughput from the stored monitor series."""
    stats = workload.flow_stats()
    steps, dt_min, dt_max, nodes = stats if stats else (0, 0.0, 0.0, 0)
    run_s = layers["flow.run.total_s"][0]
    layers["flow.steps"] = (steps, "count")
    layers["flow.dt_min"] = (dt_min, "sim_t")
    layers["flow.dt_max"] = (dt_max, "sim_t")
    layers["flow.node_updates_per_s"] = (nodes * steps / run_s if run_s else 0.0, "1/s")


def _run_all(args):
    """Every workload of BENCHMARK.json in its own process, one after another."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--grid", str(args.grid)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stdout.write(proc.stderr)
            results[name] = None
        else:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
