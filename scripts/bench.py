"""Write BENCH_<pr>.json: end-to-end and per-layer rows from perfbench.

Usage, from the root of a checkout:

    python3 scripts/bench.py --pr 9                      # 55 s per workload, h = 1/128
    python3 scripts/bench.py --pr 9 --grid 16 --seconds 1 --out /tmp/bench

Every workload of BENCHMARK.json runs in its own process as
``perfbench/run.py --trace 1 --seed 1``, which alternates untraced and traced
repetitions.  The last line of its stdout is one JSON object; this script
reads it as it is and keeps:

- end-to-end rows: the mean repetition time without tracing
  (``trace.untraced_wall_s``), the mean with tracing, and the counts of
  attempted and failed repetitions;
- layer rows: calls, total_s and self_s (medians over the traced
  repetitions) and milliseconds per call of the explicit step
  (``flow.step``), the chart kernel (``geometry.fundamental_forms``,
  ``support.chart_frames``), the density and scan monitors
  (``monitors.monotonicity_report``, ``monitors.singular_set_scan``), the
  writers (``io.write_obj``, ``io.save_trajectory``) and the analytic
  quadrature (``analytic.AnalyticSurface.integral``), and the share of
  ``fundamental_forms`` time spent in ``chart_frames``;
- run memory rows (``run_memory``), one per stride-1 run of the tilted plane
  u = 0.1 y1 over ``paraboloid:0.5`` at h = 1/grid with the default cfl,
  each in a fresh process, to t_end 0.0173, 0.0692 and 0.1384 (71, 284 and
  567 steps at h = 1/128, whose steps are h r_dom / 16 = 2^-12 long at
  most): its step count, ``ru_maxrss`` and wall time.  Peak memory that
  grows with the step count shows here; the benchmark's ``trough-curved``
  stores 2 snapshots and does not see it;
- run fault rows (``run_faults``): in a fresh process, 50 ``fundamental_forms``
  calls on ``sphere_cap:2`` and then the ``trough-curved`` run (the tilted
  plane u = 0.1 y1 over ``paraboloid:0.5`` with kappa 0.5, chart radius 2,
  cfl 0.15, to t_end 6.01e-4) at h = 1/grid: the minor page faults
  (``ru_minflt``) per sphere-cap call and per step and per stage (Euler
  sub-step) of the run.  Memory the allocator trims from the heap and takes
  back shows here as faults;
- scheme rows (``scheme``), one per support ``sphere_cap:2`` and
  ``paraboloid:0.5``: in this process, a run of u = 0.1 y1 + 0.2 y1^2 - 0.1 y2^2
  at h = 1/grid with the default cfl to t_end 0.01: its steps, stages,
  geometry builds (``fundamental_forms`` calls), flow operator calls
  (``GraphSurface.operator``, one per stage) and wall time;
- chart kernel rows (``chart_kernel``), one per grid h = 2/grid, 1/grid and
  1/(2 grid) and support ``flat``, ``paraboloid:0.5`` and ``sphere_cap:2``
  with its catalog defaults: the median milliseconds and the mean minor page
  faults per call, over 50 calls in this process, of ``chart_frames`` on the
  grid's axes and of ``fundamental_forms``, for the tilted plane u = 0.1 y1.
  ``chart_frames`` builds d2Phi for the trough only: the flat and sphere-cap
  rows evaluate X, dPhi and nu alone, so they are not comparable with those
  of ``BENCH_30.json`` and earlier files, which also built d2Phi there.
  On the trough every ``fundamental_forms`` call after the first reads the
  cross section kept in the patch's chart memo, as the steps of a run do;
  the flat support and the sphere cap, whose kernel is in closed form,
  evaluate no chart there.  No benchmark workload runs a
  sphere cap, so these rows are its only timing;
- operator rows (``operator``), on the same grids, supports and surfaces: the
  median milliseconds and the mean minor page faults per call, over 50 calls,
  of the difference quotients ``_derivative_planes`` into fresh planes, of the
  flow operator ``GraphSurface.operator`` on a surface that holds no
  geometry, which evaluates the operator half of the kernel only, as an RKL2
  stage does, and of the whole ``fundamental_forms``;
- step rows (``step``), on the same grids, supports and surfaces: the median
  milliseconds and the mean minor page faults per call, over 50 calls, of
  one explicit ``step`` of length 0.05 h^2 with cfl 0.15 from a surface that
  holds no geometry.  Since the RKL2 stages take Euler sub-steps and no
  ``step``, the workloads' traced ``flow.step`` rows read 0 calls;
- monitor memory rows (``monitor_memory``): ``fbmcf monitor`` on the
  ``store-query`` workload's stored 21-snapshot run at h = 1/grid, each in a
  fresh process, with that workload's query file (two density series over all
  21 snapshots and a scan with r_grid [0.1, 0.15, 0.2], 5,250 candidates at
  h = 1/128) and with the same file but the scan's r_grid set to
  ``WIDE_R_GRID`` [0.05, 0.2] (26,910 candidates at h = 1/128): its
  ``ru_maxrss`` and wall time, ``MONITOR_PROCESSES`` rounds alternating the two;
- scan kernel rows (``scan_kernel``): the median milliseconds per call, over
  ``SCAN_CALLS`` calls in this process, of ``singular_set_scan`` on the last
  ``store-query`` snapshot, which holds its samples as the density pass of
  ``fbmcf monitor`` leaves them, at h = 1/grid with r_grid [0.1, 0.15, 0.2]
  and [0.05, 0.2], at h = 2/grid with [0.05, 0.4] and at h = 4/grid with
  [0.1, 0.15, 0.2] (h at most 1/8), and the ``tracemalloc`` peak of one more
  call in MB;
- writer rows (``writer``), one per grid h = 2/grid, 1/grid and 1/(2 grid) and
  trajectory: the median milliseconds per call, over ``WRITER_CALLS`` calls in
  this process, of ``save_trajectory`` on a trough run (the tilted plane
  u = 0.1 y1 over ``paraboloid:0.5`` with kappa 0.5, chart radius 2 and
  cfl 0.15, as in ``trough-curved``, but at stride 1 for six of its longest
  steps, t_end = 6 h r_dom / 16, so that it stores 7 snapshots at every h),
  on the ``store-query`` workload's 21 flat-support snapshots and on the
  tilted plane u = 0.1 y1 over ``sphere_cap:2`` with its catalog defaults and
  the default cfl, run as the trough is (7 snapshots at every h), and the
  ``chart_frames`` calls of one more ``save_trajectory`` call.  The sphere
  cap's chart is evaluated afresh by each ``positions()`` call, as its kernel
  keeps no chart memo.  That plane passes through the sphere's centre (the
  ``equatorial_disk.yaml`` surface), so the flow barely moves it, and its y
  column, which reads the height, is still bit-equal across its snapshots;
- density rows (``density``), one per grid h = 2/grid, 1/grid and
  1/(2 grid): the median milliseconds per call, over ``DENSITY_CALLS``
  calls in this process, of ``interior_density_value`` and
  ``boundary_density_value`` at the ``store-query`` query point on that
  workload's last snapshot, which holds its geometry and its samples as
  the calls of one ``fbmcf monitor`` pass share them;
- the analytic series row (``analytic_series``): the median milliseconds
  per call, over ``DENSITY_CALLS`` calls, of the ``store-query`` workload's
  21-sample hemisphere density series (``monitors.monotonicity_report``).

Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("flow.step", "geometry.fundamental_forms", "support.chart_frames",
          "monitors.monotonicity_report", "monitors.singular_set_scan", "io.write_obj",
          "io.save_trajectory", "analytic.AnalyticSurface.integral")
END_TO_END = (("untraced_wall_s", "trace.untraced_wall_s"), ("traced_wall_s", "trace.wall_s"))
SEED = 1  # perfbench/run.py's own default
MEMORY_T_ENDS = (0.0173, 0.0692, 0.1384)
SCHEME_PHIS = ("sphere_cap:2", "paraboloid:0.5")
CHART_PHIS = ("flat", "paraboloid:0.5", "sphere_cap:2")
CHART_CALLS = 50
MONITOR_PROCESSES = 3
WIDE_R_GRID = [0.05, 0.2]
SCAN_SHAPES = ((1, [0.1, 0.15, 0.2]), (1, WIDE_R_GRID), (2, [0.05, 0.4]), (4, [0.1, 0.15, 0.2]))
SCAN_CALLS = 5
WRITER_CALLS = 11
DENSITY_CALLS = 11
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the file name")
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--grid", type=int, default=128, help="inverse grid spacing 1/h")
    p.add_argument("--out", default=str(ROOT), help="directory of BENCH_<pr>.json")
    p.add_argument("--memory-probe", type=float, metavar="T_END",
                   help="run one run-memory probe to T_END in this process and print its row")
    p.add_argument("--faults-probe", action="store_true",
                   help="run the run-fault probe in this process and print its row")
    p.add_argument("--monitor-probe", nargs=2, metavar=("DIR", "QUERIES"),
                   help="run `fbmcf monitor DIR QUERIES` in this process and print its row")
    p.add_argument("--store-run", metavar="WORKDIR",
                   help="save the store-query run and query file under WORKDIR")
    return p.parse_args(argv)


def run_traced(name, args):
    """perfbench/run.py --trace 1 on one workload; returns its last JSON line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
           "--seed", str(SEED), "--seconds", str(args.seconds),
           "--grid", str(args.grid), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"bench: {name} failed with exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rows(result):
    """The end-to-end and layer rows of one workload's perfbench result."""
    metrics = result["metrics"]
    end_to_end = {key: metrics[src] for key, src in END_TO_END}
    end_to_end.update(attempted=result["attempted"], failed=result["failed"])
    layers = {}
    for layer in LAYERS:
        for stat in ("calls", "total_s", "self_s"):
            layers[f"{layer}.{stat}"] = metrics[f"{layer}.{stat}"]
        calls = metrics[f"{layer}.calls"]["value"]
        total = metrics[f"{layer}.total_s"]["value"]
        layers[f"{layer}.ms_per_call"] = {"value": 1e3 * total / calls if calls else None,
                                          "unit": "ms"}
    forms = metrics["geometry.fundamental_forms.total_s"]["value"]
    chart = metrics["support.chart_frames.total_s"]["value"]
    layers["support.chart_frames.share_of_fundamental_forms"] = {
        "value": chart / forms if forms else None, "unit": "ratio"}
    return {"end_to_end": end_to_end, "layers": layers}


def memory_probe(t_end, grid):
    """One stride-1 run in this process: its steps, ru_maxrss (MB) and wall time."""
    sys.path.insert(0, str(ROOT / "src"))
    from fbmcf.flow import FlowConfig, run
    from fbmcf.geometry import GraphSurface
    from fbmcf.support import SupportPatch

    initial = GraphSurface.from_height(lambda a, b: 0.1 * a, SupportPatch.paraboloid(0.5),
                                       1.0 / grid, 0.5)
    t0 = time.perf_counter()
    traj = run(initial, FlowConfig(t_end=t_end))
    wall = time.perf_counter() - t0
    if traj.error is not None:
        sys.exit(f"bench: memory probe stopped: {traj.stop_reason}")
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"t_end": {"value": t_end, "unit": "sim_t"},
            "steps": {"value": len(traj.monitors["t"]) - 1, "unit": "count"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "wall_s": {"value": wall, "unit": "s"}}


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _median_ms(fn, calls):
    """The median milliseconds of calls calls of fn()."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"value": 1e3 * statistics.median(times), "unit": "ms"}


def _timed_calls(fn, *args):
    """CHART_CALLS calls of fn(*args): (median ms, mean minor page faults) per call."""
    times, faults = [], 0
    for _ in range(CHART_CALLS):
        f0, t0 = _minflt(), time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
        faults += _minflt() - f0
    return ({"value": 1e3 * statistics.median(times), "unit": "ms"},
            {"value": faults / CHART_CALLS, "unit": "count"})


def _tilted(phi, grid):
    """The tilted plane u = 0.1 y1 at h = 1/grid over phi, a catalog name or a patch."""
    from fbmcf.geometry import GraphSurface
    from fbmcf.support import SupportPatch

    patch = phi if isinstance(phi, SupportPatch) else SupportPatch.from_spec(phi)
    return GraphSurface.from_height(lambda a, b: 0.1 * a, patch, 1.0 / grid, 0.5)


def faults_probe(grid):
    """A sphere-cap phase, then the trough-curved run, in this process: their faults."""
    sys.path.insert(0, str(ROOT / "src"))
    from fbmcf.flow import FlowConfig, run
    from fbmcf.geometry import fundamental_forms
    from fbmcf.support import SupportPatch

    _, sphere = _timed_calls(fundamental_forms, _tilted("sphere_cap:2", grid))
    initial = _tilted(SupportPatch.paraboloid(0.5, kappa=0.5, chart_radius=2.0), grid)
    f0 = _minflt()
    traj = run(initial, FlowConfig(t_end=6.01e-4, cfl=0.15, snapshot_stride=20))
    faults = _minflt() - f0
    if traj.error is not None:
        sys.exit(f"bench: faults probe stopped: {traj.stop_reason}")
    steps, stages = traj.stats["steps"], traj.stats["stages"]
    return {"grid": {"value": grid, "unit": "1/h"},
            "sphere_cap_faults_per_call": {**sphere, "unit": "count"},
            "steps": {"value": steps, "unit": "count"},
            "stages": {"value": stages, "unit": "count"},
            "faults_per_step": {"value": faults / steps, "unit": "count"},
            "faults_per_stage": {"value": faults / stages, "unit": "count"}}


def _kernel_rows(grid, calls):
    """For each grid h = 2/grid, 1/grid and 1/(2 grid) and support in CHART_PHIS, the
    tilted plane s and a row of `_timed_calls` of each (name, fn, args) in calls(s)."""
    rows = []
    for n in (grid // 2, grid, 2 * grid):
        for phi in CHART_PHIS:
            s = _tilted(phi, n)
            row = {"grid": {"value": n, "unit": "1/h"}, "phi": phi}
            for name, fn, args in calls(s):
                row[f"{name}_ms"], row[f"{name}_faults"] = _timed_calls(fn, *args)
            rows.append(row)
    return rows


def chart_kernel(grid):
    """The chart kernel rows: ms and faults per call of chart_frames and fundamental_forms."""
    sys.path.insert(0, str(ROOT / "src"))
    from fbmcf.geometry import fundamental_forms
    from fbmcf.support import chart_frames

    return _kernel_rows(grid, lambda s: (
        ("chart_frames", chart_frames, (s.patch, s.grid.y1[:, None], s.grid.y2[None, :], s.u)),
        ("fundamental_forms", fundamental_forms, (s,))))


def operator(grid):
    """The operator rows: ms and faults per call of the difference quotients, the flow
    operator and fundamental_forms."""
    sys.path.insert(0, str(ROOT / "src"))
    from fbmcf.geometry import _derivative_planes, fundamental_forms

    return _kernel_rows(grid, lambda s: (("derivative_planes", _derivative_planes, (s.u, s.h)),
                                         ("operator", s.operator, ()),
                                         ("fundamental_forms", fundamental_forms, (s,))))


def step_rows(grid):
    """The step rows: ms and faults per call of one explicit step of length 0.05 h^2."""
    sys.path.insert(0, str(ROOT / "src"))
    from fbmcf.flow import FlowConfig, step

    config = FlowConfig(t_end=1.0, cfl=0.15)
    return _kernel_rows(grid, lambda s: (("step", step, (s, 0.05 * s.h**2, config)),))


def scheme(grid):
    """The scheme rows: steps, stages, geometry builds, operator calls and wall time of a
    run on each support."""
    sys.path.insert(0, str(ROOT / "src"))
    from fbmcf import geometry
    from fbmcf.flow import FlowConfig, run
    from fbmcf.support import SupportPatch

    kernel, op, builds, ops = geometry.fundamental_forms, geometry.GraphSurface.operator, [], []

    def counted_kernel(surface):
        builds.append(None)
        return kernel(surface)

    def counted_op(surface):
        ops.append(None)
        return op(surface)

    rows = []
    geometry.fundamental_forms, geometry.GraphSurface.operator = counted_kernel, counted_op
    try:
        for phi in SCHEME_PHIS:
            initial = geometry.GraphSurface.from_height(
                lambda a, b: 0.1 * a + 0.2 * a * a - 0.1 * b * b,
                SupportPatch.from_spec(phi), 1.0 / grid, 0.5)
            builds.clear()
            ops.clear()
            t0 = time.perf_counter()
            traj = run(initial, FlowConfig(t_end=0.01))
            wall = time.perf_counter() - t0
            if traj.error is not None:
                sys.exit(f"bench: scheme run stopped: {traj.stop_reason}")
            rows.append({"grid": {"value": grid, "unit": "1/h"}, "phi": phi,
                         "steps": {"value": traj.stats["steps"], "unit": "count"},
                         "stages": {"value": traj.stats["stages"], "unit": "count"},
                         "geometry_builds": {"value": len(builds), "unit": "count"},
                         "operator_calls": {"value": len(ops), "unit": "count"},
                         "wall_s": {"value": wall, "unit": "s"}})
    finally:
        geometry.fundamental_forms, geometry.GraphSurface.operator = kernel, op
    return rows


def monitor_probe(run_dir, query_path):
    """`fbmcf monitor` in this process: its ru_maxrss (MB) and wall time."""
    sys.path.insert(0, str(ROOT / "src"))
    from fbmcf.cli import main

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["monitor", run_dir, query_path])
    wall = time.perf_counter() - t0
    if rc != 0:
        sys.exit(f"bench: fbmcf monitor exited with {rc}")
    return {"peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "wall_s": {"value": wall, "unit": "s"}}


def store_run(workdir, grid):
    """Save the store-query run and its query file under workdir, and the same queries with
    the scan's r_grid set to WIDE_R_GRID as queries_wide.yaml; returns its row part."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import yaml
    from fbmcf.io import save_trajectory
    from workloads import StoreQuery

    store = StoreQuery(SEED, 1.0 / grid, workdir)
    save_trajectory(os.path.join(workdir, "run"), store.trajectory, store.echo)
    with open(os.path.join(workdir, "queries_wide.yaml"), "w") as fh:
        yaml.safe_dump([{**q, "r_grid": WIDE_R_GRID} if q["type"] == "scan" else q
                        for q in store.queries], fh)
    return {"snapshots": {"value": len(store.trajectory.snapshots), "unit": "count"}}


def _script_row(args, *flags):
    """The JSON row this script prints when run with flags in a fresh process.

    A child's ru_maxrss starts from its parent's peak, so the probes are
    started while this process is still small: before `chart_kernel` and
    `scan_kernel`, which build surfaces here.
    """
    cmd = [sys.executable, __file__, "--pr", str(args.pr), "--grid", str(args.grid), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          env={**os.environ, **ONE_THREAD})
    if proc.returncode != 0:
        sys.exit(f"bench: {' '.join(flags)} failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def monitor_memory(args):
    """The monitor probe rows: one process stores the run, then each probe is a fresh one,
    alternating the workload's query file and its wide-scan copy."""
    with tempfile.TemporaryDirectory() as workdir:
        stored = _script_row(args, "--store-run", workdir)
        return [{**stored, "scan_r_grid": r_grid,
                 **_script_row(args, "--monitor-probe", os.path.join(workdir, "run"),
                               os.path.join(workdir, name))}
                for _ in range(MONITOR_PROCESSES)
                for name, r_grid in (("queries.yaml", [0.1, 0.15, 0.2]),
                                     ("queries_wide.yaml", WIDE_R_GRID))]


def scan_kernel(grid):
    """The scan kernel rows: median ms per call of singular_set_scan at each shape, and the
    tracemalloc peak of one more call."""
    sys.path.insert(0, str(ROOT / "src"))
    from fbmcf.flow import Trajectory
    from fbmcf.geometry import GraphSurface
    from fbmcf.monitors import singular_set_scan

    rows = []
    for coarsen, r_grid in SCAN_SHAPES:
        n = max(grid // coarsen, 8)
        last = GraphSurface.sphere_cap(1.0, 1.0 / n, 0.5, t=0.1)   # store-query's last snapshot
        last.samples()   # held, as the density pass of `fbmcf monitor` leaves it
        traj = Trajectory([last, last])   # the scan reads the last snapshot only
        times = []
        for _ in range(SCAN_CALLS):
            t0 = time.perf_counter()
            scan = singular_set_scan(traj, 1.0, r_grid)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        try:
            singular_set_scan(traj, 1.0, r_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows.append({"grid": {"value": n, "unit": "1/h"}, "r_grid": r_grid,
                     "candidates": {"value": len(scan.candidates), "unit": "count"},
                     "scan_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
                     "scan_peak_mb": {"value": peak / 1e6, "unit": "MB"}})
    return rows


def _chart_calls(fn):
    """The number of chart_frames calls that fn() makes through the kernel's binding."""
    from fbmcf import geometry

    real, calls = geometry.chart_frames, []
    geometry.chart_frames = lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)
    try:
        fn()
    finally:
        geometry.chart_frames = real
    return len(calls)


def writer(grid):
    """The writer rows: median ms and chart_frames calls per save_trajectory call on each
    workload's trajectory and on a sphere-cap run."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from fbmcf.flow import FlowConfig, run
    from fbmcf.io import save_trajectory
    from fbmcf.support import SupportPatch
    from workloads import StoreQuery

    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in (grid // 2, grid, 2 * grid):
            # six steps of the longest length h r_dom / 16 = 1 / (32 n)
            trough = run(_tilted(SupportPatch.paraboloid(0.5, kappa=0.5, chart_radius=2.0), n),
                         FlowConfig(t_end=6.0 / (32 * n), cfl=0.15))
            cap = run(_tilted("sphere_cap:2", n), FlowConfig(t_end=6.0 / (32 * n)))
            for traj in (trough, cap):
                if traj.error is not None:
                    sys.exit(f"bench: writer run stopped: {traj.stop_reason}")
            store = StoreQuery(SEED, 1.0 / n, workdir)
            for name, traj, echo in (("trough-curved", trough, None),
                                     ("store-query", store.trajectory, store.echo),
                                     ("sphere_cap:2", cap, None)):
                save = functools.partial(save_trajectory, os.path.join(workdir, "run"), traj, echo)
                rows.append({"grid": {"value": n, "unit": "1/h"}, "trajectory": name,
                             "snapshots": {"value": len(traj.snapshots), "unit": "count"},
                             "save_trajectory_ms": _median_ms(save, WRITER_CALLS),
                             "chart_frames": {"value": _chart_calls(save), "unit": "count"}})
    return rows


def density(grid):
    """The density rows and the analytic series row of the store-query workload."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from fbmcf import monitors
    from workloads import StoreQuery

    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in (grid // 2, grid, 2 * grid):
            store = StoreQuery(SEED, 1.0 / n, workdir)
            last, P, T = store.trajectory.snapshots[-1], store.params["P"], store.params["T"]
            row = {"grid": {"value": n, "unit": "1/h"}}
            for fn in (monitors.interior_density_value, monitors.boundary_density_value):
                row[f"{fn.__name__}_ms"] = _median_ms(lambda: fn(last, P, T), DENSITY_CALLS)
            rows.append(row)
        series = {"snapshots": {"value": len(store.analytic.snapshots), "unit": "count"},
                  "series_ms": _median_ms(lambda: monitors.monotonicity_report(
                      store.analytic, store.analytic_query), DENSITY_CALLS)}
    return rows, series


def run_memory(args):
    """The memory probe rows, each from a fresh process of this script."""
    return [_script_row(args, "--memory-probe", repr(t_end)) for t_end in MEMORY_T_ENDS]


def main(argv=None):
    args = _parse(argv)
    if args.memory_probe is not None:
        print(json.dumps(memory_probe(args.memory_probe, args.grid)))
        return 0
    if args.faults_probe:
        print(json.dumps(faults_probe(args.grid)))
        return 0
    if args.monitor_probe is not None:
        print(json.dumps(monitor_probe(*args.monitor_probe)))
        return 0
    if args.store_run is not None:
        print(json.dumps(store_run(args.store_run, args.grid)))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    report = {"pr": args.pr, "seconds_per_workload": args.seconds, "seed": SEED,
              "grid": args.grid,
              "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": version("numpy"), "machine": platform.machine()},
              "workloads": {name: rows(run_traced(name, args)) for name in names},
              "run_memory": run_memory(args),
              "monitor_memory": monitor_memory(args),
              "run_faults": _script_row(args, "--faults-probe"),
              "chart_kernel": chart_kernel(args.grid),
              "operator": operator(args.grid),
              "step": step_rows(args.grid),
              "scheme": scheme(args.grid),
              "scan_kernel": scan_kernel(args.grid),
              "writer": writer(args.grid)}
    report["density"], report["analytic_series"] = density(args.grid)
    path = Path(args.out) / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
