"""Command-line driver: run, monitor, rescale, verify.

Exit codes: 0 success, 1 verification failure, 2 validation error,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .errors import FbmcfError, ScenarioError
from .flow import run as flow_run
from .io import load_trajectory, save_trajectory, write_csv, write_manifest, write_obj
from .monitors import DensityQuery, monotonicity_reports, singular_set_scan
from .monitors import monotonicity_report  # noqa: F401 -- perfbench/tracing.py wraps this binding
from .rescaling import normalized_frame, parabolic_rescale, planarity_multiplicity
from .scenario import load_queries, load_scenario

EXIT_OK, EXIT_VERIFY, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 1, 2, 3


def command_run(args):
    scenario = load_scenario(args.scenario)
    outdir = args.out or scenario.output_dir
    t0 = time.perf_counter()
    trajectory = flow_run(scenario.build_initial(), scenario.build_flow_config())
    echo = scenario.echo()
    files = save_trajectory(outdir, trajectory, echo)
    write_manifest(outdir, echo, trajectory.stop_reason, time.perf_counter() - t0, files)
    st = trajectory.stats
    taus = f"tau {st['tau_min']:.4g} to {st['tau_max']:.4g}, " if st["steps"] else ""
    print(f"stop_reason: {trajectory.stop_reason} ({len(trajectory.snapshots)} snapshots in "
          f"{outdir}; {st['steps']} steps, {taus}{st['stages']} stages, "
          f"at most {st['s_max']} in one step)")
    return EXIT_OK if trajectory.error is None else _report(trajectory.error)


def command_monitor(args):
    trajectory = load_trajectory(args.dir)
    patch = trajectory.snapshots[-1].patch
    queries = load_queries(args.query_file, patch.kappa)
    # one pass over the snapshots for the densities; the scans then read the last
    # one, whose samples that pass leaves held if it sampled it
    reports = iter(monotonicity_reports(
        trajectory, [q for _, q in queries if isinstance(q, DensityQuery)], patch=patch))
    tables = []   # written only once every query has succeeded
    for name, q in queries:
        if isinstance(q, DensityQuery):
            rep = next(reports)
            rise = np.maximum(np.diff(rep.values, prepend=rep.values[:1]), 0.0)
            tables.append((f"density_{name}.csv", ("t", "value", "violation"),
                           np.column_stack([rep.times, rep.values, rise])))
        else:
            scan = singular_set_scan(trajectory, q.epsilon, q.r_grid)
            nr = len(scan.r_grid)
            tables.append((f"scan_{name}.csv", ("px", "py", "pz", "r", "mass", "flagged"),
                           np.column_stack([np.repeat(scan.candidates, nr, axis=0),
                                            np.tile(scan.r_grid, len(scan.candidates)),
                                            scan.masses.ravel(), np.repeat(scan.flagged, nr)])))
    for fname, columns, rows in tables:
        path = os.path.join(args.dir, fname)
        write_csv(path, columns, rows)
        print(f"wrote {path}")
    return EXIT_OK


def command_rescale(args):
    trajectory = load_trajectory(args.dir)
    patch = trajectory.snapshots[-1].patch
    if args.s is not None:
        frame = normalized_frame(trajectory, args.point, args.s, args.terminal_time, patch=patch)
    else:
        frame = parabolic_rescale(trajectory, args.point, args.terminal_time,
                                  1.0 if args.lam is None else args.lam,
                                  -1.0 if args.tau is None else args.tau, patch=patch)
    # measured before anything is written, so an abort leaves the directory as it was
    rep = planarity_multiplicity(frame, args.region_radius, boundary_mode=args.boundary)
    outdir = args.out or args.dir
    os.makedirs(outdir, exist_ok=True)
    write_obj(os.path.join(outdir, "frame.obj"), frame.surface)
    write_csv(os.path.join(outdir, "planarity.csv"),
              ("deviation", "sheets", "fit_nx", "fit_ny", "fit_nz"),
              [[rep.deviation, rep.sheet_count, *rep.normal]])
    print(f"wrote frame.obj and planarity.csv to {outdir}")
    return EXIT_OK


def command_verify(args):
    from .acceptance import run_all

    results = run_all()
    for r in results:
        print(f"[{'PASS' if r['passed'] else 'FAIL'}] criterion {r['criterion']:2d} "
              f"({r['seconds']:6.1f}s): {r['name']} -- {r['detail']}")
    all_ok = all(r["passed"] for r in results)
    print("verification", "PASSED" if all_ok else "FAILED")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _numbers(n, what, test=lambda v: True):
    """An argparse type: n comma-separated finite numbers that pass test, one float
    if n is 1; else a usage error that says what is wanted."""
    def convert(text):
        try:
            v = np.array([float(x) for x in text.split(",")])
        except ValueError:
            v = np.array([np.nan])
        if v.size != n or not np.all(np.isfinite(v) & test(v)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return float(v[0]) if n == 1 else v
    return convert


_FINITE, _POSITIVE = _numbers(1, "a finite number"), _numbers(1, "a number > 0", lambda v: v > 0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fbmcf",
        description="free-boundary mean curvature flow laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a scenario and persist the run")
    p.add_argument("scenario")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=command_run)

    p = sub.add_parser("monitor", help="evaluate monitor queries on a stored run")
    p.add_argument("dir")
    p.add_argument("query_file")
    p.set_defaults(fn=command_monitor)

    p = sub.add_parser("rescale", help="build a rescaled frame of a stored run")
    p.add_argument("dir")
    p.add_argument("--point", type=_numbers(3, "a point x,y,z"), default="0,0,0")
    p.add_argument("--terminal-time", type=_FINITE, required=True)
    p.add_argument("--lambda", dest="lam", type=_POSITIVE, help="default 1")
    p.add_argument("--tau", type=_FINITE, help="default -1")
    p.add_argument("--s", type=_FINITE, help="in place of --lambda and --tau")
    p.add_argument("--region-radius", type=_POSITIVE, default=0.5)
    p.add_argument("--boundary", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=command_rescale)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(fn=command_verify)
    return parser


def _report(err):
    """Print err on stderr and return the exit code its class calls for."""
    if isinstance(err, (ScenarioError, FileNotFoundError, ValueError)):
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"numerical abort: {type(err).__name__}: {err}", file=sys.stderr)
    return EXIT_NUMERICAL


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "s", None) is not None and (args.lam, args.tau) != (None, None):
        parser.error("argument --s: not allowed with argument --lambda or --tau")
    try:
        return args.fn(args)
    except (FbmcfError, FileNotFoundError, ValueError) as err:
        return _report(err)


if __name__ == "__main__":
    sys.exit(main())
