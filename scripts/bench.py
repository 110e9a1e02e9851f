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
  ``fundamental_forms`` time spent in ``chart_frames``.

Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("flow.step", "geometry.fundamental_forms", "support.chart_frames",
          "monitors.monotonicity_report", "monitors.singular_set_scan", "io.write_obj",
          "io.save_trajectory", "analytic.AnalyticSurface.integral")
END_TO_END = (("untraced_wall_s", "trace.untraced_wall_s"), ("traced_wall_s", "trace.wall_s"))
SEED = 1  # perfbench/run.py's own default


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the file name")
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--grid", type=int, default=128, help="inverse grid spacing 1/h")
    p.add_argument("--out", default=str(ROOT), help="directory of BENCH_<pr>.json")
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


def main(argv=None):
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    report = {"pr": args.pr, "seconds_per_workload": args.seconds, "seed": SEED,
              "grid": args.grid,
              "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": version("numpy"), "machine": platform.machine()},
              "workloads": {name: rows(run_traced(name, args)) for name in names}}
    path = Path(args.out) / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
