"""Self-test of the benchmark at a tiny size (h = 1/16).

    python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json through run.py with --trace 0 and
   --trace 1 and checks that each declared metric is emitted with its unit
   and that the outputs pass their checks.
2. Feeds each oracle a corrupted output and checks that it fails.

Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

GRID = 16
FAILURES = []


def expect(ok, what):
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def check_emitted(spec):
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", w,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--grid", str(GRID)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            expect(proc.returncode == 0, f"{w} --trace {trace} exits 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} --trace {trace} result keys")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{w} --trace {trace} outputs pass their checks")
            got = result["metrics"]
            for m in spec[key]:
                expect(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
                       f"{w} --trace {trace} emits {m['name']} [{m['unit']}]")
            extra = set(got) - {m["name"] for m in spec[key]}
            expect(not extra, f"{w} --trace {trace} emits only declared metrics "
                              f"{sorted(extra)}")


def rerun(w):
    w.reset()
    w.rep()


def _rewrite_npz(path, **changes):
    import numpy as np

    with np.load(path) as d:
        data = {k: d[k] for k in d.files}
    data.update(changes)
    np.savez(path, **data)


def _edit_csv(path, row, col, delta):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def check_oracles(workloads, workdir):
    import numpy as np

    h = 1.0 / GRID

    w = workloads.TroughCurved(1, h, os.path.join(workdir, "trough"))
    w.prepare()
    rerun(w)
    expect(w.check() == [], "trough-curved passes as run")
    expect(workloads.check_run_status(3, w.outdir) != [],
           "run-status oracle rejects a non-zero exit")
    probes = w.probes()
    print(f"       known-defect probes today: {probes}")
    expect(set(probes) == {"default-cfl", "default-chart-radius"}, "both probes run")
    snap = w.load().snapshots[-1]
    u = snap.u.copy()
    u[:, 0] += h
    last = sorted(f for f in os.listdir(w.outdir) if f.endswith(".npz"))[-1]
    _rewrite_npz(os.path.join(w.outdir, last), u=u)
    expect(w.check() != [], "trough Neumann oracle rejects a shifted edge row")
    rerun(w)
    _edit_csv(os.path.join(w.outdir, "monitors.csv"), 2, 1, 1e-6)
    expect(w.check() != [], "trough area oracle rejects an area increase")

    w = workloads.StoreQuery(1, h, os.path.join(workdir, "store"))
    w.prepare()
    rerun(w)
    expect(w.check() == [], "store-query passes as run")
    npz = os.path.join(w.outdir, "snap_00003.npz")
    with open(npz, "r+b") as fh:
        fh.seek(200)
        byte = fh.read(1)
        fh.seek(200)
        fh.write(bytes([byte[0] ^ 0x01]))
    expect(any("sha256" in f for f in w.check()),
           "store-query manifest oracle rejects a flipped byte")
    reloaded = [s.with_height(s.u.copy()) for s in w.trajectory.snapshots]
    reloaded[4].u[3, 3] = np.nextafter(reloaded[4].u[3, 3], 2.0)
    expect(workloads.check_heights_equal(w.trajectory.snapshots, reloaded) != [],
           "bit-equality oracle rejects a one-ulp height change")
    for name, row, col in (("density_interior.csv", 5, 1), ("density_edge.csv", 7, 1),
                           ("scan_scan.csv", 100, 4)):
        rerun(w)
        _edit_csv(os.path.join(w.outdir, name), row, col, 1e-12)
        expect(w.check() != [], f"store-query equality oracle rejects an edited {name}")
    rerun(w)
    _edit_csv(os.path.join(w.framedir, "planarity.csv"), 1, 0, 1e-12)
    expect(w.check() != [], "store-query equality oracle rejects an edited planarity.csv")
    rep = w.analytic_report
    rep.values[10] += 0.01
    rep.max_upward_violation = float(np.max(np.maximum(np.diff(rep.values), 0.0)))
    expect(workloads.check_analytic_series(rep) != [],
           "analytic oracle rejects a rising density")
    rep.max_upward_violation, rep.limit_estimate = 0.0, 0.5
    expect(workloads.check_analytic_series(rep) != [],
           "analytic oracle rejects a limit away from 2/e")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_emitted(spec)
    workloads = run.import_library()
    workdir = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    for sub in ("trough", "store"):
        (workdir / sub).mkdir(parents=True)
    try:
        check_oracles(workloads, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"self-test: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
