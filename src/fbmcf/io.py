"""Trajectory persistence: mesh dumps, snapshot round-trips, CSV series."""

from __future__ import annotations

import functools
import hashlib
import json
import os

import numpy as np

from .flow import Trajectory
from .geometry import GraphSurface
from .support import SupportPatch

MONITOR_COLUMNS = ("t", "area", "perimeter", "energy", "max_H", "max_A")


def _distinct_text(rows):
    """The %.17g text of each value of rows, formatted once per distinct value.

    Values are told apart by their bit patterns, so -0.0 and 0.0 keep their
    own text.  Returns None where more than half the values are distinct:
    there the lookup costs more than formatting every value.
    """
    bits, inverse = np.unique(rows.view(np.int64), return_inverse=True)
    if 2 * len(bits) > rows.size:
        return None
    text = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
    return text[inverse.ravel()].tolist()


def _rows_text(rows, head, sep):
    """One line per row of the 2-D array rows: head, then its values as %.17g joined by sep."""
    rows = np.ascontiguousarray(rows, dtype=float)
    fmt, values = "%s", _distinct_text(rows)
    if values is None:
        fmt, values = "%.17g", rows.ravel().tolist()
    line = head + sep.join([fmt] * rows.shape[1]) + "\n"
    return (line * len(rows)) % tuple(values)


def _vertex_lines(X):
    return _rows_text(np.reshape(X, (-1, 3)), "v ", " ")


@functools.lru_cache(maxsize=8)
def _face_lines(n1, n2):
    """Two triangles per cell of an n1 x n2 node grid; node (i, j) is i * n2 + j + 1."""
    a = (np.arange(n1 - 1)[:, None] * n2 + np.arange(n2 - 1)[None, :] + 1).ravel()
    b = a + n2
    faces = np.stack([a, b, a + 1, b, b + 1, a + 1], axis=-1)
    return ("f %d %d %d\n" * (2 * len(a))) % tuple(faces.ravel().tolist())


def write_obj(path, surface):
    """ASCII mesh dump: `v x y z` per node, `f i j k` per triangle (1-based).

    A GraphSurface is written as its node grid with two triangles per cell,
    any other surface as the points of `samples()`, and an array of points
    as it is.  Coordinates are written with %.17g, so the output is exact:
    float() of each field gives back the stored value.
    """
    if isinstance(surface, GraphSurface):
        X = surface.geometry().X
        blocks = (_vertex_lines(X), _face_lines(*X.shape[:2]))
    else:
        blocks = (_vertex_lines(surface if isinstance(surface, np.ndarray)
                                else surface.samples().X),)
    with open(path, "w") as fh:   # block by block: no joined copy of the text
        fh.writelines(blocks)


def save_snapshot(path, surface):
    np.savez(path, u=surface.u, t=surface.t, h=surface.h, r_dom=surface.r_dom,
             half=surface.half, patch=json.dumps(surface.patch.spec()))


def load_snapshot(path, patches=None):
    """A saved GraphSurface.  patches, a dict from stored patch spec to patch,
    is filled and reused, so that snapshots of one spec share one patch."""
    d = np.load(path, allow_pickle=False)
    spec = str(d["patch"])
    patches = {} if patches is None else patches
    if spec not in patches:
        patches[spec] = SupportPatch.from_spec(**json.loads(spec))
    return GraphSurface(patches[spec], float(d["h"]), float(d["r_dom"]), d["u"],
                        float(d["t"]), bool(d["half"]))


def write_csv(path, columns, rows):
    """Header line, then one line per row with every value as %.17g.

    The output is exact: float() of each field gives back the value written.
    No rows give the header line alone.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, len(columns))
    with open(path, "w") as fh:
        fh.writelines((",".join(columns) + "\n", _rows_text(rows, "", ",")))


def save_trajectory(outdir, trajectory, scenario_echo=None):
    """Persist monitors, OBJ dumps, and exact-round-trip snapshots."""
    os.makedirs(outdir, exist_ok=True)
    files = []
    write_csv(os.path.join(outdir, "monitors.csv"), MONITOR_COLUMNS,
              np.column_stack([trajectory.monitors[c] for c in MONITOR_COLUMNS]))
    files.append("monitors.csv")
    meta = {"stop_reason": trajectory.stop_reason, "snapshots": []}
    if scenario_echo is not None:
        meta["scenario"] = scenario_echo
    for k, snap in enumerate(trajectory.snapshots):
        obj = f"snap_{k:05d}.obj"
        npz = f"snap_{k:05d}.npz"
        write_obj(os.path.join(outdir, obj), snap)
        save_snapshot(os.path.join(outdir, npz), snap)
        meta["snapshots"].append({"t": snap.t, "obj": obj, "npz": npz})
        files += [obj, npz]
    with open(os.path.join(outdir, "trajectory.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    files.append("trajectory.json")
    return files


def load_trajectory(outdir):
    meta_path = os.path.join(outdir, "trajectory.json")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"no trajectory.json in {outdir}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if not meta["snapshots"]:   # a run that aborted before its first geometry
        raise ValueError(f"no snapshots in {outdir} (stop_reason: {meta['stop_reason']})")
    patches = {}   # one patch, and so one chart memo, per distinct stored spec
    snaps = [load_snapshot(os.path.join(outdir, rec["npz"]), patches)
             for rec in meta["snapshots"]]
    monitors = {}
    mon_path = os.path.join(outdir, "monitors.csv")
    if os.path.exists(mon_path):
        raw = np.genfromtxt(mon_path, delimiter=",", names=True)
        monitors = {c: np.atleast_1d(raw[c]) for c in raw.dtype.names}
    return Trajectory(snaps, monitors, meta.get("stop_reason", "completed"))


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(outdir, scenario_echo, stop_reason, wall_time, files):
    from . import __version__

    manifest = {
        "scenario_hash": hashlib.sha256(
            json.dumps(scenario_echo, sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "stop_reason": stop_reason,
        "wall_time": wall_time,
        "files": {f: sha256_file(os.path.join(outdir, f)) for f in files},
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest
