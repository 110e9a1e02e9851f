"""Trajectory persistence: mesh dumps, snapshot round-trips, CSV series."""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import NamedTuple

import numpy as np

from .flow import Trajectory
from .geometry import GraphSurface
from .support import SupportPatch

MONITOR_COLUMNS = ("t", "area", "perimeter", "energy", "max_H", "max_A")
CSV_BLOCK_ROWS = 1024   # rows of a CSV table formatted and written at a time


def _texts(values):
    """The %.17g text of each value of the float array values, in C order.

    Values are told apart by their bit patterns, so -0.0 and 0.0 keep their
    own text.  Where at most half the values are distinct, each distinct one
    is formatted once; otherwise the lookup costs more than formatting every
    value.
    """
    values = np.ravel(values)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = 2 * len(bits) <= values.size
    floats = bits.view(float) if distinct else values
    texts = ("%.17g\n" * floats.size % tuple(floats.tolist())).splitlines()
    return np.array(texts, dtype=object)[inverse].tolist() if distinct else texts


class _LineTemplate(NamedTuple):
    """Lines of %.17g text, one per row of an array (..., k), with some columns left open.

    The columns not listed in `open` are written into `text`; each open
    column leaves a %s field per line, which `fill` completes from a table's
    values.
    """

    text: str
    open: tuple   # indices of the columns left open

    @classmethod
    def build(cls, tables, head, sep):
        """The lines of the first table, each head, then its values joined by sep.

        tables is an iterable of arrays of one shape (..., k), such as the
        vertex arrays of a trajectory's snapshots, read one at a time: each is
        compared with the one before, so at most three are held at once.  A
        column that every table keeps bit for bit from the one before is
        formatted here, once; the others are left open.  A single table is
        therefore written in full.
        """
        tables = iter(tables)
        first = prev = next(tables)
        kept = [True] * first.shape[-1]
        for table in tables:
            kept = [keep and np.array_equal(prev[..., j].view(np.int64),
                                            table[..., j].view(np.int64))
                    for j, keep in enumerate(kept)]
            prev = table
        line = head + sep.join("%s" if keep else "%%s" for keep in kept) + "\n"
        texts = tuple(_texts(first[..., [j for j, keep in enumerate(kept) if keep]]))
        return cls(line * (first.size // len(kept)) % texts,
                   tuple(j for j, keep in enumerate(kept) if not keep))

    def fill(self, table):
        """The lines of table, an array of the shape the template was built
        from whose kept columns hold the values already written in."""
        return self.text % tuple(_texts(table[..., self.open]))


@functools.lru_cache(maxsize=8)
def _face_lines(n1, n2):
    """Two triangles per cell of an n1 x n2 node grid; node (i, j) is i * n2 + j + 1.

    The text is built one row of cells at a time, so only one row's indices
    are Python ints at once.
    """
    a = np.arange(1, n2)
    b = a + n2
    row = np.stack([a, b, a + 1, b, b + 1, a + 1], axis=-1).ravel()
    line = "f %d %d %d\n" * (2 * len(a))
    return "".join(line % tuple((row + i * n2).tolist()) for i in range(n1 - 1))


def write_obj(path, surface, template=None):
    """ASCII mesh dump: `v x y z` per node, `f i j k` per triangle (1-based).

    A GraphSurface is written as its node grid with two triangles per cell,
    at its `positions()`, which run no kernel; any other surface as the
    points of `samples()`, and an array of points as it is.  Coordinates
    are written with %.17g, so the output is exact: float() of each field
    gives back the stored value.  template, a `_LineTemplate` of vertex
    lines, already holds the coordinates that the snapshots of one
    trajectory share (see `save_trajectory`).
    """
    if isinstance(surface, GraphSurface):
        X = surface.positions()
        faces = _face_lines(*X.shape[:2])
    else:
        X = np.asarray(surface if isinstance(surface, np.ndarray) else surface.samples().X,
                       dtype=float)
        faces = ""
    if template is None:
        template = _LineTemplate.build([X], "v ", " ")
    with open(path, "w") as fh:   # block by block: no joined copy of the text
        fh.writelines((template.fill(X), faces))


def save_snapshot(path, surface):
    np.savez(path, u=surface.u, t=surface.t, h=surface.h, r_dom=surface.r_dom,
             patch=json.dumps(surface.patch.spec()))


def load_snapshot(path, patches=None):
    """A saved GraphSurface.  patches, a dict from stored patch spec to patch,
    is filled and reused, so that snapshots of one spec share one patch."""
    d = np.load(path, allow_pickle=False)
    spec = str(d["patch"])
    patches = {} if patches is None else patches
    if spec not in patches:
        patches[spec] = SupportPatch.from_spec(**json.loads(spec))
    return GraphSurface(patches[spec], float(d["h"]), float(d["r_dom"]), d["u"],
                        float(d["t"]))


def write_csv(path, columns, rows):
    """Header line, then one line per row with every value as %.17g.

    The output is exact: float() of each field gives back the value written.
    No rows give the header line alone.  Rows are formatted and written
    CSV_BLOCK_ROWS at a time, so the text of one block is held at once.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, len(columns))
    line = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(_texts(block)))


def save_trajectory(outdir, trajectory, scenario_echo=None):
    """Persist monitors, OBJ dumps, and exact-round-trip snapshots.

    Vertex coordinates that no snapshot changes, such as x and y over a trough
    or the flat support, are formatted once for all the OBJ dumps.  Vertex
    arrays are made one snapshot at a time, and at most three are held at once.
    """
    os.makedirs(outdir, exist_ok=True)
    files = []
    write_csv(os.path.join(outdir, "monitors.csv"), MONITOR_COLUMNS,
              np.column_stack([trajectory.monitors[c] for c in MONITOR_COLUMNS]))
    files.append("monitors.csv")
    meta = {"stop_reason": trajectory.stop_reason, "stats": trajectory.stats, "snapshots": []}
    if scenario_echo is not None:
        meta["scenario"] = scenario_echo
    snaps = trajectory.snapshots
    template = (_LineTemplate.build((snap.positions() for snap in snaps), "v ", " ")
                if len({snap.u.shape for snap in snaps}) == 1 else None)
    for k, snap in enumerate(snaps):
        obj = f"snap_{k:05d}.obj"
        npz = f"snap_{k:05d}.npz"
        write_obj(os.path.join(outdir, obj), snap, template)
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
    return Trajectory(snaps, monitors, meta.get("stop_reason", "completed"),
                      stats=meta.get("stats", {}))


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
