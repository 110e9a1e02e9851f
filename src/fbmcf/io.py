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
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)   # every bit of a float64 but its sign


def _texts(values):
    """The %.17g text of each value of the float array values, in C order.

    Values are told apart by their bit patterns with the sign bit cleared, so
    x and -x share one text, to which a negative value that is not NaN adds
    its `-` (-0.0 and -inf too; `"%.17g" % -nan` is `nan`).  Where at most
    half the magnitudes are distinct, each distinct one is formatted once;
    otherwise the lookup costs more than formatting every value.
    """
    values = np.ravel(values)
    bits, inverse = np.unique(values.view(np.int64) & _MAGNITUDE, return_inverse=True)
    distinct = 2 * len(bits) <= values.size
    floats = bits.view(float) if distinct else values
    texts = ("%.17g\n" * floats.size % tuple(floats.tolist())).splitlines()
    if not distinct:
        return texts
    minus = np.signbit(values) & ~np.isnan(values)
    table = np.array(texts + ["-" + t for t in texts], dtype=object)   # then each with a "-"
    return table[inverse + len(texts) * minus].tolist()


class _LineTemplate(NamedTuple):
    """Lines of %.17g text, one per row of an array (..., k), with some columns left open.

    The columns not listed in `open` are written into `text`; each open
    column leaves a %s field per line, which `fill` completes from a table's
    values.  `key` names the tables that hold the written values.
    """

    text: str
    open: tuple   # indices of the columns left open
    key: object

    @classmethod
    def build(cls, table, head, sep, fixed, key):
        """The lines of table, each head, then its values joined by sep; the
        columns listed in fixed are formatted here, the others left open."""
        k = table.shape[-1]
        line = head + sep.join("%s" if j in fixed else "%%s" for j in range(k)) + "\n"
        return cls(line * (table.size // k) % tuple(_texts(table[..., list(fixed)])),
                   tuple(j for j in range(k) if j not in fixed), key)

    def fill(self, table):
        """The lines of table, an array of the shape the template was built
        from whose fixed columns hold the values already written in."""
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
    gives back the stored value.

    Returns the `_LineTemplate` of the vertex lines, with the columns that a
    GraphSurface's chart fixes on its profile and grid (the profile's
    `height_free` components) written in.  Passed back as template for the
    next snapshot on that profile and grid, it saves formatting them again
    (see `save_trajectory`); a template for another profile, grid or shape
    is rebuilt.
    """
    if isinstance(surface, GraphSurface):
        X = surface.positions()
        faces = _face_lines(*X.shape[:2])
        profile = surface.patch.profile   # its name and the grid fix the height-free columns
        fixed, key = profile.height_free, (profile.name, surface.grid.key)
    else:
        X = np.asarray(surface if isinstance(surface, np.ndarray) else surface.samples().X,
                       dtype=float)
        faces, fixed, key = "", (), X.shape
    if template is None or template.key != key:
        template = _LineTemplate.build(X, "v ", " ", fixed, key)
    with open(path, "w") as fh:   # block by block: no joined copy of the text
        fh.writelines((template.fill(X), faces))
    return template


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

    The vertex columns that the support's chart fixes, its profile's
    `height_free` components such as x and y over a trough or the flat
    support, are formatted once per profile and grid, from the first
    snapshot on them.  Each vertex array is made once, as its OBJ is written.
    """
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, "monitors.csv"), MONITOR_COLUMNS,
              np.column_stack([trajectory.monitors[c] for c in MONITOR_COLUMNS]))
    files = ["monitors.csv"]
    meta = {"stop_reason": trajectory.stop_reason, "stats": trajectory.stats, "snapshots": []}
    if scenario_echo is not None:
        meta["scenario"] = scenario_echo
    template = None
    for k, snap in enumerate(trajectory.snapshots):
        obj = f"snap_{k:05d}.obj"
        npz = f"snap_{k:05d}.npz"
        template = write_obj(os.path.join(outdir, obj), snap, template)
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
