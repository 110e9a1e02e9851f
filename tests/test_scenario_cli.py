import dataclasses
import inspect
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fbmcf.io as fbmcf_io
from fbmcf.cli import main
from fbmcf.errors import PatchFieldError, ScenarioError
from fbmcf.flow import FlowConfig, Trajectory, run
from fbmcf.geometry import GraphSurface
from fbmcf.io import (
    MONITOR_COLUMNS,
    load_snapshot,
    load_trajectory,
    save_snapshot,
    save_trajectory,
    write_csv,
    write_obj,
)
from fbmcf.monitors import DensityQuery, monotonicity_report
from fbmcf.rescaling import normalized_frame, parabolic_rescale
from fbmcf.scenario import (
    _CHECKS,
    _QUERY_CHECKS,
    _QUERY_NEEDS,
    _SECTIONS,
    _TOP_KEYS,
    ScanQuery,
    load_queries,
    load_scenario,
    validate_scenario,
)
from fbmcf.support import FlatProfile, SupportPatch

ROOT = Path(__file__).resolve().parents[1]

SPHERE_YAML = """\
name: sphere-test
initial:
  kind: sphere
  R0: 1.0
grid:
  h: 0.03125
  r_dom: 0.25
flow:
  t_end: 0.004
  outer_bc: dirichlet-exact
  snapshot_stride: 10
output_dir: {out}
"""


def write_scenario(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------

def test_scenario_defaults_filled():
    sc = validate_scenario({"grid": {"h": 0.125, "r_dom": 0.5},
                            "flow": {"t_end": 0.001}})
    echo = sc.echo()
    assert echo["flow"]["cfl"] == 0.2
    assert echo["flow"]["outer_bc"] == "frozen"
    assert echo["initial"]["kind"] == "zero"
    surf = sc.build_initial()
    assert surf.h == 0.125 and np.all(surf.u == 0.0)


def test_scenario_echo_contains_singular_time():
    sc = validate_scenario({"initial": {"kind": "sphere", "R0": 1.0},
                            "grid": {"h": 0.0625, "r_dom": 0.25},
                            "flow": {"t_end": 0.001,
                                     "outer_bc": "dirichlet-exact"}})
    assert abs(sc.echo()["singular_time"] - 0.25) < 1e-14


@pytest.mark.parametrize("data,key", [
    ({"bogus": 1, "grid": {"h": 0.1, "r_dom": 0.5},
      "flow": {"t_end": 1.0}}, "bogus"),
    ({"grid": {"h": 0.1, "r_dom": 0.5, "extra": 2},
      "flow": {"t_end": 1.0}}, "grid.extra"),
    ({"patch": {"kappa": -1.0}, "grid": {"h": 0.1, "r_dom": 0.5},
      "flow": {"t_end": 1.0}}, "patch.kappa"),
    ({"grid": {"h": 0.3, "r_dom": 0.5}, "flow": {"t_end": 1.0}}, "grid.h"),
    ({"grid": {"h": 0.1, "r_dom": 0.5},
      "flow": {"t_end": 1.0, "cfl": 0.7}}, "flow.cfl"),
    ({"grid": {"h": 0.1, "r_dom": 0.5},
      "flow": {"t_end": 1.0, "outer_bc": "weird"}}, "flow.outer_bc"),
    ({"initial": {"kind": "sphere", "R0": 0.2},
      "grid": {"h": 0.1, "r_dom": 0.5}, "flow": {"t_end": 1.0}}, "initial.R0"),
    ({"grid": {"h": 0.1, "r_dom": 0.5},
      "flow": {"t_end": 1.0, "scheme": "explicit-euler"}}, "flow.scheme"),
    # each key checks the type of its value first
    *[({"grid": {"h": 0.125, "r_dom": 0.5, **section.get("grid", {})},
        "flow": {"t_end": 1.0, **section.get("flow", {})},
        **{k: v for k, v in section.items() if k not in ("grid", "flow")}}, key)
      for section, key in [
          ({"flow": {"snapshot_stride": 0}}, "flow.snapshot_stride"),
          ({"flow": {"snapshot_stride": 2.5}}, "flow.snapshot_stride"),
          ({"flow": {"snapshot_stride": True}}, "flow.snapshot_stride"),
          ({"flow": {"t_end": "abc"}}, "flow.t_end"),
          ({"flow": {"t_end": float("inf")}}, "flow.t_end"),
          ({"flow": {"t_end": float("nan")}}, "flow.t_end"),
          ({"flow": {"t_end": 0.0}}, "flow.t_end"),
          ({"flow": {"blowup_threshold": -1}}, "flow.blowup_threshold"),
          ({"flow": {"cfl": True}}, "flow.cfl"),
          ({"flow": {"outer_bc": ["frozen"]}}, "flow.outer_bc"),
          ({"grid": {"h": "abc"}}, "grid.h"),
          ({"grid": {"r_dom": float("inf")}}, "grid.r_dom"),
          ({"grid": {"half": True}}, "grid.half"),   # every grid is the half-disk
          ({"patch": {"kappa": "abc"}}, "patch.kappa"),
          ({"patch": {"chart_radius": float("nan")}}, "patch.chart_radius"),
          ({"patch": {"phi": 3}}, "patch.phi"),
          ({"initial": {"kind": ["a"]}}, "initial.kind"),
          ({"initial": {"tilt": "x"}}, "initial.tilt"),
          ({"initial": {"kind": "sphere", "R0": "abc"}}, "initial.R0"),
          ({"name": [1]}, "name"),
          ({"name": ""}, "name"),
          ({"output_dir": 3}, "output_dir"),
      ]],
])
def test_scenario_rejects_bad_data(data, key):
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(data)
    assert exc.value.key == key


def test_every_scenario_key_has_a_check():
    top = _TOP_KEYS - set(_SECTIONS)   # name and output_dir
    assert set(_CHECKS) == top | {f"{name}.{k}" for name, keys in _SECTIONS.items() for k in keys}


@pytest.mark.parametrize("text, key", [
    ("flow:\n  t_end: .inf", "flow.t_end"),
    ("flow:\n  t_end: .nan", "flow.t_end"),
    ("flow:\n  t_end: 0.001\n  snapshot_stride: 0", "flow.snapshot_stride"),
    ("initial:\n  kind: [a]\nflow:\n  t_end: 0.001", "initial.kind"),
    ("initial:\n  tilt: x\nflow:\n  t_end: 0.001", "initial.tilt"),
    ("patch:\n  phi: 3\nflow:\n  t_end: 0.001", "patch.phi"),
    ("grid:\n  h: 0.125\n  r_dom: 0.5\n  half: true\nflow:\n  t_end: 0.001", "grid.half"),
    ("name: [1]\nflow:\n  t_end: 0.001", "name"),
    ("output_dir: 3\nflow:\n  t_end: 0.001", "output_dir"),
])
def test_cli_scenario_bad_value_names_its_key(tmp_path, capsys, text, key):
    grid = "" if "grid:" in text else "grid:\n  h: 0.125\n  r_dom: 0.5\n"
    path = write_scenario(tmp_path, grid + text + "\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"(key: {key})" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("t_end", float("inf")), ("t_end", float("nan")), ("t_end", 0.0),
    ("blowup_threshold", -1.0), ("blowup_threshold", float("inf")),
    ("snapshot_stride", 0), ("snapshot_stride", 2.5), ("snapshot_stride", True),
])
def test_flow_config_refuses_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        FlowConfig(**{"t_end": 1.0, field: value})


@pytest.mark.parametrize("phi,kappa,chart_radius", [
    ("paraboloid:0.5", 0.5, 2.0),
    ("sphere_cap:2", 0.5, 1.8),
])
def test_curved_scenario_runs_with_patch_defaults(tmp_path, phi, kappa, chart_radius):
    # with cfl set and with cfl left out, which takes FlowConfig's default 0.2
    for cfl, cfl_line in ((0.15, "  cfl: 0.15\n"), (0.2, "")):
        out = tmp_path / f"out-{cfl}"
        path = write_scenario(tmp_path, (
            f"patch:\n  phi: {phi}\n"
            "initial:\n  kind: tilted-plane\n  tilt: 0.1\n"
            "grid:\n  h: 0.0625\n  r_dom: 0.5\n"
            f"flow:\n  t_end: 0.001\n{cfl_line}output_dir: {out}\n"))
        assert main(["run", path]) == 0, cfl_line
        with open(out / "trajectory.json") as fh:
            meta = json.load(fh)
        assert meta["stop_reason"] == "completed"
        assert meta["scenario"]["patch"] == {"phi": phi, "kappa": kappa,
                                             "chart_radius": chart_radius}
        assert meta["scenario"]["flow"]["cfl"] == cfl


def test_scenario_keys_pass_through_to_constructors():
    # a flow or patch key is handed to FlowConfig or SupportPatch.from_spec as it is
    fields = {f.name for f in dataclasses.fields(FlowConfig)}
    assert _SECTIONS["flow"] <= fields
    params = set(inspect.signature(SupportPatch.from_spec).parameters)
    assert _SECTIONS["patch"] <= params


def test_scenario_yaml_error_location(tmp_path, capsys):
    path = write_scenario(tmp_path, "grid:\n  h: [unclosed\n")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert (exc.value.line, exc.value.column) == (3, 1)
    # exit 2, and the place is named once: PyYAML's own text of it is left out
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: scenario parse error: ") and "Traceback" not in err
    assert err.count("line") == 1 and err.rstrip().endswith("(line 3, column 1)")


# the fields README lists for each query type
README_QUERY_FIELDS = {
    "density": {"name", "type", "location", "P", "T", "sample_times", "r", "kappa"},
    "scan": {"name", "type", "epsilon", "r_grid"},
}


def test_every_query_field_has_a_check():
    assert set(_QUERY_CHECKS) == {f"{kind}.{field}" for kind, fields in README_QUERY_FIELDS.items()
                                  for field in fields}
    assert all(callable(ok) and want for ok, want in _QUERY_CHECKS.values())
    assert set(_QUERY_NEEDS) == set(README_QUERY_FIELDS)
    assert all(set(needs) <= README_QUERY_FIELDS[kind] for kind, needs in _QUERY_NEEDS.items())


def test_query_yaml_error_location(tmp_path):
    path = tmp_path / "queries.yaml"
    path.write_text("- P: [0, 0, 0\n  T: 0.25\n")
    with pytest.raises(ScenarioError) as exc:
        load_queries(path, 0.0)
    assert exc.value.line is not None and exc.value.column is not None


def test_load_queries_returns_typed_queries_in_file_order(tmp_path):
    # defaults: name q<k>, location interior, no cutoff, the run's kappa
    path = tmp_path / "queries.yaml"
    path.write_text("- type: scan\n  epsilon: 1\n  r_grid: [0.2, 0.1]\n"
                    "- name: edge\n  location: boundary\n  P: [0, 0, 1]\n  T: 1\n"
                    "  sample_times: [0, 0.5]\n  kappa: 0.75\n"
                    "- P: [0.5, 0, 0]\n  T: 0.25\n  sample_times: [0.0]\n  r: 0.1\n")
    (n0, scan), (n1, edge), (n2, inner) = load_queries(path, 0.5)
    assert (n0, n1, n2) == ("q0", "edge", "q2")
    assert scan == ScanQuery(1.0, [0.2, 0.1])
    assert isinstance(edge, DensityQuery) and isinstance(inner, DensityQuery)
    assert np.array_equal(edge.P, [0.0, 0.0, 1.0]) and edge.P.dtype == float
    assert (edge.T, edge.location, edge.r, edge.kappa, edge.sample_times) == (
        1.0, "boundary", np.inf, 0.75, [0.0, 0.5])
    assert (inner.location, inner.r, inner.kappa) == ("interior", 0.1, 0.5)
    assert all(type(v) is float
               for q in (edge, inner) for v in (q.T, q.r, q.kappa, *q.sample_times))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_obj_format(tmp_path):
    s = GraphSurface.zero(SupportPatch.flat(), 0.125, 0.5)
    path = tmp_path / "mesh.obj"
    write_obj(str(path), s)
    lines = path.read_text().strip().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == s.u.size and len(fs) > 0
    idx = [int(tok) for l in fs for tok in l.split()[1:]]
    assert min(idx) >= 1 and max(idx) <= len(vs)


def per_node_obj(X, faces=True):
    """OBJ text written one node and one triangle at a time: X is a node grid
    (n1, n2, 3), or, with faces False, any array of points (..., 3)."""
    lines = []
    for x in X.reshape(-1, 3):
        lines.append(f"v {x[0]:.17g} {x[1]:.17g} {x[2]:.17g}")
    n1, n2 = X.shape[:2]
    for i in range(n1 - 1 if faces else 0):
        for j in range(n2 - 1):
            a = i * n2 + j + 1
            b = a + n2
            lines.append(f"f {a} {b} {a + 1}")
            lines.append(f"f {b} {b + 1} {a + 1}")
    return "\n".join(lines) + "\n"


# The curved trough has mostly distinct coordinates; on the flat support the
# y1 and y2 columns repeat along the grid, so most values recur.
OBJ_PATCHES = {"curved": SupportPatch.paraboloid(0.5, kappa=0.5, chart_radius=2.0),
               "flat": SupportPatch.flat()}


@pytest.mark.parametrize("kind", sorted(OBJ_PATCHES))
def test_obj_bytes_match_per_node_writer(tmp_path, kind):
    s = GraphSurface.from_height(lambda a, b: 0.1 * a + 0.05 * a**2 - 0.03 * b**2,
                                 OBJ_PATCHES[kind], 1 / 16, 0.5)
    X = s.geometry().X
    coords = X.ravel().tolist()
    assert min(coords) < 0.0
    assert any(float(f"{x:.16g}") != x for x in coords)   # 17 digits are needed
    path = tmp_path / "mesh.obj"
    write_obj(str(path), s)
    assert path.read_bytes() == per_node_obj(X).encode()
    pts = tmp_path / "points.obj"
    write_obj(str(pts), X[::3, ::3])
    assert pts.read_bytes() == per_node_obj(X[::3, ::3], faces=False).encode()


# -0.0 next to 0.0, repeats, both infinities, a subnormal and a large value;
# fewer than half the values are distinct, so each is formatted once
EDGE_ROWS = np.array([
    [0.0, -0.0, 1.0],
    [-0.0, 0.0, np.inf],
    [-np.inf, 5e-324, 1e300],
    [0.1, 0.1, 0.1],
    [1.0, -0.0, 0.1],
    [0.0, 1.0, 1e300],
    [0.1, 1.0, 0.0],
    [-np.inf, np.inf, 5e-324],
])


def _signbits(a):
    return np.signbit(np.asarray(a, dtype=float))


def test_obj_bytes_match_per_node_writer_on_edge_values(tmp_path):
    X = EDGE_ROWS.reshape(-1, 2, 3)
    path = tmp_path / "edge.obj"
    write_obj(str(path), X)
    assert path.read_bytes() == per_node_obj(X, faces=False).encode()
    back = np.array([[float(t) for t in line.split()[1:]]
                     for line in path.read_text().splitlines()])
    assert np.array_equal(back, EDGE_ROWS)
    assert np.array_equal(_signbits(back), _signbits(EDGE_ROWS))


def test_face_text_is_built_a_row_at_a_time():
    # the 129 x 65 face text is 272 KB; formatted from all 98,304 indices as
    # Python ints at once, it peaks at 3.0 MB
    tracemalloc.start()
    try:
        text = fbmcf_io._face_lines.__wrapped__(129, 65)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 272_401
    assert peak < 1_000_000


# Shaped like scan_<name>.csv (px, py, pz, r, mass, flagged): lattice candidates,
# one of them at -0.0, each repeated once per radius, a distinct mass per row
# and 0/1 flags.  Fewer than half the values of the table are distinct, though
# every mass is, so the masses are formatted through the lookup.
MIXED_ROWS = np.column_stack([
    np.repeat(0.125 * np.array([[-1.0, 0.0, 7.0], [-0.0, 1.0, 7.0], [1.0, 0.0, 8.0],
                                [2.0, 1.0, 7.0]]), 3, axis=0),
    np.tile([0.1, 0.15, 0.2], 4),
    np.random.default_rng(3).random(12),
    np.repeat([0.0, 1.0, 1.0, 0.0], 3),
])


def _block_rows():
    """Two and a half blocks of rows: -0.0 and a value repeated in the rows on both
    sides of each block edge, the last block a partial one."""
    block = fbmcf_io.CSV_BLOCK_ROWS
    rows = np.random.default_rng(7).random((2 * block + block // 2 + 1, 3))
    for edge in (block, 2 * block):
        rows[edge - 1:edge + 1, 0] = -0.0
        rows[edge - 2:edge + 2, 1] = 0.1
    assert len(rows) % block != 0
    return rows


BLOCK_ROWS = _block_rows()


@pytest.mark.parametrize("rows", [EDGE_ROWS, np.random.default_rng(5).random((7, 3)),
                                  MIXED_ROWS, BLOCK_ROWS],
                         ids=["repeated", "distinct", "mixed", "blocks"])
def test_csv_bytes_match_per_row_writer(tmp_path, rows):
    if rows is MIXED_ROWS:
        assert 2 * len(np.unique(rows.view(np.int64))) <= rows.size
        assert len(np.unique(rows[:, 4])) == len(rows)
    path = tmp_path / "rows.csv"
    columns = "abcdef"[:rows.shape[1]]
    write_csv(str(path), tuple(columns), rows)
    reference = ",".join(columns) + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                    for row in rows.tolist())
    assert path.read_bytes() == reference.encode()
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back, rows)
    assert np.array_equal(_signbits(back), _signbits(rows))


# Each magnitude under both signs: the zeros, the infinities, a subnormal, and NaN
# of either sign, plain and with a payload.  At most half the magnitudes are
# distinct, so each is formatted once and a negative value is given its "-".
_NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0001], dtype=np.int64).view(float)[0]
SIGNED_ROWS = np.array([
    [0.1, -0.1, 0.0],
    [-0.0, np.inf, -np.inf],
    [np.nan, -np.nan, 2.5],
    [-2.5, 5e-324, -5e-324],
    [_NAN_PAYLOAD, -_NAN_PAYLOAD, 0.1],
    [-0.1, -0.0, np.nan],
])


@pytest.mark.parametrize("rows", [SIGNED_ROWS,
                                  np.random.default_rng(9).standard_normal((6, 3))],
                         ids=["signed-repeats", "signed-distinct"])
def test_signed_and_nan_values_match_per_value_writer(tmp_path, rows):
    assert np.signbit(rows).any() and not np.signbit(rows).all()
    texts = [f"{v:.17g}" for v in rows.ravel().tolist()]
    if rows is SIGNED_ROWS:
        assert 2 * len(np.unique(np.abs(rows).view(np.int64))) <= rows.size
        assert np.signbit(rows[np.isnan(rows)]).any() and "-nan" not in texts
        assert {"-0", "-inf", "nan", "-4.9406564584124654e-324"} <= set(texts)
    assert fbmcf_io._texts(rows) == texts
    path = tmp_path / "rows.csv"
    write_csv(str(path), ("a", "b", "c"), rows)
    assert path.read_bytes() == ("a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                                    for row in rows.tolist())).encode()
    pts = tmp_path / "points.obj"
    write_obj(str(pts), rows.reshape(-1, 2, 3))
    assert pts.read_bytes() == per_node_obj(rows.reshape(-1, 2, 3), faces=False).encode()


def test_csv_without_rows_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), ("t", "value"), np.empty((0, 2)))
    assert path.read_bytes() == b"t,value\n"


def test_csv_text_is_written_a_block_at_a_time(tmp_path):
    # a scan table of 5,250 candidates at three radii: 15,750 rows of 6 values, 1.5 MB
    # of text; formatted with one str per value of the whole table, it peaked at 4.5 MB
    cand = np.stack(np.meshgrid(*[0.05 * np.arange(n) for n in (35, 15, 10)],
                                indexing="ij"), axis=-1).reshape(-1, 3)
    rows = np.column_stack([np.repeat(cand, 3, axis=0), np.tile([0.1, 0.15, 0.2], len(cand)),
                            np.random.default_rng(11).random(3 * len(cand)),
                            np.repeat(np.arange(len(cand)) % 2, 3)])
    assert rows.shape == (15_750, 6)
    path = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        write_csv(str(path), ("px", "py", "pz", "r", "mass", "flagged"), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_000_000
    assert peak < 1_000_000
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), rows)


def trough_trajectory():
    """Tilted plane over the paraboloid trough at h = 1/32: 6 steps, 7 snapshots.
    X0 and X1 come from the patch's chart memo."""
    patch = SupportPatch.paraboloid(0.5, kappa=0.5, chart_radius=2.0)
    return run(GraphSurface.from_height(lambda a, b: 0.1 * a, patch, 1 / 32, 0.5),
               FlowConfig(t_end=5.8e-3, cfl=0.15, snapshot_stride=1))


def flat_trajectory():
    return run(GraphSurface.sphere_cap(1.0, 1 / 32, 0.25),
               FlowConfig.for_sphere(1.0, 0.002, snapshot_stride=2))


def sphere_cap_trajectory():
    """A run over a profile that reads y3, whose chart is never memoised."""
    patch = SupportPatch.sphere_cap(2.0)
    return run(GraphSurface.from_height(lambda a, b: 0.1 * a, patch, 1 / 32, 0.5),
               FlowConfig(t_end=2e-3, snapshot_stride=1))


def hand_built_trajectory(monkeypatch):
    """Five flat snapshots whose positions() hand out set vertex arrays: X0 flips
    between 0.0 and -0.0 at a few nodes, X1 moves by one ulp at one node, X2 never
    changes.  These contradict the flat chart, so the profile declares no
    height-free columns and every column is written from each snapshot."""
    monkeypatch.setattr(FlatProfile, "height_free", ())
    snaps, Xs = [], {}
    for k in range(5):
        s = GraphSurface.zero(SupportPatch.flat(), 0.125, 0.5)
        X = np.stack(np.broadcast_arrays(0.0, 0.25, 0.5 * s.grid.y1[:, None] + s.grid.y2), axis=-1)
        X[::4, ::2, 0] = -0.0 if k % 2 else 0.0
        X[3, 2, 1] = np.nextafter(0.25, 1.0) if k in (2, 3) else 0.25
        s.t, Xs[id(s)] = 0.001 * k, X
        snaps.append(s)
    monkeypatch.setattr(GraphSurface, "positions", lambda self: Xs[id(self)])
    return Trajectory(snaps, {c: np.zeros(5) for c in MONITOR_COLUMNS})


@pytest.mark.parametrize("make", [trough_trajectory, flat_trajectory, sphere_cap_trajectory,
                                  hand_built_trajectory],
                         ids=["trough", "flat", "sphere-cap", "hand-built"])
def test_saved_obj_bytes_match_per_node_writer(tmp_path, monkeypatch, make):
    if make is hand_built_trajectory:
        traj = make(monkeypatch)
        Xs = [s.positions() for s in traj.snapshots]
    else:
        traj = make()
        Xs = [s.geometry().X for s in traj.snapshots]
    bits = [[X[..., j].view(np.int64) for X in Xs] for j in range(3)]
    kept = [all(np.array_equal(a, b) for a, b in zip(col, col[1:])) for col in bits]
    assert len(Xs) > 2 and any(kept) and not all(kept)
    if make is hand_built_trajectory:
        assert kept == [False, False, True]
        # as floats, X0 would be kept
        assert all(np.array_equal(X[..., 0], Xs[0][..., 0]) for X in Xs)
    outdir = tmp_path / "run"
    save_trajectory(str(outdir), traj)
    for k, X in enumerate(Xs):
        assert (outdir / f"snap_{k:05d}.obj").read_bytes() == per_node_obj(X).encode(), k


def one_patch_each_trajectory():
    """Seven shrinking-sphere snapshots over the flat support, each built with a patch of
    its own, as the store-query benchmark builds them."""
    return Trajectory([GraphSurface.sphere_cap(1.0, 1 / 32, 0.25, t=0.01 * k) for k in range(7)],
                      {c: np.zeros(7) for c in MONITOR_COLUMNS})


def check_kept_columns_formatted_once(tmp_path, monkeypatch, traj):
    Xs = [s.geometry().X for s in traj.snapshots]
    assert len(Xs) == 7
    n = Xs[0][..., 0].size
    calls = []
    real = fbmcf_io._texts

    def counted(values):
        calls.append(np.ravel(values).view(np.int64).copy())
        return real(values)

    monkeypatch.setattr(fbmcf_io, "_texts", counted)
    save_trajectory(str(tmp_path / "run"), traj)
    # x and y, interleaved node by node, are formatted once for all the
    # snapshots; z once per snapshot
    kept = [c for c in calls if c.size == 2 * n]
    opened = [c for c in calls if c.size == n]
    assert len(kept) == 1
    assert np.array_equal(kept[0], np.ravel(Xs[0][..., :2]).view(np.int64))
    assert len(opened) == 7
    assert all(np.array_equal(c, np.ravel(X[..., 2]).view(np.int64))
               for c, X in zip(opened, Xs))


def test_save_trajectory_formats_kept_columns_once(tmp_path, monkeypatch):
    check_kept_columns_formatted_once(tmp_path, monkeypatch, trough_trajectory())


def test_save_trajectory_formats_kept_columns_once_with_one_patch_each(tmp_path, monkeypatch):
    check_kept_columns_formatted_once(tmp_path, monkeypatch, one_patch_each_trajectory())


def test_save_trajectory_makes_each_vertex_array_once(tmp_path, monkeypatch):
    # the sphere cap's chart is evaluated afresh for each positions() call
    traj = sphere_cap_trajectory()
    real, calls = GraphSurface.positions, []
    monkeypatch.setattr(GraphSurface, "positions", lambda self: calls.append(self) or real(self))
    save_trajectory(str(tmp_path / "run"), traj)
    assert len(traj.snapshots) > 2
    assert [id(s) for s in calls] == [id(s) for s in traj.snapshots]


def test_save_trajectory_memory_does_not_grow_with_snapshots(tmp_path):
    # stride 1 over the trough at h = 1/32; the vertex arrays are made one
    # snapshot at a time, so 80 snapshots peak about where 10 do
    patch = SupportPatch.paraboloid(0.5, kappa=0.5, chart_radius=2.0)
    traj = run(GraphSurface.from_height(lambda a, b: 0.1 * a, patch, 1 / 32, 0.5),
               FlowConfig(t_end=0.078, cfl=0.15, snapshot_stride=1))
    assert traj.stop_reason == "completed" and len(traj.snapshots) >= 80
    peaks = {}
    for n in (10, 80):
        part = Trajectory(traj.snapshots[:n], traj.monitors)
        tracemalloc.start()
        try:
            save_trajectory(str(tmp_path / f"run{n}"), part)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[80] <= 1.5 * peaks[10], peaks


@pytest.mark.parametrize("make", [trough_trajectory, flat_trajectory, sphere_cap_trajectory],
                         ids=["trough", "flat", "sphere-cap"])
def test_saved_files_do_not_depend_on_memoised_geometry(tmp_path, make):
    # the files are the same whether no snapshot's geometry is held, or the
    # first, a middle or the last one's
    traj = make()
    n = len(traj.snapshots)
    assert n > 2
    GraphSurface.zero(SupportPatch.flat(), 0.125, 0.5).geometry()   # holds none of traj's
    files = save_trajectory(str(tmp_path / "lean"), traj)
    for k in (0, n // 2, n - 1):
        traj.snapshots[k].geometry()
        save_trajectory(str(tmp_path / f"held{k}"), traj)
        for name in files:
            assert (tmp_path / f"held{k}" / name).read_bytes() == \
                (tmp_path / "lean" / name).read_bytes(), (k, name)


def test_snapshot_roundtrip(tmp_path):
    s = GraphSurface.sphere_cap(1.0, 0.0625, 0.25)
    path = str(tmp_path / "snap.npz")
    save_snapshot(path, s)
    s2 = load_snapshot(path)
    assert np.array_equal(s.u, s2.u)
    assert s2.h == s.h and s2.r_dom == s.r_dom and s2.t == s.t
    assert s2.patch.is_flat


@pytest.mark.parametrize("phi", ["paraboloid:0.123456789", "paraboloid:0.1234564",
                                 "sphere_cap:2.00000001"])
def test_curved_patch_spec_roundtrip(phi, tmp_path):
    # %g alone would write 0.123457 (refused on reload), 0.123456 (a different
    # trough, reloaded silently) and 2 (refused)
    patch = SupportPatch.from_spec(phi)
    assert patch.spec()["phi"] == phi
    outdir = str(tmp_path / "run")
    save_trajectory(outdir, run(GraphSurface.zero(patch, 1 / 16, 0.25), FlowConfig(t_end=1e-3)))
    back = load_trajectory(outdir).snapshots[0].patch
    for key in ("a", "R"):
        if hasattr(patch.profile, key):
            assert getattr(back.profile, key).hex() == getattr(patch.profile, key).hex()
    assert back.kappa.hex() == patch.kappa.hex()
    assert back.chart_radius.hex() == patch.chart_radius.hex()


def test_exact_spec_text_only_where_g_loses_the_value():
    assert SupportPatch.from_spec("paraboloid:0.5").spec()["phi"] == "paraboloid:0.5"
    assert SupportPatch.from_spec("sphere_cap:2").spec()["phi"] == "sphere_cap:2"
    assert SupportPatch.sphere_cap(2.0).spec()["phi"] == "sphere_cap:2"


@pytest.mark.parametrize("lam", [0.5, 1 / 3], ids=["half", "third"])
def test_rescaled_patch_run_reloads(lam, tmp_path):
    patch = SupportPatch.from_spec("paraboloid:0.5").rescale(lam)
    traj = run(GraphSurface.zero(patch, 1 / 16, 0.25), FlowConfig(t_end=1e-3))
    outdir = str(tmp_path / "run")
    save_trajectory(outdir, traj)
    back = load_trajectory(outdir)
    assert len(back.snapshots) == len(traj.snapshots)
    for a, b in zip(traj.snapshots, back.snapshots):
        assert a.u.tobytes() == b.u.tobytes()
    got = back.snapshots[0].patch
    assert got.profile.a == patch.profile.a == 0.5 * lam
    assert got.kappa == patch.kappa and got.chart_radius == patch.chart_radius
    qpath = tmp_path / "queries.yaml"
    qpath.write_text("- name: center\n  type: density\n  P: [0, 0, 0]\n  T: 0.25\n"
                     "  sample_times: [0.0, 0.0005, 0.001]\n")
    assert main(["monitor", outdir, str(qpath)]) == 0


def test_rescaled_spec_text():
    # a rescaled patch names its catalog profile, and only catalog names load
    patch = SupportPatch.from_spec("paraboloid:0.5")
    assert patch.rescale(0.5).spec()["phi"] == "paraboloid:0.25"
    assert patch.rescale(1 / 3).spec()["phi"] == f"paraboloid:{0.5 * (1 / 3)!r}"
    assert SupportPatch.flat().rescale(2).spec()["phi"] == "flat"
    twice = SupportPatch.from_spec("sphere_cap:2").rescale(0.5).rescale(3)
    assert twice.spec()["phi"] == f"sphere_cap:{2 / 0.5 / 3!r}"
    assert SupportPatch.from_spec(**twice.spec()).spec() == twice.spec()
    with pytest.raises(PatchFieldError, match="curvature"):   # below lam |a| = 0.25
        SupportPatch.from_spec(patch.rescale(0.5).spec()["phi"], kappa=0.2)
    with pytest.raises(ValueError, match="0.5@/0.5"):   # no longer a name of the rescaled patch
        SupportPatch.from_spec("paraboloid:0.5@/0.5")


def test_trajectory_roundtrip(tmp_path):
    s = GraphSurface.sphere_cap(1.0, 0.0625, 0.25)
    cfg = FlowConfig.for_sphere(1.0, 0.002, outer_bc="dirichlet-exact",
                                snapshot_stride=5)
    traj = run(s, cfg)
    outdir = str(tmp_path / "run")
    save_trajectory(outdir, traj)
    back = load_trajectory(outdir)
    assert back.stop_reason == traj.stop_reason
    assert len(back.snapshots) == len(traj.snapshots)
    assert np.allclose(back.times, traj.times)
    assert np.allclose(back.monitors["area"], traj.monitors["area"])
    assert np.array_equal(back.snapshots[-1].u, traj.snapshots[-1].u)


def test_load_trajectory_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trajectory(str(tmp_path / "nothing"))


def resave_snapshots(outdir, **entries):
    """Rewrite each npz of a stored run with entries added or replaced."""
    for path in Path(outdir).glob("snap_*.npz"):
        with np.load(path) as d:
            stored = dict(d)
        np.savez(path, **{**stored, **entries})


def test_run_stored_with_a_half_entry_still_loads(finished_run):
    # older versions also stored half=True in each npz; the entry is ignored
    want = load_trajectory(finished_run).snapshots
    resave_snapshots(finished_run, half=True)
    got = load_trajectory(finished_run).snapshots
    assert len(got) == len(want) > 1
    for a, b in zip(got, want):
        assert a.t == b.t and a.u.dtype == b.u.dtype
        assert np.array_equal(a.u.view(np.int64), b.u.view(np.int64))


def test_cli_monitor_refuses_a_full_disk_height_array(finished_run, tmp_path, capsys):
    # heights over y2 in [-r_dom, r_dom], a grid the lab no longer builds
    n1 = load_trajectory(finished_run).snapshots[0].u.shape[0]
    resave_snapshots(finished_run, u=np.zeros((n1, n1)), half=False)
    qpath = tmp_path / "queries.yaml"
    qpath.write_text(DENSITY_QUERY)
    assert main(["monitor", finished_run, str(qpath)]) == 2
    err = capsys.readouterr().err
    assert f"height array shape ({n1}, {n1}) does not match grid" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Command-line driver
# ---------------------------------------------------------------------------

@pytest.fixture()
def finished_run(tmp_path):
    out = str(tmp_path / "out")
    path = write_scenario(tmp_path, SPHERE_YAML.format(out=out))
    assert main(["run", path]) == 0
    return out


def test_cli_run_outputs(finished_run):
    names = os.listdir(finished_run)
    assert "monitors.csv" in names and "trajectory.json" in names
    assert "manifest.json" in names
    assert any(n.startswith("snap_") and n.endswith(".obj") for n in names)
    with open(os.path.join(finished_run, "monitors.csv")) as fh:
        assert fh.readline().strip() == "t,area,perimeter,energy,max_H,max_A"
    with open(os.path.join(finished_run, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["stop_reason"] == "completed"
    assert all(len(sha) == 64 for sha in manifest["files"].values())


def test_cli_run_prints_and_stores_the_run_stats(tmp_path, capsys):
    # the summary line and trajectory.json carry what run() counted; a reload keeps it
    out = str(tmp_path / "out")
    path = write_scenario(tmp_path, SPHERE_YAML.format(out=out))
    assert main(["run", path]) == 0
    scenario = load_scenario(path)
    stats = run(scenario.build_initial(), scenario.build_flow_config()).stats
    low, high, stages, s_max = (stats[k] for k in ("tau_min", "tau_max", "stages", "s_max"))
    assert stats["steps"] == 9 and 0 <= high - low <= 1e-15 and 18 <= stages <= 9 * s_max
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"stop_reason: completed (2 snapshots in {out}; 9 steps, tau {low:.4g} to {high:.4g}, "
        f"{stages} stages, at most {s_max} in one step)")
    with open(os.path.join(out, "trajectory.json")) as fh:
        assert json.load(fh)["stats"] == stats
    assert load_trajectory(out).stats == stats


def test_cli_monitor(finished_run, tmp_path):
    qpath = tmp_path / "queries.yaml"
    qpath.write_text(
        "- name: center\n  type: density\n  P: [0, 0, 0]\n  T: 0.25\n"
        "  sample_times: [0.0, 0.002, 0.0035]\n"
        "- name: hot\n  type: scan\n  epsilon: 1.0\n  r_grid: [0.1, 0.2]\n")
    assert main(["monitor", finished_run, str(qpath)]) == 0
    with open(os.path.join(finished_run, "density_center.csv")) as fh:
        assert fh.readline().strip() == "t,value,violation"
        rows = fh.read().strip().splitlines()
    assert len(rows) == 3
    with open(os.path.join(finished_run, "scan_hot.csv")) as fh:
        assert fh.readline().strip() == "px,py,pz,r,mass,flagged"


BOUNDARY_QUERY = ("- name: edge\n  type: density\n  location: boundary\n"
                  "  P: [0, 0, 0]\n  T: 0.25\n  sample_times: [0.0, 0.002, 0.0035]\n")


def test_cli_boundary_monitor_on_flat_run_matches_report(finished_run, tmp_path):
    qpath = tmp_path / "queries.yaml"
    qpath.write_text(BOUNDARY_QUERY)
    assert main(["monitor", finished_run, str(qpath)]) == 0
    got = np.loadtxt(os.path.join(finished_run, "density_edge.csv"), delimiter=",",
                     skiprows=1)
    rep = monotonicity_report(load_trajectory(finished_run), DensityQuery(
        P=np.zeros(3), T=0.25, location="boundary",
        sample_times=[0.0, 0.002, 0.0035]), patch=None)
    assert np.array_equal(got[:, 0], rep.times) and np.array_equal(got[:, 1], rep.values)


@pytest.fixture(scope="module")
def trough_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trough") / "run")
    assert main(["run", str(ROOT / "scenarios" / "trough_tilted.yaml"), "--out", out]) == 0
    return out


def test_cli_boundary_monitor_uses_the_runs_curved_patch(trough_run, tmp_path, capsys):
    # kappa left out: the run's kappa 0.5 admits tau <= 1.45e-10 only
    qpath = tmp_path / "queries.yaml"
    qpath.write_text(BOUNDARY_QUERY)
    assert main(["monitor", trough_run, str(qpath)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: TimeWindowError: ")
    assert "exceeds the admissible window" in err
    assert not os.path.exists(os.path.join(trough_run, "density_edge.csv"))


def test_cli_monitor_writes_nothing_when_a_later_query_fails(trough_run, tmp_path, capsys):
    qpath = tmp_path / "queries.yaml"
    qpath.write_text("- name: first\n  type: density\n  P: [0, 0, 0]\n  T: 0.25\n"
                     "  sample_times: [0.0, 0.001, 0.002]\n" + BOUNDARY_QUERY)
    assert main(["monitor", trough_run, str(qpath)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "TimeWindowError" in err
    assert not [f for f in os.listdir(trough_run) if f.startswith("density_")]


def test_reloaded_snapshots_share_one_patch(trough_run):
    snaps = load_trajectory(trough_run).snapshots
    assert len(snaps) > 1 and all(s.patch is snaps[0].patch for s in snaps)
    for s in snaps:
        s.geometry()
    assert len(snaps[0].patch.chart_memo) == 1   # one chart memo for the whole run


def test_cli_monitor_refuses_kappa_below_the_runs(trough_run, tmp_path, capsys):
    # the second of two boundary queries is refused, and the key says which
    qpath = tmp_path / "queries.yaml"
    qpath.write_text(BOUNDARY_QUERY.replace("edge", "edge0") + BOUNDARY_QUERY + "  kappa: 0\n")
    assert main(["monitor", trough_run, str(qpath)]) == 2
    assert "(key: [1].kappa)" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(trough_run, "density_edge.csv"))


DENSITY_BODY = "  P: [0, 0, 0]\n  T: 0.25\n  sample_times: [0.0]\n"
DENSITY_QUERY = "-" + DENSITY_BODY[1:]


@pytest.mark.parametrize("text, key", [
    ("- type: density\n  P: [0, 0, 0]\n  T: 0.25\n  sample_times: []\n", "[0].sample_times"),
    ("- type: density\n  T: 0.25\n  sample_times: [0.0]\n", "[0].P"),
    ("- type: density\n  P: [0, 0]\n  T: 0.25\n  sample_times: [0.0]\n", "[0].P"),
    ("- type: density\n  P: [0, 0, 0]\n  T: [0.25]\n  sample_times: [0.0]\n", "[0].T"),
    ("- type: density\n  P: [0, 0, 0]\n  T: 0.25\n  sample_times: [0.0]\n"
     "  location: rim\n", "[0].location"),
    ("- type: scan\n  epsilon: 1.0\n  r_grid: [0.1]\n- not a mapping\n", "[1]"),
    ("- type: scan\n  epsilon: 1.0\n  r_grid: []\n", "[0].r_grid"),
    ("- type: scan\n  r_grid: [0.1]\n", "[0].epsilon"),
    ("- type: curvature\n", "[0].type"),
    ("- type: [scan]\n", "[0].type"),
    (DENSITY_QUERY + "  kappa: [1, 2]\n", "[0].kappa"),
    (DENSITY_QUERY + "  r: {a: 1}\n", "[0].r"),
    (DENSITY_QUERY + "  r: x\n", "[0].r"),
    ("- P: [0, 0, 0]\n  T: null\n  sample_times: [0.0]\n", "[0].T"),
    # names: checked before the first query runs, so no CSV is written
    ("- name: fine\n" + DENSITY_BODY + "- name: a/b\n" + DENSITY_BODY, "[1].name"),
    (DENSITY_QUERY + "- name: q0\n" + DENSITY_BODY, "[1].name"),
    ("- name: [1]\n" + DENSITY_BODY, "[0].name"),
    ("- name: ''\n" + DENSITY_BODY, "[0].name"),
    ("- name: hot\n" + DENSITY_BODY + "- name: hot\n  type: scan\n  epsilon: 1.0\n"
     "  r_grid: [0.1]\n", "[1].name"),
    # keys a query type does not read: a misspelt cutoff would run the series without it
    (DENSITY_QUERY + "  radius: 0.1\n", "[0].radius"),
    ("- type: scan\n  epsilon: 1.0\n  r_grid: [0.1]\n  P: [0, 0, 0]\n", "[0].P"),
    # numbers follow the scenario rule: YAML numbers only, finite, and no bools; PyYAML
    # reads 1e-4, which has no dot, as a string
    ("- P: [0, 0, 0]\n  T: 1e-4\n  sample_times: [0.0]\n", "[0].T"),
    ("- P: [0, 0, 0]\n  T: true\n  sample_times: [0.0]\n", "[0].T"),
    (DENSITY_QUERY + "  r: .inf\n", "[0].r"),
    ("- P: [0, 0, '0']\n  T: 0.25\n  sample_times: [0.0]\n", "[0].P"),
    ("- type: scan\n  epsilon: 1.0\n  r_grid: [0.1, false]\n", "[0].r_grid"),
], ids=["empty-sample_times", "density-without-P", "P-of-two", "T-list", "bad-location",
        "item-not-a-mapping", "empty-r_grid", "scan-without-epsilon", "unknown-type",
        "type-list", "kappa-list", "r-mapping", "r-word", "T-null", "name-with-slash",
        "name-repeats-a-default", "name-not-a-string", "name-empty", "name-repeated",
        "density-radius", "scan-P", "T-1e-4-string", "T-bool", "r-inf", "P-string",
        "r_grid-bool"])
def test_cli_monitor_malformed_query_is_validation_error(trough_run, tmp_path, capsys, text, key):
    # every entry is checked before any query runs: exit 2, keyed, no traceback
    qpath = tmp_path / "queries.yaml"
    qpath.write_text(text)
    assert main(["monitor", trough_run, str(qpath)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("validation error: ") and f"(key: {key})" in err
    assert not [f for f in os.listdir(trough_run) if f.endswith(".csv") and f != "monitors.csv"]


@pytest.mark.parametrize("text, where", [
    ("- P: [0, 0, 0\n  T: 0.25\n  sample_times: [0.0]\n", "(line 2, column 4)"),
    ("- P: [0, 0, 0]\n  T: 0.25\n   sample_times: [0.0]\n", "(line 3, column 16)"),
    ("P: [0, 0, 0]\nT: 0.25\nsample_times: [0.0]\n", ""),
], ids=["unclosed-bracket", "bad-indent", "mapping-not-list"])
def test_cli_monitor_malformed_query_yaml_is_validation_error(trough_run, tmp_path, capsys,
                                                            text, where):
    # like a scenario: exit 2, the parse error's line and column, no traceback, no CSV
    qpath = tmp_path / "queries.yaml"
    qpath.write_text(text)
    assert main(["monitor", trough_run, str(qpath)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("validation error: ") and "Traceback" not in err
    assert err.rstrip().endswith(where) if where else "list of queries" in err
    assert err.count("line") == (1 if where else 0)   # the place is named once
    assert not [f for f in os.listdir(trough_run) if f.endswith(".csv") and f != "monitors.csv"]


def test_cli_scan_radius_must_be_positive(trough_run, tmp_path, capsys):
    # a radius of 0 gave a zero candidate spacing; a negative one an empty scan
    qpath = tmp_path / "queries.yaml"
    qpath.write_text("- type: scan\n  epsilon: 1.0e-6\n  r_grid: [0.1, 0.0]\n")
    assert main(["monitor", trough_run, str(qpath)]) == 2
    assert "r_grid must hold at least one radius, all positive" in capsys.readouterr().err


def test_cli_rescale(finished_run):
    rc = main(["rescale", finished_run, "--terminal-time", "0.002",
               "--lambda", "0.1", "--tau", "0.0",
               "--region-radius", "20.0"])
    assert rc == 0
    with open(os.path.join(finished_run, "planarity.csv")) as fh:
        assert fh.readline().strip() == "deviation,sheets,fit_nx,fit_ny,fit_nz"
        vals = fh.readline().strip().split(",")
    assert int(vals[1]) >= 1
    # frame.obj holds the frame's sample points as they are, with no faces
    traj = load_trajectory(finished_run)
    frame = parabolic_rescale(traj, np.zeros(3), 0.002, 0.1, 0.0,
                              patch=traj.snapshots[-1].patch)
    X = frame.surface.samples().X
    assert X.ndim == 2
    assert (Path(finished_run) / "frame.obj").read_bytes() == per_node_obj(X, faces=False).encode()


def test_cli_rescale_out_of_range_is_numerical(finished_run):
    rc = main(["rescale", finished_run, "--terminal-time", "0.25",
               "--lambda", "0.1", "--tau", "-1.0"])
    assert rc == 3


def test_cli_rescale_abort_writes_no_frame(trough_run, tmp_path, capsys):
    # the frame's samples all lie outside the boundary fit region: the abort leaves the
    # output directory as it was, with no new frame.obj beside an older planarity.csv
    out = tmp_path / "frames"
    out.mkdir()
    (out / "planarity.csv").write_text("older\n")
    rc = main(["rescale", trough_run, "--terminal-time", "0.0021", "--lambda", "0.01",
               "--boundary", "--out", str(out)])
    assert rc == 3 and "empty-region" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["planarity.csv"]
    assert (out / "planarity.csv").read_text() == "older\n"


@pytest.mark.parametrize("arg, value", [
    ("--lambda", "0"), ("--lambda", "-0.5"), ("--lambda", "inf"), ("--lambda", "abc"),
    ("--point", "0,0"), ("--point", "0,0,nan"), ("--point", "0,x,0"),
    ("--region-radius", "-1"), ("--terminal-time", "nan"), ("--tau", "inf"), ("--s", "-inf"),
])
def test_cli_rescale_bad_value_is_usage_error(finished_run, capsys, arg, value):
    args = {"--terminal-time": "0.002", "--lambda": "0.1", "--tau": "0.0", arg: value}
    with pytest.raises(SystemExit) as exc:
        main(["rescale", finished_run, *(f"{k}={v}" for k, v in args.items())])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "usage:" in err and f"argument {arg}" in err, err
    assert not os.path.exists(os.path.join(finished_run, "frame.obj"))


@pytest.mark.parametrize("arg, value", [("--lambda", "0.1"), ("--tau", "0.0")])
def test_cli_rescale_s_excludes_lambda_and_tau(finished_run, capsys, arg, value):
    # --s picks the frame on its own; beside --lambda or --tau it would override them
    with pytest.raises(SystemExit) as exc:
        main(["rescale", finished_run, "--terminal-time=0.002", "--s=0.5", f"{arg}={value}"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "usage:" in err
    assert "argument --s: not allowed with argument --lambda or --tau" in err, err
    assert not os.path.exists(os.path.join(finished_run, "frame.obj"))


# the run's snapshots span t in [0, 0.004]; each frame reads a time inside it
@pytest.mark.parametrize("args, frame", [
    (["--s=1.39"], lambda traj, patch: normalized_frame(traj, np.zeros(3), 1.39, 0.25,
                                                        patch=patch)),
    (["--lambda=0.5"], lambda traj, patch: parabolic_rescale(traj, np.zeros(3), 0.25, 0.5, -1.0,
                                                             patch=patch)),
    (["--tau=-0.248"], lambda traj, patch: parabolic_rescale(traj, np.zeros(3), 0.25, 1.0, -0.248,
                                                             patch=patch)),
], ids=["s", "lambda-with-default-tau", "tau-with-default-lambda"])
def test_cli_rescale_frame_choice(finished_run, args, frame):
    assert main(["rescale", finished_run, "--terminal-time=0.25", "--region-radius=20",
                 *args]) == 0
    traj = load_trajectory(finished_run)
    X = frame(traj, traj.snapshots[-1].patch).surface.samples().X
    assert (Path(finished_run) / "frame.obj").read_bytes() == per_node_obj(X, faces=False).encode()


def test_cli_bad_scenario_exit_2(tmp_path):
    path = write_scenario(tmp_path, "patch:\n  kappa: -2.0\n"
                          "grid:\n  h: 0.1\n  r_dom: 0.5\n"
                          "flow:\n  t_end: 0.001\n")
    assert main(["run", path]) == 2


@pytest.mark.parametrize("patch, key", [
    ("phi: paraboloid:0.5\n  chart_radius: 5.0", "patch.chart_radius"),
    ("phi: sphere_cap:2\n  kappa: 0", "patch.kappa"),
    ("phi: paraboloid:2\n  kappa: 0.25\n  chart_radius: 4.0", "patch.kappa"),
    ("phi: paraboloid:-0.5", "patch.phi"),
], ids=["chart_radius-past-1/kappa", "curved-kappa-0", "kappa-below-curvature",
        "not-mean-convex"])
def test_cli_patch_rule_names_its_key(tmp_path, capsys, patch, key):
    # the rule lives in SupportPatch; the scenario only names the offending key
    path = write_scenario(tmp_path, f"patch:\n  {patch}\n"
                          "grid:\n  h: 0.0625\n  r_dom: 0.5\n"
                          "flow:\n  t_end: 0.001\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert f"(key: {key})" in capsys.readouterr().err


def test_cli_missing_dir_exit_2(tmp_path):
    qpath = tmp_path / "q.yaml"
    qpath.write_text("- name: a\n  type: density\n  P: [0, 0, 0]\n  T: 1.0\n"
                     "  sample_times: [0.0]\n")
    assert main(["monitor", str(tmp_path / "absent"), str(qpath)]) == 2


def test_cli_verify_subprocess(checkout_python):
    proc = checkout_python(["-m", "fbmcf.cli", "verify"])
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert "verification PASSED" in proc.stdout, output
    assert proc.stdout.count("[PASS]") == 12 and "[SKIP]" not in proc.stdout, output


def test_monitor_and_rescale_run_without_scipy(finished_run, tmp_path, checkout_python):
    qpath = tmp_path / "queries.yaml"
    qpath.write_text("- P: [0, 0, 0]\n  T: 0.25\n  sample_times: [0.0, 0.002, 0.0035]\n"
                     "- type: scan\n  epsilon: 1.0\n  r_grid: [0.1, 0.2]\n")
    code = ("import sys; from fbmcf.cli import main; "
            f"rc = [main(['monitor', {finished_run!r}, {str(qpath)!r}]), "
            f"main(['rescale', {finished_run!r}, '--terminal-time', '0.002', "
            "'--lambda', '0.1', '--tau', '0.0', '--region-radius', '20.0'])]; "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = checkout_python(["-c", code])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0] []", proc.stdout + proc.stderr


def test_import_leaves_scipy_ndimage_and_spatial_unloaded(checkout_python):
    # no module of fbmcf imports scipy, whose ndimage and spatial alone doubled start-up
    proc = checkout_python(["-c", "import sys, fbmcf, fbmcf.cli, fbmcf.acceptance; "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout + proc.stderr
