"""Scenario and query files: strict YAML with fixed key catalogs.

Unknown keys are errors, not warnings, so stored scenarios stay auditable.
A `patch` or `flow` key left out takes its default from `SupportPatch` or
`FlowConfig`, and the echo reads the effective values back from the built
objects, so the manifest records the complete effective configuration.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import PatchFieldError, ScenarioError
from .flow import FlowConfig
from .geometry import GraphSurface
from .monitors import DensityQuery
from .support import SupportPatch

_SECTIONS = {
    "patch": {"phi", "kappa", "chart_radius"},
    "initial": {"kind", "R0", "tilt"},
    "grid": {"h", "r_dom"},
    "flow": {"cfl", "t_end", "snapshot_stride", "outer_bc", "blowup_threshold"},
}
_TOP_KEYS = set(_SECTIONS) | {"output_dir", "name"}
_INITIAL_KINDS = ("zero", "sphere", "tilted-plane")   # a tuple: a kind may be unhashable

_DEFAULTS = {
    "patch": {"phi": "flat"},
    "initial": {"kind": "zero", "R0": 1.0, "tilt": 0.0},
}


def _real(test=lambda v: True):
    """A check that a value is a finite real number, not a bool, and passes test."""
    return lambda v: (isinstance(v, numbers.Real) and not isinstance(v, bool)
                      and math.isfinite(v) and test(v))


_POSITIVE = _real(lambda v: v > 0.0), "a finite number > 0"
_FINITE = _real(), "a finite number"
_NAME = (lambda v: isinstance(v, str) and v != ""), "a non-empty string"

# (check, what it wants) of each key, applied where a scenario sets the key: type first
_CHECKS = {
    "name": _NAME,
    "output_dir": _NAME,
    "patch.phi": (lambda v: isinstance(v, str), "a string"),
    "patch.kappa": (_real(lambda v: v >= 0.0), "a finite number >= 0"),
    "patch.chart_radius": _POSITIVE,
    "initial.kind": (lambda v: v in _INITIAL_KINDS, "one of " + ", ".join(_INITIAL_KINDS)),
    "initial.R0": _POSITIVE,
    "initial.tilt": _FINITE,
    "grid.h": _POSITIVE,
    "grid.r_dom": _POSITIVE,
    "flow.cfl": (_real(lambda v: 0.0 < v <= 0.25), "a number in (0, 0.25]"),
    "flow.t_end": _POSITIVE,
    "flow.snapshot_stride": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "flow.outer_bc": (lambda v: v in ("dirichlet-exact", "frozen"), "dirichlet-exact or frozen"),
    "flow.blowup_threshold": _POSITIVE,
}

# the fields each query type must set; its other fields in _QUERY_CHECKS may be left out
_QUERY_NEEDS = {"density": ("P", "T", "sample_times"), "scan": ("epsilon", "r_grid")}
_QUERY_TYPE = (lambda v: v in tuple(_QUERY_NEEDS), "density or scan")   # v may be unhashable
_QUERY_NAME = (lambda v: _NAME[0](v) and os.path.basename(v) == v,   # it names a file
               "a non-empty string with no path separator")
_NUMBERS = (lambda v: isinstance(v, list) and v != [] and all(map(_real(), v)),
            "a non-empty list of finite numbers")
# (check, what it wants) of each query field, keyed <type>.<field>
_QUERY_CHECKS = {
    "density.name": _QUERY_NAME, "density.type": _QUERY_TYPE,
    "density.location": (lambda v: v in ("interior", "boundary"), "interior or boundary"),
    "density.P": (lambda v: _NUMBERS[0](v) and len(v) == 3, "three finite numbers"),
    "density.T": _FINITE, "density.r": _FINITE, "density.kappa": _FINITE,
    "density.sample_times": _NUMBERS,
    "scan.name": _QUERY_NAME, "scan.type": _QUERY_TYPE,
    "scan.epsilon": _FINITE, "scan.r_grid": _NUMBERS,
}
ScanQuery = namedtuple("ScanQuery", "epsilon r_grid")   # singular_set_scan's arguments


@dataclass
class Scenario:
    name: str
    patch_spec: dict
    initial_spec: dict
    grid_spec: dict
    flow_spec: dict
    output_dir: str

    def build_patch(self):
        try:
            return SupportPatch.from_spec(**self.patch_spec)
        except PatchFieldError as err:
            raise ScenarioError(str(err), key=f"patch.{err.field}") from err

    def build_initial(self):
        patch = self.build_patch()
        h, r_dom = self.grid_spec["h"], self.grid_spec["r_dom"]
        kind = self.initial_spec["kind"]
        if kind == "zero":
            return GraphSurface.zero(patch, h, r_dom)
        if kind == "sphere":
            return GraphSurface.sphere_cap(self.initial_spec["R0"], h, r_dom,
                                           t=0.0, patch=patch)
        if kind == "tilted-plane":
            tilt = self.initial_spec["tilt"]
            return GraphSurface.from_height(lambda a, b: tilt * a, patch, h, r_dom)
        raise ScenarioError(f"unknown initial kind {kind!r}", key="initial.kind")

    def build_flow_config(self):
        if self.flow_spec.get("outer_bc") == "dirichlet-exact":
            _require(self.initial_spec["kind"] == "sphere",
                     "dirichlet-exact needs a sphere initial surface", "flow.outer_bc")
            return FlowConfig.for_sphere(self.initial_spec["R0"], **self.flow_spec)
        return FlowConfig(**self.flow_spec)

    def echo(self):
        """Complete effective configuration, read back from the built objects."""
        config = self.build_flow_config()
        out = {"name": self.name, "patch": self.build_patch().spec(),
               "initial": self.initial_spec, "grid": self.grid_spec,
               "flow": {k: getattr(config, k) for k in sorted(_SECTIONS["flow"])},
               "output_dir": self.output_dir}
        if self.initial_spec["kind"] == "sphere":
            out["singular_time"] = self.initial_spec["R0"] ** 2 / 4.0
        return out


def _require(cond, message, key):
    if not cond:
        raise ScenarioError(message, key=key)


def _check_entries(entries, checks, kind, where, needs=()):
    """Check each entry of a mapping with the catalog checks, keyed `<kind>.<key>`, and that
    it sets each key in needs; a failure raises ScenarioError keyed `<where>.<key>`."""
    for k, v in entries.items():
        key = f"{where}.{k}"
        _require(f"{kind}.{k}" in checks, f"unknown key {key}", key)
        ok, want = checks[f"{kind}.{k}"]
        _require(ok(v), f"{k} must be {want}, not {v!r}", key)
    for k in needs:
        _require(k in entries, f"{where} needs {k}", f"{where}.{k}")


def _merge_section(name, data, needs=()):
    section = data.get(name, {})
    _require(isinstance(section, dict), f"section {name!r} must be a mapping", name)
    _check_entries(section, _CHECKS, name, name, needs)
    return {**_DEFAULTS.get(name, {}), **section}


def _read_yaml(path, what):
    """The data of a YAML file; a syntax error raises ScenarioError with its line and column."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except yaml.YAMLError as err:   # str(err) names the place too, so only its parts are read
        mark = getattr(err, "problem_mark", None)
        line, column = (None, None) if mark is None else (mark.line + 1, mark.column + 1)
        text = ", ".join(filter(None, map(vars(err).get, ("problem", "context"))))
        raise ScenarioError(f"{what} parse error: {text or err}", line=line, column=column) from err


def load_scenario(path):
    data = _read_yaml(path, "scenario")
    _require(isinstance(data, dict), "scenario file must contain a mapping", None)
    return validate_scenario(data)


def load_queries(path, kappa):
    """The (name, query) pairs of a query file in file order, each query a `DensityQuery` or a
    `ScanQuery`, all checked and named (`q<k>` by default) first; a bad one raises ScenarioError
    keyed as in `[0].P`.  kappa, the run's patch kappa, is a density query's default and least."""
    data = _read_yaml(path, "query file")
    _require(isinstance(data, list), "query file must contain a list of queries", None)
    queries = []
    for k, q in enumerate(data):
        _require(isinstance(q, dict), f"query {k} must be a mapping", f"[{k}]")
        kind = q.get("type", "density")
        _require(_QUERY_TYPE[0](kind), f"unknown query type {kind!r}", f"[{k}].type")
        _check_entries(q, _QUERY_CHECKS, kind, f"[{k}]", _QUERY_NEEDS[kind])
        q = {"name": f"q{k}", "location": "interior", "r": np.inf, "kappa": kappa, **q}
        _require(q["name"] not in dict(queries), f"name {q['name']!r} is taken", f"[{k}].name")
        # a boundary kernel is only admissible for the run's own kappa or above
        _require(q["kappa"] >= kappa, f"kappa {q['kappa']:g} is below the run's patch kappa "
                 f"{kappa:g}", f"[{k}].kappa")
        queries.append((q["name"], ScanQuery(float(q["epsilon"]), q["r_grid"]) if kind == "scan"
                        else DensityQuery(np.asarray(q["P"], dtype=float), float(q["T"]),
                                          q["location"], float(q["r"]), float(q["kappa"]),
                                          [float(t) for t in q["sample_times"]])))
    return queries


def validate_scenario(data):
    for k, v in data.items():
        _require(k in _TOP_KEYS, f"unknown key {k}", k)
        if k not in _SECTIONS:
            ok, want = _CHECKS[k]
            _require(ok(v), f"{k} must be {want}, not {v!r}", k)

    patch = _merge_section("patch", data)
    initial = _merge_section("initial", data)

    grid = _merge_section("grid", data, ("h", "r_dom"))
    ratio = grid["r_dom"] / grid["h"]
    _require(abs(ratio - round(ratio)) < 1e-9,
             "h must divide r_dom commensurably", "grid.h")

    flow = _merge_section("flow", data, ("t_end",))

    if initial["kind"] == "sphere":
        # the initial graph must exist over the whole footprint rectangle
        corner = np.sqrt(2.0) * grid["r_dom"]
        _require(initial["R0"] > corner,
                 "sphere radius must exceed the footprint diagonal",
                 "initial.R0")

    return Scenario(data.get("name", "scenario"), patch, initial, grid, flow,
                    data.get("output_dir", "out"))
