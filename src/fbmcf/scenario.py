"""Scenario configuration files: strict YAML with a fixed key catalog.

Unknown keys are errors, not warnings, so stored scenarios stay auditable.
A `patch` or `flow` key left out takes its default from `SupportPatch` or
`FlowConfig`, and the echo reads the effective values back from the built
objects, so the manifest records the complete effective configuration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import PatchFieldError, ScenarioError
from .flow import FlowConfig
from .geometry import GraphSurface
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
    "initial.tilt": (_real(), "a finite number"),
    "grid.h": _POSITIVE,
    "grid.r_dom": _POSITIVE,
    "flow.cfl": (_real(lambda v: 0.0 < v <= 0.25), "a number in (0, 0.25]"),
    "flow.t_end": _POSITIVE,
    "flow.snapshot_stride": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "flow.outer_bc": (lambda v: v in ("dirichlet-exact", "frozen"), "dirichlet-exact or frozen"),
    "flow.blowup_threshold": _POSITIVE,
}


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
            if self.initial_spec["kind"] != "sphere":
                raise ScenarioError(
                    "dirichlet-exact needs a sphere initial surface",
                    key="flow.outer_bc")
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


def _merge_section(name, data):
    merged = dict(_DEFAULTS.get(name, {}))
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ScenarioError(f"section {name!r} must be a mapping", key=name)
    for k, v in section.items():
        key = f"{name}.{k}"
        _require(k in _SECTIONS[name], f"unknown key {key}", key)
        ok, want = _CHECKS[key]
        _require(ok(v), f"{k} must be {want}, not {v!r}", key)
        merged[k] = v
    return merged


def load_scenario(path):
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        raise ScenarioError(
            f"scenario parse error: {err}",
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1) from err
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a mapping")
    return validate_scenario(data)


def validate_scenario(data):
    for k, v in data.items():
        _require(k in _TOP_KEYS, f"unknown key {k}", k)
        if k not in _SECTIONS:
            ok, want = _CHECKS[k]
            _require(ok(v), f"{k} must be {want}, not {v!r}", k)

    patch = _merge_section("patch", data)
    initial = _merge_section("initial", data)

    grid = _merge_section("grid", data)
    _require("h" in grid and "r_dom" in grid, "grid needs h and r_dom", "grid")
    ratio = grid["r_dom"] / grid["h"]
    _require(abs(ratio - round(ratio)) < 1e-9,
             "h must divide r_dom commensurably", "grid.h")

    flow = _merge_section("flow", data)
    _require("t_end" in flow, "flow needs t_end", "flow.t_end")

    if initial["kind"] == "sphere":
        # the initial graph must exist over the whole footprint rectangle
        corner = np.sqrt(2.0) * grid["r_dom"]
        _require(initial["R0"] > corner,
                 "sphere radius must exceed the footprint diagonal",
                 "initial.R0")

    return Scenario(data.get("name", "scenario"), patch, initial, grid, flow,
                    data.get("output_dir", "out"))
