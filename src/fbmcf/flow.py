"""Time stepping of the quasilinear graph equation for the free-boundary flow.

The height field obeys du/dt = g^{ij}(y,u,Du) D2_ij u + f(y,u,Du), with the
homogeneous Neumann condition at the edge y2 = 0 enforced exactly at the
stencil level through ghost-row even reflection.  The outer rim of the chart
window is an artifact of the graph parametrization and carries Dirichlet
(exact-solution) or frozen values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .analytic import AnalyticSurface
from .errors import (
    CflViolationError,
    ChartExitError,
    FbmcfError,
    NonFiniteError,
    PastSingularityError,
    ReflectionConditionError,
)
from .geometry import GraphSurface, _derivative_planes, grid_nodes, integrate, perimeter
from .support import components, trailing


def shrinking_radius(R0, t):
    """Radius law R(t) = sqrt(R0^2 - 4t) of the shrinking sphere."""
    rsq = R0**2 - 4.0 * t
    if rsq <= 0.0:
        raise PastSingularityError(
            f"time {t:g} is at or past the singular time {R0**2 / 4.0:g}"
        )
    return float(np.sqrt(rsq))


@dataclass
class FlowConfig:
    t_end: float
    cfl: float = 0.2
    snapshot_stride: int = 1
    outer_bc: str = "dirichlet-exact"   # dirichlet-exact | frozen
    scheme: str = "explicit-euler"      # explicit-euler | semi-implicit-linearized
    blowup_threshold: float = 0.5
    rim_values: object = None           # callable(Y1, Y2, t) -> heights
    max_steps: int = 10**6

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.25:
            raise ValueError("cfl must lie in (0, 0.25]")
        if self.outer_bc not in ("dirichlet-exact", "frozen"):
            raise ValueError(f"unknown outer boundary mode {self.outer_bc!r}")
        if self.scheme not in ("explicit-euler", "semi-implicit-linearized"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.outer_bc == "dirichlet-exact" and self.rim_values is None:
            raise ValueError("dirichlet-exact requires rim_values")

    @classmethod
    def for_sphere(cls, R0, t_end, **kw):
        def rim(Y1, Y2, t):
            R = shrinking_radius(R0, t)
            return np.sqrt(R**2 - Y1**2 - Y2**2)

        return cls(t_end=t_end, rim_values=rim, **kw)


@dataclass
class Trajectory:
    """Snapshots and monitor series of a run.

    stop_reason is "completed", "blowup", or "<error class>: <message>" when an
    FbmcfError aborted the run; error then holds that exception, without its
    traceback (in memory only; a reloaded trajectory has error None).
    """

    snapshots: list
    monitors: dict = field(default_factory=dict)
    stop_reason: str = "completed"
    error: Exception = None

    @property
    def times(self):
        return np.array([s.t for s in self.snapshots])

    def snapshot_at(self, t):
        """Nearest stored snapshot and its temporal offset from t."""
        times = self.times
        k = int(np.argmin(np.abs(times - t)))
        return self.snapshots[k], float(times[k] - t)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _active_mask(surface):
    return _static_grid(surface.h, surface.r_dom, surface.half)[0]


@functools.lru_cache(maxsize=32)
def _static_grid(h, r_dom, half):
    """Read-only active-node mask and squared chart radius Y1^2 + Y2^2 of one grid."""
    Y1, Y2 = grid_nodes(h, r_dom, half)
    act = np.hypot(Y1, Y2) < r_dom - 1e-12 * r_dom
    rsq = Y1**2 + Y2**2
    for a in (act, rsq):
        a.setflags(write=False)
    return act, rsq


def _apply_rim(u_new, surface, config, t_new):
    act = _active_mask(surface)
    if config.outer_bc == "dirichlet-exact":
        Y1, Y2 = grid_nodes(surface.h, surface.r_dom, surface.half)
        rim = np.asarray(config.rim_values(Y1, Y2, t_new), dtype=float)
        u_new = np.where(act, u_new, rim)
    else:
        u_new = np.where(act, u_new, surface.u)
    return u_new


def _contract(a, b):
    """a^{ij} b_ij over component-first 2x2 planes a[i, j] and b[i, j]."""
    return a[0, 0] * b[0, 0] + a[0, 1] * b[0, 1] + a[1, 0] * b[1, 0] + a[1, 1] * b[1, 1]


def _stability_bounds(surface, config):
    """The explicit step bound cfl h^2 / max eig(g^{ij}) and cfl * max sum |g^{ij}|.

    Both maxima run over the active nodes.
    """
    a = components(surface.geometry().ginv, 2)
    act = _active_mask(surface)
    tr = a[0, 0] + a[1, 1]
    dsc = np.sqrt((a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] ** 2)
    smax = float(np.max((0.5 * (tr + dsc))[act]))
    sum_bound = float(np.max(np.abs(a).sum(axis=(0, 1))[act]))
    return config.cfl * surface.h**2 / smax, config.cfl * sum_bound


def step(surface, dt, config):
    """One time step; returns a new surface stamped at t + dt."""
    g = surface.geometry()
    a, f = components(g.ginv, 2), g.coeff_f
    dt_max, cfl_sum = _stability_bounds(surface, config)
    if dt > dt_max * (1.0 + 1e-9):
        raise CflViolationError(f"dt = {dt:g} exceeds cfl bound {dt_max:g}")
    if cfl_sum > 0.5 + 1e-9:
        raise CflViolationError("cfl times max coefficient sum exceeds 1/2")

    if config.scheme == "explicit-euler":
        u_new = surface.u + dt * (_contract(a, components(g.d2u, 2)) + f)
    else:
        u_new = _semi_implicit(surface, dt, a, f)
    u_new = _apply_rim(u_new, surface, config, surface.t + dt)

    if not np.all(np.isfinite(u_new)):
        raise NonFiniteError("non-finite height after step")
    rsq = _static_grid(surface.h, surface.r_dom, surface.half)[1]
    if np.max(rsq + u_new**2) >= surface.patch.chart_radius**2:
        raise ChartExitError("surface left the chart validity ball")
    return surface.with_height(u_new, t=surface.t + dt)


def _semi_implicit(surface, dt, a, f, tol=1e-12, max_sweeps=500):
    """Backward Euler with lagged coefficients, solved by damped Jacobi."""
    h = surface.h
    target = surface.u + dt * f
    diag = 1.0 + 2.0 * dt * (a[0, 0] + a[1, 1]) / h**2
    v = surface.u.copy()
    for _ in range(max_sweeps):
        _, d2v = _derivative_planes(v, h, surface.half)
        res = v - dt * _contract(a, d2v) - target
        if np.max(np.abs(res)) < tol * (1.0 + np.max(np.abs(v))):
            return v
        v = v - 0.8 * res / diag
    raise FbmcfError("semi-implicit Jacobi iteration did not converge")


def run(initial, config):
    """Drive the flow to t_end, recording monitor series and snapshots.

    An FbmcfError from the geometry or the step ends the run with what it has
    recorded so far.  The surface only advances once its geometry exists, so
    every stored snapshot can be written out.
    """
    surface = initial
    mon = {k: [] for k in ("t", "area", "perimeter", "energy", "max_H", "max_A")}
    snapshots = []
    stop_reason, error = "completed", None
    step_count = 0
    try:
        g = surface.geometry()
        snapshots.append(surface)
        while True:
            mask = g.mask
            mon["t"].append(surface.t)
            mon["area"].append(integrate(surface, 1.0))
            mon["perimeter"].append(perimeter(surface) if surface.half else 0.0)
            mon["energy"].append(integrate(surface, g.A2))
            mon["max_H"].append(float(np.max(np.abs(g.H[mask]))))
            max_a = float(np.max(np.sqrt(g.A2[mask])))
            mon["max_A"].append(max_a)

            if surface.h * max_a >= config.blowup_threshold:
                stop_reason = "blowup"
                break
            if surface.t >= config.t_end - 1e-14 or step_count >= config.max_steps:
                break

            dt = min(_stability_bounds(surface, config)[0], config.t_end - surface.t)
            new = step(surface, dt, config)
            g = new.geometry()
            surface = new
            step_count += 1
            if step_count % config.snapshot_stride == 0:
                snapshots.append(surface)
    except FbmcfError as err:
        # kept without its traceback, which would pin the frames of the run
        stop_reason, error = f"{type(err).__name__}: {err}", err.with_traceback(None)

    if snapshots and snapshots[-1] is not surface:
        snapshots.append(surface)
    mon = {k: np.array(v) for k, v in mon.items()}
    return Trajectory(snapshots, mon, stop_reason, error)


# ---------------------------------------------------------------------------
# Exact solutions
# ---------------------------------------------------------------------------

def exact_surface(kind, t=0.0, R0=1.0, center=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
                  form="analytic", h=None, r_dom=None, patch=None):
    """Closed-form flow snapshots: plane, half-plane, sphere, hemisphere."""
    center = np.asarray(center, dtype=float)
    if kind == "plane":
        return AnalyticSurface.plane(center, normal, t=t)
    if kind == "half-plane":
        return AnalyticSurface.half_plane(center, normal, t=t)
    if kind in ("sphere", "hemisphere"):
        R = shrinking_radius(R0, t)
        if form == "analytic":
            if kind == "sphere":
                return AnalyticSurface.sphere(center, R, t=t)
            return AnalyticSurface.hemisphere(center, R, t=t)
        if kind == "sphere":
            return GraphSurface.sphere_cap(R0, h, r_dom, t=t, patch=patch, half=True)
        raise ValueError("the full hemisphere is not a single chart graph; "
                         "use analytic form")
    raise ValueError(f"unknown exact surface kind {kind!r}")


def exact_trajectory(kind, times, R0=1.0, center=(0.0, 0.0, 0.0)):
    """Trajectory of closed-form snapshots with closed-form monitor series."""
    snaps = [exact_surface(kind, t=t, R0=R0, center=center) for t in times]
    times = np.asarray(times, dtype=float)
    R = np.array([shrinking_radius(R0, t) for t in times]) \
        if kind in ("sphere", "hemisphere") else np.full(len(times), np.inf)
    if kind == "sphere":
        area, en, per = 4.0 * np.pi * R**2, np.full(len(R), 8.0 * np.pi), 0.0 * R
    elif kind == "hemisphere":
        area, en, per = 2.0 * np.pi * R**2, np.full(len(R), 4.0 * np.pi), 2.0 * np.pi * R
    else:
        area = en = per = np.zeros(len(times))
    mon = {"t": times, "area": area, "perimeter": per, "energy": en,
           "max_H": 2.0 / R, "max_A": np.sqrt(2.0) / R}
    return Trajectory(snaps, mon, "completed")


# ---------------------------------------------------------------------------
# Reflection principle
# ---------------------------------------------------------------------------

def even_extension(surface, tol_N=None):
    """Even extension of the height and PDE coefficients across y2 = 0.

    Returns (ubar, abar, fbar) on the full rectangle; abar components flip
    sign once per distance index, so continuity of the mixed coefficient
    across the edge requires a^{12}(y1, 0) = 0, which is asserted.
    """
    if not surface.half:
        raise ValueError("even extension needs a half-domain surface")
    if tol_N is None:
        tol_N = surface.h**2
    g = surface.geometry()
    a, f = components(g.ginv, 2), g.coeff_f
    a12_edge = float(np.max(np.abs(a[0, 1, :, 0])))
    if a12_edge > 10.0 * tol_N:
        raise ReflectionConditionError(
            f"mixed coefficient {a12_edge:g} does not vanish on the edge"
        )

    def ext(field, sign):
        out = np.concatenate([sign * field[:, :0:-1], field], axis=1)
        return out

    ubar = ext(surface.u, +1.0)
    fbar = ext(f, +1.0)
    abar = np.empty((2, 2) + ubar.shape)
    abar[0, 0] = ext(a[0, 0], +1.0)
    abar[1, 1] = ext(a[1, 1], +1.0)
    abar[0, 1] = abar[1, 0] = ext(a[0, 1], -1.0)
    return ubar, trailing(abar, 2), fbar


def extension_residual(surface):
    """Spatial PDE operator evaluated on the even extension (full rectangle)."""
    ubar, abar, fbar = even_extension(surface)
    _, d2u = _derivative_planes(ubar, surface.h, half=False)
    return _contract(components(abar, 2), d2u) + fbar


# ---------------------------------------------------------------------------
# Temporal regularity diagnostic
# ---------------------------------------------------------------------------

def temporal_regularity_probe(trajectory, node, window):
    """Sup of |Du(x,t) - Du(x,t')| / |t - t'|^{1/2} at a grid node."""
    t0, t1 = window
    snaps = [s for s in trajectory.snapshots if t0 <= s.t <= t1]
    if len(snaps) < 3:
        raise FbmcfError("insufficient-snapshots: need at least 3 in the window")
    i, j = node
    grads = np.array([s.geometry().du[i, j] for s in snaps])
    times = np.array([s.t for s in snaps])
    dt = np.abs(times[:, None] - times[None, :])
    dg = np.linalg.norm(grads[:, None, :] - grads[None, :, :], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(dt > 0, dg / np.sqrt(dt), 0.0)
    return float(np.max(q))
