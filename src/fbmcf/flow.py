"""Time stepping of the quasilinear graph equation for the free-boundary flow.

The height field obeys du/dt = g^{ij}(y,u,Du) D2_ij u + f(y,u,Du), with the
homogeneous Neumann condition at the edge y2 = 0 enforced exactly at the
stencil level through ghost-row even reflection.  The outer rim of the chart
window is an artifact of the graph parametrization and carries Dirichlet
(exact-solution) or frozen values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import AnalyticSurface
from .errors import CflViolationError, FbmcfError, NonFiniteError, PastSingularityError
from .geometry import integrate, perimeter

MAX_STEPS = 10**6   # hard bound on the steps of one run


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
    """Settings of one run.

    `run` advances in RKL2 steps of length tau (see `_rkl2_step`), each made
    of s explicit Euler sub-steps (`_euler`) of length w1 tau, w1 = 4 / (s^2 + s - 2),
    and cfl bounds each sub-step.  cfl <= 1/4 is the whole stability rule of a
    sub-step.  A sub-step is dt <= cfl h^2 / max eig(g^{ij}) (see `_stability_bound`),
    and a symmetric positive 2x2 matrix has sum |g^{ij}| <= 2 max eig(g^{ij}), so
    dt sum |g^{ij}| / h^2 <= 2 cfl <= 1/2 at every node: the weight
    1 - 2 dt (g^{11} + g^{22}) / h^2 of a node's own height in its update never
    turns negative.  The RKL2 step is stable but, unlike a single Euler step,
    not monotone: from rough trough data at h = 1/64 (the tilted plane with
    uniform noise of size 3.9e-3, eight draws) the area rose within one step
    by up to 1.5e-7, where explicit steps let it rise by up to 1.6e-8.
    """

    t_end: float
    cfl: float = 0.2
    snapshot_stride: int = 1
    outer_bc: str = "frozen"            # dirichlet-exact | frozen
    blowup_threshold: float = 0.5
    rim_values: object = None           # callable(Y1, Y2, t) -> heights

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.25:
            raise ValueError("cfl must lie in (0, 0.25]")
        for name in ("t_end", "blowup_threshold"):
            if not 0.0 < getattr(self, name) < np.inf:   # NaN fails too
                raise ValueError(f"{name} must be a finite number > 0")
        if type(self.snapshot_stride) is not int or self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be an integer >= 1")
        if self.outer_bc not in ("dirichlet-exact", "frozen"):
            raise ValueError(f"unknown outer boundary mode {self.outer_bc!r}")
        if self.outer_bc == "dirichlet-exact" and self.rim_values is None:
            raise ValueError("dirichlet-exact requires rim_values")

    @classmethod
    def for_sphere(cls, R0, t_end, outer_bc="dirichlet-exact", **kw):
        """Settings whose rim, by default, holds the exact shrinking sphere of radius R0."""
        def rim(Y1, Y2, t):
            R = shrinking_radius(R0, t)
            return np.sqrt(R**2 - Y1**2 - Y2**2)

        return cls(t_end=t_end, outer_bc=outer_bc, rim_values=rim, **kw)


@dataclass
class Trajectory:
    """Snapshots and monitor series of a run.

    stop_reason is "completed", "blowup", or "<error class>: <message>" when an
    FbmcfError aborted the run; error then holds that exception, without its
    traceback (in memory only; a reloaded trajectory has error None).  stats
    counts what `run` did: its completed steps, their stages (Euler
    sub-steps), the shortest and longest step length tau (None before the
    first step) and the most stages of one step.
    """

    snapshots: list
    monitors: dict = field(default_factory=dict)
    stop_reason: str = "completed"
    error: Exception = None
    stats: dict = field(default_factory=dict)

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

def _apply_rim(u_new, surface, config, t_new):
    grid = surface.grid
    if config.outer_bc == "dirichlet-exact":
        rim = np.asarray(config.rim_values(*grid.nodes, t_new), dtype=float)
    else:
        rim = surface.u
    return np.where(grid.active, u_new, rim)


def _stability_bound(surface, config, ginv_max=None):
    """The explicit step bound cfl h^2 / max eig(g^{ij}) (see `FlowConfig`), with the
    eigenvalue of the surface's geometry unless ginv_max is given."""
    return config.cfl * surface.h**2 / (surface.geometry().ginv_max if ginv_max is None
                                        else ginv_max)


def _advance(surface, u_new, config, t_new):
    """surface moved to heights u_new at t_new, its rim applied at t_new."""
    u_new = _apply_rim(u_new, surface, config, t_new)
    if not np.all(np.isfinite(u_new)):
        raise NonFiniteError("non-finite height after step")
    return surface.with_height(u_new, t=t_new)


def _euler(surface, dt, config):
    """The explicit Euler sub-step from surface: (u + dt L, L) for L = g^{ij} D2_ij u + f
    (`GraphSurface.operator`), the rim not applied, as each caller's `_advance` applies it.
    Raises CflViolationError where dt exceeds the surface's stability bound."""
    L, ginv_max = surface.operator()
    dt_max = _stability_bound(surface, config, ginv_max)
    if dt > dt_max * (1.0 + 1e-9):
        raise CflViolationError(f"dt = {dt:g} exceeds cfl bound {dt_max:g}")
    return surface.u + dt * L, L


def step(surface, dt, config):
    """One explicit Euler step u + dt (g^{ij} D2_ij u + f); returns a new surface at t + dt.

    The new surface's chart range is checked where its operator or geometry is evaluated.
    """
    return _advance(surface, _euler(surface, dt, config)[0], config, surface.t + dt)


def _step_length(surface, config):
    """tau = rem / ceil(rem / (h r_dom / 16)), rem = t_end - t: the run's remaining
    time cut into equal steps of at most h r_dom / 16.  The factor 1 - 1e-12 keeps
    the rounding of t from adding a step where rem is a whole number of steps."""
    rem = config.t_end - surface.t
    return rem / math.ceil(rem / (surface.h * surface.r_dom / 16.0) * (1.0 - 1e-12))


def _stage_count(tau, dt_fe):
    """The fewest stages s >= 2 with tau <= dt_fe (s^2 + s - 2) / 4."""
    s = max(2, math.ceil((math.sqrt(9.0 + 16.0 * tau / dt_fe) - 1.0) / 2.0))
    s += tau > dt_fe * (s * s + s - 2) / 4.0           # the square root rounded down
    s -= s > 2 and tau <= dt_fe * (s * s - s - 2) / 4.0   # or up
    return s


def _rkl2_coefficients(s):
    """w1 and, for j = 2 .. s, (mu_j, nu_j, gamma_j, c_j) of the s-stage RKL2 scheme
    (Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014), with gamma_j standing
    for their gamma~_j.  The stage times c_j tau, c_j = (j^2 + j - 2) / (s^2 + s - 2),
    solve their recurrence c_j = mu_j c_{j-1} + nu_j c_{j-2} + mu_j w1 + gamma_j
    from c_0 = 0 and c_1 = w1 / 3 in closed form, and c_s = 1 exactly."""
    w1 = 4.0 / (s * s + s - 2)
    b = [1.0 / 3.0] * 3 + [(j * j + j - 2) / (2.0 * j * (j + 1)) for j in range(3, s + 1)]
    stages = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        stages.append((mu, nu, -(1.0 - b[j - 1]) * mu * w1, (j * j + j - 2) / (s * s + s - 2)))
    return w1, tuple(stages)


def _rkl2_stages(surface, tau, s, config):
    """The s-stage RKL2 step of length tau from surface; returns the surface at t + tau.

    With Y_0 = surface, Y_1 = E(Y_0, w1 tau / 3) and, for j >= 2,
    Y_j = mu_j E(Y_{j-1}, w1 tau) + nu_j Y_{j-2} + (1 - mu_j - nu_j) Y_0
    + gamma_j tau L(Y_0), with the rim applied at t + c_j tau, where E is the
    Euler sub-step `_euler`.  The step is second order in time and, for a
    linear operator, stable where the Euler step of length w1 tau is.  Each
    stage evaluates the operator of Y_{j-1} only; Y_0's is read from its held
    geometry, which is then released, so stages 2 .. s hold no geometry and
    none builds one.
    """
    w1, stages = _rkl2_coefficients(s)
    u0, t = surface.u, surface.t
    u1, l0 = _euler(surface, w1 * tau / 3.0, config)
    surface.release_geometry()
    prev2, prev, tau_l0 = surface, _advance(surface, u1, config, t + w1 * tau / 3.0), tau * l0
    for mu, nu, gamma, c in stages:
        u = (mu * _euler(prev, w1 * tau, config)[0] + nu * prev2.u
             + (1.0 - mu - nu) * u0 + gamma * tau_l0)
        prev2, prev = prev, _advance(surface, u, config, t + c * tau)
    return prev


def _rkl2_step(surface, tau, config):
    """One RKL2 step of length tau; returns the surface at t + tau and its stage count.

    The count starts at the fewest stages whose Euler sub-step w1 tau keeps
    within the stability bound of surface.  Where a later stage's own bound is
    smaller, its `_euler` refuses the sub-step, and the step is taken again with
    one more stage, up to twice the first count.
    """
    first = s = _stage_count(tau, _stability_bound(surface, config))
    while True:
        try:
            return _rkl2_stages(surface, tau, s, config), s
        except CflViolationError:
            if s == 2 * first:
                raise
            s += 1


def run(initial, config):
    """Drive the flow to t_end in RKL2 steps, recording monitor series and snapshots.

    Every step has the length `_step_length` and the stage count that
    `_rkl2_step` gives it.  An FbmcfError from the geometry, a step or one of
    its stages ends the run with what it has recorded so far.  The surface only
    advances once a whole step is done and its geometry exists, so every stored
    snapshot can be written out.  Monitors are recorded once per step, from the
    geometry of the step's first surface, which its first stage reads too.
    `GraphSurface.geometry` keeps only the geometry it built last, so a stored
    snapshot carries its heights, `geometry()` on it rebuilds the same geometry
    from them on demand, and a run holds one geometry at a time.
    """
    surface = initial
    mon = {k: [] for k in ("t", "area", "perimeter", "energy", "max_H", "max_A")}
    snapshots = []
    stop_reason, error = "completed", None
    stats = {"steps": 0, "stages": 0, "tau_min": None, "tau_max": None, "s_max": 0}
    try:
        g = surface.geometry()
        snapshots.append(surface)
        while True:
            mask = g.mask
            mon["t"].append(surface.t)
            mon["area"].append(integrate(surface, 1.0))
            mon["perimeter"].append(perimeter(surface))
            mon["energy"].append(integrate(surface, g.A2))
            mon["max_H"].append(float(np.max(np.abs(g.H[mask]))))
            max_a = float(np.max(np.sqrt(g.A2[mask])))
            mon["max_A"].append(max_a)

            if surface.h * max_a >= config.blowup_threshold:
                stop_reason = "blowup"
                break
            if surface.t >= config.t_end - 1e-14 or stats["steps"] >= MAX_STEPS:
                break

            tau = _step_length(surface, config)
            del g   # so the held geometry goes before the next one is built
            new, s = _rkl2_step(surface, tau, config)
            g = new.geometry()
            surface = new
            stats["steps"] += 1
            stats["stages"] += s
            stats["tau_min"] = min(tau, stats["tau_min"] or tau)
            stats["tau_max"] = max(tau, stats["tau_max"] or tau)
            stats["s_max"] = max(s, stats["s_max"])
            if stats["steps"] % config.snapshot_stride == 0:
                snapshots.append(surface)
    except FbmcfError as err:
        # kept without its traceback, which would pin the frames of the run
        stop_reason, error = f"{type(err).__name__}: {err}", err.with_traceback(None)

    if snapshots and snapshots[-1] is not surface:
        snapshots.append(surface)
    mon = {k: np.array(v) for k, v in mon.items()}
    return Trajectory(snapshots, mon, stop_reason, error, stats)


# ---------------------------------------------------------------------------
# Exact solutions
# ---------------------------------------------------------------------------

def exact_surface(kind, t=0.0, R0=1.0):
    """Closed-form flow snapshots about the origin: plane, half-plane, sphere, hemisphere."""
    origin, e3 = (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)   # e3: the planes' normal
    if kind == "plane":
        return AnalyticSurface.plane(origin, e3, t=t)
    if kind == "half-plane":
        return AnalyticSurface.half_plane(origin, e3, t=t)
    if kind == "sphere":
        return AnalyticSurface.sphere(origin, shrinking_radius(R0, t), t=t)
    if kind == "hemisphere":
        return AnalyticSurface.hemisphere(origin, shrinking_radius(R0, t), t=t)
    raise ValueError(f"unknown exact surface kind {kind!r}")


def exact_trajectory(kind, times, R0=1.0):
    """Trajectory of closed-form snapshots with closed-form monitor series."""
    snaps = [exact_surface(kind, t=t, R0=R0) for t in times]
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
