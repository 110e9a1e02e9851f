"""The twelve-point verification suite behind the `verify` subcommand.

Each criterion returns (passed, detail).  Tolerances are fixed here; the
pytest wrapper prints one line per criterion and fails on any red entry.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .analytic import AnalyticSurface
from .errors import FbmcfError
from .flow import (
    FlowConfig,
    exact_trajectory,
    run,
    shrinking_radius,
    step,
)
from .geometry import (
    GraphSurface,
    disk_cell_weights,
    gauss_bonnet_identity,
    modified_area_ratio,
)
from .monitors import (
    DensityQuery,
    boundary_density_value,
    interior_density_value,
    monotonicity_report,
    self_shrinker_residual,
    singular_set_scan,
)
from .rescaling import frame_distance, parabolic_rescale, planarity_multiplicity
from .support import SupportPatch

ORIGIN = np.zeros(3)


@functools.lru_cache(maxsize=None)
def _sphere_run(h_inv, t_end, stride):
    surf = GraphSurface.sphere_cap(1.0, 1.0 / h_inv, 0.5)
    cfg = FlowConfig.for_sphere(1.0, t_end, snapshot_stride=stride)
    return run(surf, cfg)


@functools.lru_cache(maxsize=None)
def _flat_run():
    surf = GraphSurface.zero(SupportPatch.flat(), 1.0 / 16.0, 0.5)
    cfg = FlowConfig(t_end=5 * 0.2 / 16.0**2, outer_bc="frozen")
    return run(surf, cfg)


def criterion_1():
    """Stationary half-plane: 500 explicit steps leave u identically zero."""
    h = 1.0 / 64.0
    surf = GraphSurface.zero(SupportPatch.flat(), h, 0.5)
    cfg = FlowConfig(t_end=1.0, outer_bc="frozen")
    dt = 0.2 * h**2
    for _ in range(500):
        surf = step(surf, dt, cfg)
    worst = float(np.max(np.abs(surf.u)))
    return worst <= 1e-12, f"max|u| = {worst:.3e} after 500 steps (tol 1e-12)"


def _sphere_error(h_inv):
    traj = _sphere_run(h_inv, 0.01, 10**6)
    surf = traj.snapshots[-1]
    R = shrinking_radius(1.0, surf.t)
    Y1, Y2 = surf.grid.nodes
    exact = np.sqrt(R**2 - Y1**2 - Y2**2)
    mask = surf.grid.mask
    return float(np.max(np.abs(surf.u - exact)[mask])), traj.stop_reason


def criterion_2():
    """Second-order convergence on the shrinking-sphere solution."""
    e_coarse, reason_c = _sphere_error(64)
    e_fine, reason_f = _sphere_error(128)
    if reason_c != "completed" or reason_f != "completed":
        return False, f"runs stopped: {reason_c}, {reason_f}"
    ratio = e_coarse / e_fine
    ok = 3.0 <= ratio <= 5.0
    return ok, (f"err(1/64) = {e_coarse:.3e}, err(1/128) = {e_fine:.3e}, "
                f"ratio = {ratio:.2f} (need [3, 5])")


def criterion_3():
    """Area law d(area)/dt = -∫H^2 over the comoving material cap."""
    traj = _sphere_run(64, 0.02, 5)
    if traj.stop_reason != "completed":
        return False, f"run stopped: {traj.stop_reason}"
    areas, ih2s, times = [], [], []
    for snap in traj.snapshots:
        # the cap's footprint weights, computed once for both integrands
        g, grid = snap.geometry(), snap.grid
        w = g.sqrtg * disk_cell_weights(grid.y1, grid.y2, snap.h,
                                        0.4 * shrinking_radius(1.0, snap.t))
        areas.append(float(np.sum(w)))
        ih2s.append(float(np.sum(g.H ** 2 * w)))
        times.append(snap.t)
    areas, ih2s, times = map(np.array, (areas, ih2s, times))
    dadt = np.diff(areas) / np.diff(times)
    mid = 0.5 * (ih2s[:-1] + ih2s[1:])
    rel = np.abs(dadt + mid) / mid
    avg = float(np.mean(rel))
    return avg <= 0.02, f"mean |dA/dt + ∫H²|/∫H² = {avg:.4f} (tol 0.02)"


def criterion_4():
    """Gaussian density ground truth: plane -> 1, half-plane edge -> 1/2."""
    P = np.array([0.0, 0.5, 0.0])
    plane = AnalyticSurface.plane(P, (0.0, 1.0, 0.0))
    v1 = interior_density_value(plane, P, T=1e-4, r=0.2, d_gamma=np.inf)
    hp = AnalyticSurface.half_plane(ORIGIN, (1.0, 0.0, 0.0))
    v2 = boundary_density_value(hp, ORIGIN, T=1e-4, kappa=0.0)
    ok = abs(v1 - 1.0) <= 1e-3 and abs(v2 - 0.5) <= 1e-3
    return ok, f"plane density = {v1:.6f} (want 1), half-plane = {v2:.6f} (want 0.5)"


def criterion_5():
    """Boundary kernel equals half the doubled interior kernel on flat support."""
    T = 0.25
    t = T - 1e-3
    R = shrinking_radius(1.0, t)
    hemi = AnalyticSurface.hemisphere(ORIGIN, R, t=t)
    sph = AnalyticSurface.sphere(ORIGIN, R, t=t)
    b = boundary_density_value(hemi, ORIGIN, T, kappa=0.0)
    i = interior_density_value(sph, ORIGIN, T, r=np.inf)
    diff = abs(b - 0.5 * i)
    return diff <= 1e-6, (f"boundary = {b:.9f}, half interior = {0.5 * i:.9f}, "
                          f"diff = {diff:.2e} (tol 1e-6)")


def criterion_6():
    """Density series along the shrinking hemisphere is non-increasing."""
    T = 0.25
    times = np.linspace(0.0, 0.8 * T, 21)
    traj = exact_trajectory("hemisphere", times, R0=1.0)
    q = DensityQuery(P=ORIGIN, T=T, location="interior", r=np.inf,
                     sample_times=list(times))
    rep = monotonicity_report(traj, q)
    ok = rep.max_upward_violation <= 1e-3
    return ok, (f"max upward violation = {rep.max_upward_violation:.2e} "
                f"(tol 1e-3), limit = {rep.limit_estimate:.6f} "
                f"(2/e = {2.0 / np.e:.6f})")


def criterion_7():
    """Gauss-Bonnet energy identity on hemisphere and sphere."""
    gb_h = gauss_bonnet_identity(AnalyticSurface.hemisphere(ORIGIN, 1.0))
    gb_s = gauss_bonnet_identity(AnalyticSurface.sphere(ORIGIN, 2.0))
    tol_h, tol_s = 0.01 * 4 * np.pi, 0.01 * 8 * np.pi
    ok = (abs(gb_h["lhs"] - 4 * np.pi) <= tol_h
          and abs(gb_h["residual"]) <= tol_h
          and abs(gb_s["lhs"] - 8 * np.pi) <= tol_s
          and abs(gb_s["residual"]) <= tol_s)
    return ok, (f"hemisphere lhs = {gb_h['lhs']:.6f} (4π = {4 * np.pi:.6f}), "
                f"residual = {gb_h['residual']:.2e}; sphere lhs = "
                f"{gb_s['lhs']:.6f}, residual = {gb_s['residual']:.2e}")


def criterion_8():
    """Self-shrinker residual: exact in analytic mode, O(h^2) on the grid."""
    sph = AnalyticSurface.sphere(ORIGIN, 1.0)
    res_a = self_shrinker_residual(sph, ORIGIN, 0.25)
    if res_a > 1e-8:
        return False, f"analytic residual = {res_a:.2e} (tol 1e-8)"
    res = {}
    for h_inv in (64, 128):
        surf = GraphSurface.sphere_cap(1.0, 1.0 / h_inv, 0.5)
        res[h_inv] = self_shrinker_residual(surf, ORIGIN, 0.25)
    ratio = res[64] / res[128]
    ok = 3.0 <= ratio <= 5.0
    return ok, (f"analytic = {res_a:.2e}; grid {res[64]:.3e} -> {res[128]:.3e}, "
                f"ratio = {ratio:.2f} (need [3, 5])")


def criterion_9():
    """Compensated area ratio of a 0.2-Lipschitz tilted half-plane graph."""
    h = 1.0 / 64.0
    surf = GraphSurface.from_height(lambda a, b: 0.2 * a, SupportPatch.flat(),
                                    h, 1.0)
    bound_base = np.sqrt(1.04)
    worst = -np.inf
    details = []
    for r in (0.2, 0.3, 0.4, 0.5, 0.6):
        ratio = modified_area_ratio(surf, ORIGIN, r).ratio
        margin = ratio - (bound_base + 3.0 * h / r)
        worst = max(worst, margin)
        details.append(f"r={r:g}: {ratio:.4f}")
    ok = worst <= 0.0
    return ok, ("ratios " + ", ".join(details)
                + f"; worst margin over bound = {worst:.2e}")


def _trough_edge_residual(h_inv):
    """The last snapshot's `neumann_residual` of the trough u0 = 0.1 y1 + 0.2 y1^2 - 0.1 y2^2
    over paraboloid:0.5, run to t = 0.002 at h = 1/h_inv, and the run's stop reason."""
    surf = GraphSurface.from_height(lambda a, b: 0.1 * a + 0.2 * a**2 - 0.1 * b**2,
                                    SupportPatch.paraboloid(0.5), 1.0 / h_inv, 0.5)
    traj = run(surf, FlowConfig(t_end=0.002, outer_bc="frozen"))
    return traj.snapshots[-1].neumann_residual(), traj.stop_reason


def criterion_10():
    """Free-boundary Neumann order: the one-sided edge derivative u_2 of a curved-support
    run falls at second order, and heights with u_2 = 0.3 + 0.2 y1 read their u_2."""
    res, reasons = zip(*(_trough_edge_residual(n) for n in (32, 64, 128)))
    if any(r != "completed" for r in reasons):
        return False, "runs stopped: " + ", ".join(reasons)
    ratios = [a / b for a, b in zip(res, res[1:])]
    control = GraphSurface.from_height(lambda a, b: 0.1 * a + 0.3 * b + 0.2 * a * b,
                                       SupportPatch.flat(), 1.0 / 64.0, 0.5).neumann_residual()
    ok = all(3.0 <= r <= 5.0 for r in ratios) and abs(control - 0.4) <= 1e-10
    return ok, (f"edge residual {res[0]:.3e} -> {res[1]:.3e} -> {res[2]:.3e}, ratios = "
                f"{ratios[0]:.2f}, {ratios[1]:.2f} (need [3, 5]); control = {control:.6f} "
                f"(want 0.4)")


def criterion_11():
    """Rescaled frames coincide; half-plane frame is flat with one sheet."""
    T = 0.25
    lams = (np.exp(-1.0), np.exp(-2.0))
    times = sorted({0.0} | {T - lam**2 for lam in lams})
    traj = exact_trajectory("hemisphere", times, R0=1.0)
    f1 = parabolic_rescale(traj, ORIGIN, T, lams[0], -1.0)
    f2 = parabolic_rescale(traj, ORIGIN, T, lams[1], -1.0)
    d = frame_distance(f1, f2)
    hp_times = [0.0, 0.05, 0.1]
    hp_traj = exact_trajectory("half-plane", hp_times)
    fhp = parabolic_rescale(hp_traj, ORIGIN, 0.1, 0.3, -1.0)
    rep = planarity_multiplicity(fhp, 0.5, center=np.array([0.0, 0.25, 0.0]),
                                 boundary_mode=True)
    ok = d <= 1e-6 and rep.deviation <= 1e-10 and rep.sheet_count == 1
    return ok, (f"frame distance = {d:.2e} (tol 1e-6), half-plane deviation = "
                f"{rep.deviation:.2e}, sheets = {rep.sheet_count}")


def criterion_12():
    """Energy scan flags one cluster at the shrinking center, none when flat."""
    T_sing = 0.25
    r_end = 0.05
    t_last = (1.0 - r_end**2) / 4.0
    times = np.linspace(0.0, t_last, 6)
    traj = exact_trajectory("hemisphere", times, R0=1.0)
    scan = singular_set_scan(traj, 1.0, [0.1, 0.15, 0.2])
    n_clusters = len(scan.clusters)
    dist = (float(np.linalg.norm(scan.clusters[0])) if n_clusters else np.inf)
    spacing = 0.5 * 0.1
    flat_scan = singular_set_scan(_flat_run(), 1.0, [0.1, 0.15, 0.2])
    ok = (n_clusters == 1 and dist <= 3.0 * spacing
          and len(flat_scan.clusters) == 0)
    return ok, (f"hemisphere clusters = {n_clusters}, center offset = "
                f"{dist:.3f} (tol {3 * spacing:g}); flat clusters = "
                f"{len(flat_scan.clusters)}")


CRITERIA = [
    (1, "stationary half-plane fixed point", criterion_1),
    (2, "shrinking-sphere convergence order", criterion_2),
    (3, "area evolution law", criterion_3),
    (4, "Gaussian density ground truth", criterion_4),
    (5, "boundary/interior kernel consistency", criterion_5),
    (6, "density monotonicity along the flow", criterion_6),
    (7, "Gauss-Bonnet energy identity", criterion_7),
    (8, "self-shrinker residual", criterion_8),
    (9, "modified area ratio bound", criterion_9),
    (10, "free-boundary Neumann order", criterion_10),
    (11, "rescaling self-similarity", criterion_11),
    (12, "singular-set scan", criterion_12),
]

def run_all():
    """Execute every criterion; returns a list of result dicts."""
    results = []
    for num, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except FbmcfError as err:
            passed, detail = False, f"aborted: {err}"
        results.append({"criterion": num, "name": name, "passed": passed,
                        "detail": detail, "seconds": time.perf_counter() - t0})
    return results
