import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmcf import flow
from fbmcf.errors import (
    ChartRangeError,
    CflViolationError,
    NonFiniteError,
    PastSingularityError,
)
from fbmcf.flow import (
    FlowConfig,
    _rkl2_coefficients,
    _stability_bound,
    _stage_count,
    exact_surface,
    exact_trajectory,
    run,
    shrinking_radius,
    step,
)
from fbmcf.geometry import GraphSurface
from fbmcf.support import SupportPatch, components

FLAT = SupportPatch.flat()


def sphere_run(h_inv, t_end, stride=10**6, **kw):
    surf = GraphSurface.sphere_cap(1.0, 1.0 / h_inv, 0.5)
    cfg = FlowConfig.for_sphere(1.0, t_end, outer_bc="dirichlet-exact",
                                snapshot_stride=stride, **kw)
    return run(surf, cfg)


def test_flat_exactly_stationary():
    s = GraphSurface.zero(FLAT, 1 / 32, 0.5)
    cfg = FlowConfig(t_end=1.0, outer_bc="frozen")
    for _ in range(20):
        s = step(s, 0.2 * s.h**2, cfg)
    assert np.max(np.abs(s.u)) == 0.0


def test_first_step_matches_forcing_term():
    # one step is u + dt * (g^{ij} D2_ij u + f) on both supports: over a curved
    # patch the tilted plane u = 0.1 y1 has a forcing f that does not vanish,
    # and over the flat support the sphere cap has f = 0
    patch = SupportPatch.paraboloid(0.5, kappa=0.5, chart_radius=2.0)
    tilted = GraphSurface.from_height(lambda a, b: 0.1 * a, patch, 1 / 32, 0.5)
    cap = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5)
    for s in (tilted, cap):
        g = s.geometry()
        act = np.hypot(*s.grid.nodes) < s.r_dom
        if s is tilted:
            assert np.max(np.abs(g.coeff_f[act])) > 0.01   # 0.018 at h = 1/32
        else:
            assert np.all(g.coeff_f == 0.0)
        dt = 0.08 * s.h**2
        cfg = FlowConfig(t_end=1.0, cfl=0.15, outer_bc="frozen")
        s1 = step(s, dt, cfg)
        a, d2u = g.ginv, g.d2u
        lin = (a[..., 0, 0] * d2u[..., 0, 0] + a[..., 0, 1] * d2u[..., 0, 1]
               + a[..., 1, 0] * d2u[..., 1, 0] + a[..., 1, 1] * d2u[..., 1, 1])
        expected = s.u + dt * (lin + g.coeff_f)
        assert np.max(np.abs(s1.u - expected)[act]) < 1e-14
        assert np.max(np.abs(s1.u - s.u)[act]) > 1e-6   # the step moves the surface
        assert np.array_equal(s1.u[~act], s.u[~act])


def test_for_sphere_rim_is_the_exact_sphere():
    cfg = FlowConfig.for_sphere(1.0, 0.01)
    assert cfg.outer_bc == "dirichlet-exact"
    s = GraphSurface.sphere_cap(1.0, 1 / 16, 0.5, t=0.004)
    Y1, Y2 = s.grid.nodes
    assert np.array_equal(cfg.rim_values(Y1, Y2, 0.004), s.u)
    assert FlowConfig.for_sphere(1.0, 0.01, outer_bc="frozen").outer_bc == "frozen"


def test_cfl_violation_raises():
    s = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5)
    cfg = FlowConfig(t_end=1.0, outer_bc="frozen")
    with pytest.raises(CflViolationError):
        step(s, 10 * s.h**2, cfg)


def graph(h, fn=lambda a, b: 0.1 * a, phi="paraboloid:0.5"):
    """Heights fn over the support phi at spacing h on the footprint r_dom = 0.5."""
    return GraphSurface.from_height(fn, SupportPatch.from_spec(phi), h, 0.5)


def test_rkl2_steps_one_kernel_call_per_stage(geometry_log, operator_log):
    # one operator call per stage and one geometry per step, built for the snapshot the
    # step ends on; the fewest stages whose Euler sub-step w1 tau keeps within
    # cfl h^2 / max eig(g^{ij}) of the step's first surface, and equal steps
    # tau = rem / ceil(rem / (h r_dom / 16)) bit for bit
    cfg = FlowConfig(t_end=0.005, snapshot_stride=1)
    traj = run(graph(1 / 32), cfg)
    snaps, n = traj.snapshots, len(traj.monitors["t"]) - 1
    assert traj.stop_reason == "completed" and n >= 5 and len(snaps) == n + 1
    assert geometry_log.builds == n + 1 and geometry_log.built_for(snaps) == list(range(n + 1))
    ids = {id(s) for s in snaps}
    first = [k for k, ref in operator_log.surfaces if id(ref()) in ids]
    # each step's first stage reads the operator of its first surface, once; the last
    # snapshot starts no step
    assert operator_log.called_for(snaps) == list(range(n))
    stages = np.diff(first + [operator_log.calls])
    assert operator_log.calls == traj.stats["stages"]
    taus = []
    for s, nxt, count in zip(snaps, snaps[1:], stages):
        a = components(s.geometry().ginv, 2)
        tr, dsc = a[0, 0] + a[1, 1], np.sqrt((a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] ** 2)
        lam = float(np.max((0.5 * (tr + dsc))[s.grid.active]))
        assert s.geometry().ginv_max == lam
        rem = cfg.t_end - s.t
        tau = rem / math.ceil(rem / (s.h * s.r_dom / 16) * (1 - 1e-12))
        assert nxt.t == s.t + tau
        taus.append(tau)
        dt_fe = cfg.cfl * s.h**2 / lam
        assert 2 <= count and tau <= dt_fe * (count * count + count - 2) / 4
        assert count == 2 or tau > dt_fe * (count * count - count - 2) / 4
    assert np.ptp(taus) <= 1e-15   # no step is cut short
    assert traj.stats == {"steps": n, "stages": stages.sum(), "s_max": stages.max(),
                          "tau_min": min(taus), "tau_max": max(taus)}


def test_rkl2_stages_after_the_first_hold_no_geometry(monkeypatch, geometry_log):
    # a step's first stage reads L and max eig(g^{ij}) from the held geometry of its
    # first surface, which is then released: the later stages evaluate their operators
    # with no geometry alive, and the heights are those of a run that keeps it
    stages, euler, alive = flow._rkl2_stages, flow._euler, []

    def logged_stages(surface, tau, s, config):
        alive.append([])
        return stages(surface, tau, s, config)

    def logged_euler(surface, dt, config):
        alive[-1].append(geometry_log.alive())
        return euler(surface, dt, config)

    monkeypatch.setattr(flow, "_rkl2_stages", logged_stages)
    monkeypatch.setattr(flow, "_euler", logged_euler)
    cfg = FlowConfig(t_end=0.005)
    traj = run(graph(1 / 32), cfg)
    assert traj.stop_reason == "completed" and len(alive) == traj.stats["steps"] >= 5
    assert alive == [[1] + [0] * (len(a) - 1) for a in alive]
    monkeypatch.setattr(GraphSurface, "release_geometry", lambda surface: None)
    kept = run(graph(1 / 32), cfg)
    assert [s.u.tobytes() for s in kept.snapshots] == [s.u.tobytes() for s in traj.snapshots]


def test_rkl2_retries_with_more_stages_where_a_stage_bound_is_smaller(monkeypatch):
    # a step of exactly 1x the first surface's Euler bound takes s = 2 stages, but the
    # tilted plane's bound falls within the step, so the second stage's Euler sub-step
    # refuses w1 tau; the step is taken again with s = 3
    s = graph(1 / 32)
    dt_fe = _stability_bound(s, FlowConfig(t_end=1.0))
    assert _stage_count(dt_fe, dt_fe) == 2
    traj = run(s, FlowConfig(t_end=dt_fe))
    assert traj.stop_reason == "completed" and traj.stats["s_max"] == 3
    # a stage that keeps refusing ends the run at twice the first count, with its
    # cause and the surface before the step
    calls, euler = [], flow._euler

    def refuse(surface, dt, config):
        calls.append(surface)
        if surface is not s:
            raise CflViolationError("refused")
        return euler(surface, dt, config)

    monkeypatch.setattr(flow, "_euler", refuse)
    traj = run(s, FlowConfig(t_end=4 * dt_fe))
    first = _stage_count(4 * dt_fe, dt_fe)
    assert isinstance(traj.error, CflViolationError) and traj.snapshots == [s]
    assert [c is s for c in calls] == [True, False] * (first + 1)


def _rkl2_growth(z, s):
    """R_s(z): one s-stage RKL2 step of length 1 on y' = z y from y = 1."""
    w1, stages = _rkl2_coefficients(s)
    y0 = np.ones_like(z)
    prev2, prev = y0, y0 + w1 / 3 * z * y0
    for mu, nu, gamma, _ in stages:
        prev2, prev = prev, (mu * (prev + w1 * z * prev) + nu * prev2
                             + (1 - mu - nu) * y0 + gamma * z * y0)
    return prev


@pytest.mark.parametrize("s", range(2, 21))
def test_rkl2_stages_end_at_one_and_stay_stable(s):
    # the stage times solve the recurrence c_j = mu_j c_{j-1} + nu_j c_{j-2} + mu_j w1
    # + gamma_j from c_0 = 0 and c_1 = w1 / 3 and end at c_s = 1; |R_s(z)| <= 1 over
    # the whole stable interval of w1, [-2 / w1, 0]
    w1, stages = _rkl2_coefficients(s)
    c = [0.0, w1 / 3]
    for mu, nu, gamma, c_j in stages:
        c.append(mu * c[-1] + nu * c[-2] + mu * w1 + gamma)
        assert abs(c[-1] - c_j) <= 2e-15
    assert abs(c[-1] - 1.0) <= 2e-15 and stages[-1][3] == 1.0
    z = np.linspace(-(s * s + s - 2) / 2, 0.0, 4001)
    assert np.max(np.abs(_rkl2_growth(z, s))) <= 1.0 + 1e-12


@pytest.mark.parametrize("s", [2, 5, 12])
def test_rkl2_second_order_on_linear_equation(s):
    # n steps of length 1/n on y' = -y to t = 1: the error falls 4x per halving
    errs = [abs(_rkl2_growth(np.array(-1.0 / n), s)[()] ** n - np.exp(-1.0))
            for n in (8, 16, 32)]
    assert all(3.8 <= a / b <= 4.2 for a, b in zip(errs, errs[1:])), errs


@pytest.mark.parametrize("phi", ["paraboloid:0.5", "sphere_cap:2"])
def test_interior_self_convergence_on_curved_supports(phi):
    # u at h = 1/32, 1/64 and 1/128 to t = 0.002, compared on the h = 1/32 nodes
    # with r < r_dom / 2, away from the frozen rim's layer
    heights = {}
    for n in (32, 64, 128):
        traj = run(graph(1 / n, lambda a, b: 0.1 * a + 0.2 * a * a - 0.1 * b * b, phi),
                   FlowConfig(t_end=0.002))
        assert traj.stop_reason == "completed"
        heights[n] = traj.snapshots[-1].u[:: n // 32, :: n // 32]
    inner = graph(1 / 32).grid.r2 < 0.25**2
    e1, e2 = (np.max(np.abs(heights[n] - heights[2 * n])[inner]) for n in (32, 64))
    assert e1 / e2 >= 3.5, (e1, e2)


@pytest.mark.parametrize("phi", ["flat", "paraboloid:0.5", "sphere_cap:2"])
def test_rough_data_decays(phi):
    # uniform noise of size 3.9e-3 on the tilted plane at h = 1/64, run to t = 0.02
    # beside the smooth run: the difference stays below the noise next to the
    # frozen, noisy rim and falls tenfold inside r_dom / 2
    h, amp = 1 / 64, 3.9e-3
    smooth = graph(h, phi=phi)
    noise = amp * (2.0 * np.random.default_rng(1).random(smooth.u.shape) - 1.0)
    cfg = FlowConfig(t_end=0.02, blowup_threshold=4.0)   # h |A| of the noise reads about 1
    a, b = run(smooth.with_height(smooth.u + noise), cfg), run(smooth, cfg)
    assert a.stop_reason == b.stop_reason == "completed"
    diff = np.abs(a.snapshots[-1].u - b.snapshots[-1].u)
    grid = smooth.grid
    assert np.max(diff[grid.active]) <= amp
    assert np.max(diff[grid.r2 < 0.25**2]) <= 0.1 * amp


def test_step_abort_keeps_cause_and_last_surface():
    # a rim that holds NaN makes the heights of the first step non-finite
    s = GraphSurface.from_height(lambda a, b: 0.1 * a, SupportPatch.paraboloid(0.5),
                                 1 / 16, 0.5)
    cfg = FlowConfig(t_end=0.001, outer_bc="dirichlet-exact",
                     rim_values=lambda Y1, Y2, t: np.full(Y1.shape, np.nan))
    traj = run(s, cfg)
    assert isinstance(traj.error, NonFiniteError)
    assert traj.stop_reason == f"NonFiniteError: {traj.error}"
    assert len(traj.snapshots) == 1 and traj.snapshots[0] is s
    assert list(traj.monitors["t"]) == [0.0]


def test_chart_range_abort_after_step_keeps_last_surface():
    # the rim lifts the footprint corners to |Y| = 0.87, past the chart radius 0.8;
    # the new surface's geometry refuses them, so the run keeps the surface before
    s = GraphSurface.zero(SupportPatch.flat(chart_radius=0.8), 1 / 16, 0.5)
    cfg = FlowConfig(t_end=0.001, outer_bc="dirichlet-exact",
                     rim_values=lambda Y1, Y2, t: np.full(Y1.shape, 0.5))
    traj = run(s, cfg)
    assert isinstance(traj.error, ChartRangeError)
    assert traj.stop_reason == f"ChartRangeError: {traj.error}"
    assert len(traj.snapshots) == 1 and traj.snapshots[0] is s


def test_equatorial_disk_stays_fixed():
    # the plane y3 = 0.1 y1 through the centre of the sphere cap's sphere is a
    # free-boundary minimal disk: it meets the support orthogonally and H = 0
    s = GraphSurface.from_height(lambda a, b: 0.1 * a, SupportPatch.from_spec("sphere_cap:2"),
                                 1 / 64, 0.5)
    traj = run(s, FlowConfig(t_end=0.03))
    assert traj.stop_reason == "completed"
    assert len(traj.monitors["t"]) - 1 >= 60
    assert np.max(np.abs(traj.snapshots[-1].u - s.u)) <= 1e-14


SUPPORT_OF_CURVATURE = {"flat": lambda k: FLAT, "paraboloid": SupportPatch.paraboloid,
                        "sphere_cap": lambda k: SupportPatch.sphere_cap(1.0 / k)}


@settings(max_examples=40, deadline=None)
@given(support=st.sampled_from(sorted(SUPPORT_OF_CURVATURE)), curvature=st.floats(0.1, 1.6),
       t1=st.floats(-1.0, 1.0), t2=st.floats(-1.0, 1.0), bend=st.floats(-1.0, 1.0))
def test_coefficient_sum_within_twice_top_eigenvalue(support, curvature, t1, t2, bend):
    # sum |g^{ij}| <= 2 max eig(g^{ij}) at every node: so the spectral bound alone
    # keeps dt sum |g^{ij}| / h^2 <= 2 cfl <= 1/2 (see FlowConfig)
    s = GraphSurface.from_height(lambda a, b: t1 * a + t2 * b + bend * (a * a - b * b),
                                 SUPPORT_OF_CURVATURE[support](curvature), 1 / 32, 0.125)
    ginv = s.geometry().ginv
    top = np.linalg.eigvalsh(ginv)[..., -1]
    assert np.all(np.abs(ginv).sum(axis=(-2, -1)) <= 2.0 * top * (1.0 + 1e-12))


def test_manufactured_solution_convergence():
    errs = {}
    for hi in (32, 64):
        traj = sphere_run(hi, 0.005)
        f = traj.snapshots[-1]
        R = shrinking_radius(1.0, f.t)
        Y1, Y2 = f.grid.nodes
        errs[hi] = np.max(np.abs(f.u - np.sqrt(R**2 - Y1**2 - Y2**2))
                          [f.geometry().mask])
        assert traj.stop_reason == "completed"
    assert 3.0 <= errs[32] / errs[64] <= 5.0


def test_symmetry_preserved():
    traj = sphere_run(32, 0.002)
    f = traj.snapshots[-1]
    assert np.max(np.abs(f.u - f.u[::-1])) < 1e-10


def test_neumann_preserved():
    traj = sphere_run(32, 0.002)
    for s in traj.snapshots:
        assert s.neumann_residual() <= 10 * s.h**2


def test_area_constant_on_stationary_run():
    s = GraphSurface.from_height(lambda a, b: 0.1 * a, FLAT, 1 / 32, 0.5)
    cfg = FlowConfig(t_end=20 * 0.2 / 32**2, outer_bc="frozen")
    traj = run(s, cfg)
    assert traj.stop_reason == "completed"
    areas = traj.monitors["area"]
    assert np.max(np.abs(areas - areas[0])) < 1e-12


def test_blowup_detected_before_chart_issues():
    surf = GraphSurface.sphere_cap(0.3, 1 / 32, 3 / 32)
    cfg = FlowConfig.for_sphere(0.3, 0.3**2 / 4, outer_bc="dirichlet-exact",
                                blowup_threshold=0.22)
    traj = run(surf, cfg)
    assert traj.stop_reason == "blowup"
    assert traj.snapshots[-1].t < 0.3**2 / 4


def test_exact_surface_radius_law():
    s = exact_surface("hemisphere", t=0.1875, R0=1.0)
    assert abs(s.radius - 0.5) < 1e-14
    s0 = exact_surface("hemisphere", t=0.0, R0=1.0)
    assert abs(s0.radius - 1.0) < 1e-14
    hp0 = exact_surface("half-plane", t=0.0)
    hp1 = exact_surface("half-plane", t=0.7)
    assert np.allclose(hp0.point, hp1.point) and np.allclose(hp0.normal, hp1.normal)


def test_past_singularity():
    with pytest.raises(PastSingularityError):
        exact_surface("sphere", t=0.25, R0=1.0)


def _traced_stride_one_run(t_end):
    """A stride-1 trough run at h = 1/32 and its tracemalloc peak."""
    s = GraphSurface.from_height(lambda a, b: 0.1 * a, SupportPatch.paraboloid(0.5),
                                 1 / 32, 0.5)
    s.geometry()   # fills the patch's chart memo before tracing starts
    # CPython parks up to 2000 freed tuples of each small size for reuse, and one allocated
    # while tracing and then parked stays counted; park untraced ones first, so that the
    # peak does not depend on how full that list was when tracing started
    parked = [(k, k) for k in range(4000)]
    del parked
    tracemalloc.start()
    try:
        traj = run(s, FlowConfig(t_end=t_end))
        return traj, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_holds_one_geometry_at_a_time(geometry_log):
    # the log's surface entries would grow with the snapshots inside the traced window
    geometry_log.log_surfaces = False
    traj, peak = _traced_stride_one_run(0.25)
    assert geometry_log.alive() <= 1
    traj2, peak2 = _traced_stride_one_run(0.5)
    assert geometry_log.alive() <= 1
    n, n2 = len(traj.snapshots), len(traj2.snapshots)
    assert traj2.stop_reason == "completed" and 250 <= n and 2 * n - 5 <= n2 <= 2 * n + 5
    # each stored snapshot adds its heights and no more; a geometry kept per
    # snapshot would add about 30 times as much
    assert peak2 - peak <= 1.2 * (n2 - n) * traj.snapshots[0].u.nbytes


def test_exact_trajectory_monitors():
    times = [0.0, 0.1, 0.1875]
    traj = exact_trajectory("hemisphere", times, R0=1.0)
    assert np.allclose(traj.monitors["energy"], 4 * np.pi)
    assert abs(traj.monitors["area"][-1] - 2 * np.pi * 0.25) < 1e-12
    snap, off = traj.snapshot_at(0.11)
    assert abs(snap.t - 0.1) < 1e-12 and abs(off + 0.01) < 1e-12
