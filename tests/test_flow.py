import numpy as np
import pytest

from fbmcf.errors import CflViolationError, FbmcfError, PastSingularityError
from fbmcf.flow import (
    FlowConfig,
    even_extension,
    exact_surface,
    exact_trajectory,
    extension_residual,
    run,
    shrinking_radius,
    step,
    temporal_regularity_probe,
)
from fbmcf.geometry import GraphSurface
from fbmcf.support import SupportPatch

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
        act = np.hypot(*np.meshgrid(s.y1, s.y2, indexing="ij")) < s.r_dom
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


def test_cfl_violation_raises():
    s = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5)
    cfg = FlowConfig(t_end=1.0, outer_bc="frozen")
    with pytest.raises(CflViolationError):
        step(s, 10 * s.h**2, cfg)


def test_step_abort_keeps_cause_and_last_surface():
    # at cfl 0.2 the coefficient-sum guard of step() rejects the first step
    s = GraphSurface.from_height(lambda a, b: 0.1 * a, SupportPatch.paraboloid(0.5),
                                 1 / 16, 0.5)
    traj = run(s, FlowConfig(t_end=0.001, outer_bc="frozen"))
    assert isinstance(traj.error, CflViolationError)
    assert traj.stop_reason == f"CflViolationError: {traj.error}"
    assert len(traj.snapshots) == 1 and traj.snapshots[0] is s
    assert list(traj.monitors["t"]) == [0.0]


def test_manufactured_solution_convergence():
    errs = {}
    for hi in (32, 64):
        traj = sphere_run(hi, 0.005)
        f = traj.snapshots[-1]
        R = shrinking_radius(1.0, f.t)
        Y1, Y2 = np.meshgrid(f.y1, f.y2, indexing="ij")
        errs[hi] = np.max(np.abs(f.u - np.sqrt(R**2 - Y1**2 - Y2**2))
                          [f.geometry().mask])
        assert traj.stop_reason == "completed"
    assert 3.0 <= errs[32] / errs[64] <= 5.0


def test_semi_implicit_close_to_explicit():
    s = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5)
    dt = 0.2 * s.h**2
    cfg_e = FlowConfig.for_sphere(1.0, 1.0, outer_bc="dirichlet-exact")
    cfg_s = FlowConfig.for_sphere(1.0, 1.0, outer_bc="dirichlet-exact",
                                  scheme="semi-implicit-linearized")
    ue = step(s, dt, cfg_e).u
    us = step(s, dt, cfg_s).u
    assert np.max(np.abs(ue - us)) < 1e-6


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


def test_even_extension_flat_zero():
    s = GraphSurface.zero(FLAT, 1 / 16, 0.5)
    ubar, abar, fbar = even_extension(s)
    assert np.allclose(ubar, 0.0)
    assert np.allclose(abar, np.eye(2))
    assert np.allclose(fbar, 0.0)


def test_even_extension_matches_full_sphere():
    half = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5, half=True)
    full = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5, half=False)
    ubar, _, _ = even_extension(half)
    assert np.max(np.abs(ubar - full.u)) < 1e-12


def test_extension_residual_even():
    s = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5)
    res = extension_residual(s)
    assert np.max(np.abs(res - res[:, ::-1])) < 1e-10 * (1 + np.max(np.abs(res)))


def test_temporal_probe_stationary_zero():
    s = GraphSurface.zero(FLAT, 1 / 16, 0.5)
    cfg = FlowConfig(t_end=10 * 0.2 / 16**2, outer_bc="frozen")
    traj = run(s, cfg)
    q = temporal_regularity_probe(traj, (8, 4), (0.0, 1.0))
    assert q == 0.0


def test_temporal_probe_needs_snapshots():
    s = GraphSurface.zero(FLAT, 1 / 16, 0.5)
    traj = run(s, FlowConfig(t_end=0.2 / 16**2, outer_bc="frozen"))
    with pytest.raises(FbmcfError):
        temporal_regularity_probe(traj, (8, 4), (0.0, 1e-9))


def test_temporal_probe_refinement_stable():
    qs = {}
    for hi in (16, 32):
        traj = sphere_run(hi, 0.004, stride=4)
        m = traj.snapshots[0].m
        qs[hi] = temporal_regularity_probe(traj, (m, m // 2), (0.0, 1.0))
    assert qs[16] > 0.0
    assert 0.8 <= qs[16] / qs[32] <= 1.25


def test_exact_trajectory_monitors():
    times = [0.0, 0.1, 0.1875]
    traj = exact_trajectory("hemisphere", times, R0=1.0)
    assert np.allclose(traj.monitors["energy"], 4 * np.pi)
    assert abs(traj.monitors["area"][-1] - 2 * np.pi * 0.25) < 1e-12
    snap, off = traj.snapshot_at(0.11)
    assert abs(snap.t - 0.1) < 1e-12 and abs(off + 0.01) < 1e-12
