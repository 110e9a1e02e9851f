import numpy as np
import pytest

from fbmcf.analytic import AnalyticSurface
from fbmcf.errors import FbmcfError
from fbmcf.flow import FlowConfig, exact_trajectory, run
from fbmcf.geometry import GraphSurface
from fbmcf.rescaling import (
    FrameSurface,
    RescalingFrame,
    frame_distance,
    normalized_frame,
    parabolic_rescale,
    planarity_multiplicity,
)
from fbmcf.support import SupportPatch

O = np.zeros(3)


def sphere_trajectory(R0=1.0):
    # snapshot times chosen to hit the rescaling requests exactly
    T = R0**2 / 4.0
    times = sorted({0.0, T - np.exp(-2.0), T - np.exp(-4.0), T - np.exp(-3.0),
                    0.99 * T})
    return exact_trajectory("sphere", times, R0=R0), T


def test_self_similar_frames_coincide():
    traj, T = sphere_trajectory()
    frames = [parabolic_rescale(traj, O, T, lam, -1.0)
              for lam in (np.exp(-1.0), np.exp(-2.0))]
    assert frame_distance(frames[0], frames[1]) < 1e-12
    # at tau = -1 the rescaled shrinking sphere has radius 2
    assert abs(frames[0].surface.radius - 2.0) < 1e-12


def test_normalized_matches_parabolic():
    traj, T = sphere_trajectory()
    s = 3.0
    fn = normalized_frame(traj, O, s, T)
    fp = parabolic_rescale(traj, O, T, np.exp(-0.5 * s), -1.0)
    assert fn.mode == "normalized"
    assert frame_distance(fn, fp) < 1e-14


def test_out_of_range_time_rejected():
    traj, T = sphere_trajectory()
    with pytest.raises(FbmcfError):
        parabolic_rescale(traj, O, T, 1.0, 1.0)


@pytest.mark.parametrize("lam", [0.0, -0.5, float("inf"), float("nan")])
def test_parabolic_rescale_refuses_bad_lambda(lam):
    traj, T = sphere_trajectory()
    with pytest.raises(ValueError, match="lambda"):
        parabolic_rescale(traj, O, T, lam, 0.0)


def test_grid_snapshot_transforms():
    patch = SupportPatch.flat()
    surf = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5)
    cfg = FlowConfig.for_sphere(1.0, 0.004, outer_bc="dirichlet-exact",
                                snapshot_stride=10**6)
    traj = run(surf, cfg)
    lam = 0.5
    t_req = traj.times[-1]
    fr = parabolic_rescale(traj, O, t_req, lam, 0.0, patch=patch)
    assert isinstance(fr.surface, FrameSurface)
    s = fr.surface.samples()
    R = np.sqrt(1.0 - 4.0 * t_req)
    # positions scale by 1/lam, curvature by lam, weights by 1/lam^2
    assert np.max(np.abs(np.linalg.norm(s.X, axis=-1) - R / lam)) < 1e-3
    assert np.max(np.abs(s.H - lam * 2.0 / R)) < 0.05
    assert abs(np.sum(s.w) * lam**2
               - np.pi * (1.0 - np.sqrt(1.0 - 0.25 / R**2)) * R**2) < 0.05
    assert fr.patch is not None and fr.patch.kappa == 0.0


def test_planarity_of_plane_frame():
    traj = exact_trajectory("half-plane", [0.0, 0.1, 0.2])
    fr = parabolic_rescale(traj, np.array([0.0, 0.5, 0.0]), 0.2, 0.5, -0.2)
    rep = planarity_multiplicity(fr, 0.5)
    assert rep.deviation < 1e-10
    assert rep.sheet_count == 1


def test_planarity_boundary_mode():
    traj = exact_trajectory("half-plane", [0.0, 0.1, 0.2])
    fr = parabolic_rescale(traj, O, 0.2, 0.5, -0.2)
    rep = planarity_multiplicity(fr, 0.5, center=np.array([0.0, 0.25, 0.0]),
                                 boundary_mode=True)
    assert rep.deviation < 1e-10
    assert abs(rep.normal[1]) < 1e-12
    assert rep.sheet_count == 1


def test_sheet_count_two_layers():
    rng = np.random.default_rng(0)
    base = rng.uniform(-1.0, 1.0, size=(400, 2))
    pts = np.concatenate([
        np.stack([base[:, 0], base[:, 1], np.zeros(len(base))], axis=-1),
        np.stack([base[:, 0], base[:, 1], 0.5 * np.ones(len(base))], axis=-1),
    ])
    fs = FrameSurface(X=pts, w=np.ones(len(pts)), N=np.tile([0.0, 0.0, 1.0],
                      (len(pts), 1)), H=np.zeros(len(pts)),
                      A2=np.zeros(len(pts)), t=0.0, h_frame=0.02)
    fr = RescalingFrame(O, 0.0, "parabolic", 1.0, -1.0, fs, None, 0.0)
    rep = planarity_multiplicity(fr, 2.0, center=np.array([0.0, 0.0, 0.25]))
    assert rep.sheet_count == 2


def test_empty_region_rejected():
    traj, T = sphere_trajectory()
    fr = parabolic_rescale(traj, O, T, np.exp(-1.0), -1.0)
    with pytest.raises(FbmcfError):
        planarity_multiplicity(fr, 0.1, center=np.array([50.0, 0.0, 0.0]))


def test_frame_samples_planar_needs_extent():
    traj = exact_trajectory("half-plane", [0.0, 0.1])
    fr = parabolic_rescale(traj, O, 0.2, 1.0, -0.1)
    with pytest.raises(ValueError):
        fr.surface.samples()
    s = fr.surface.samples(focus=np.array([0.0, 0.5, 0.0]), extent=1.0)
    assert len(s.X) > 0
