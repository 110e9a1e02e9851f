import numpy as np
import pytest
from scipy import ndimage

from fbmcf import cli, monitors
from fbmcf.analytic import AnalyticSurface
from fbmcf.errors import FbmcfError, TimeWindowError
from fbmcf.flow import FlowConfig, Trajectory, exact_trajectory, run
from fbmcf.geometry import GraphSurface
from fbmcf.monitors import (
    BOUNDARY_WINDOW,
    DensityQuery,
    boundary_density_value,
    energy,
    interior_curvature_norm,
    interior_density_value,
    monotonicity_report,
    self_shrinker_residual,
    singular_set_scan,
)
from fbmcf.rescaling import FrameSurface
from fbmcf.support import SupportPatch

O = np.zeros(3)
FLAT = SupportPatch.flat()


def shrinker_sphere(tau, P=O):
    """Self-shrinking sphere: radius sqrt(4 tau) at time T - tau."""
    return AnalyticSurface.sphere(P, np.sqrt(4.0 * tau), t=-tau)


def test_sphere_density_four_over_e():
    for tau in (0.05, 0.2, 1.0):
        v = interior_density_value(shrinker_sphere(tau), O, 0.0)
        assert abs(v - 4.0 / np.e) < 1e-7


def test_plane_density_one():
    s = AnalyticSurface.plane(O, (0.0, 1.0, 0.0))
    v = interior_density_value(s, O, 0.01)
    assert abs(v - 1.0) < 1e-7


def test_plane_density_with_cutoff_close_to_one():
    s = AnalyticSurface.plane(O, (0.0, 1.0, 0.0))
    v = interior_density_value(s, O, 1e-4, r=0.2)
    assert abs(v - 1.0) < 1e-2


def test_interior_margin_enforced():
    s = AnalyticSurface.plane(O, (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        interior_density_value(s, O, 1e-4, r=0.2, d_gamma=0.5)
    with pytest.raises(ValueError):
        interior_density_value(s, O, -0.1)


def test_hemisphere_boundary_density_two_over_e():
    tau = 0.1
    s = AnalyticSurface.hemisphere(O, np.sqrt(4.0 * tau), t=-tau)
    v = boundary_density_value(s, O, 0.0, kappa=0.0)
    assert abs(v - 2.0 / np.e) < 1e-7


def test_half_plane_boundary_density_one_half():
    s = AnalyticSurface.half_plane(O, (1.0, 0.0, 0.0))
    v = boundary_density_value(s, O, 0.05, kappa=0.0)
    assert abs(v - 0.5) < 1e-7


def test_boundary_center_must_sit_on_support():
    s = AnalyticSurface.half_plane(O, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        boundary_density_value(s, np.array([0.0, 0.3, 0.0]), 0.05)


def test_boundary_time_window():
    s = AnalyticSurface.half_plane(O, (1.0, 0.0, 0.0))
    kappa = 1.0
    with pytest.raises(TimeWindowError):
        boundary_density_value(s, O, 2.0 * BOUNDARY_WINDOW, kappa=kappa)
    # inside the window the value exists and is near the flat-support value
    v = boundary_density_value(s, O, 0.5 * BOUNDARY_WINDOW, kappa=kappa)
    assert abs(v - 0.5) < 0.05


def test_boundary_kappa_continuity():
    s = AnalyticSurface.half_plane(O, (1.0, 0.0, 0.0))
    tau = 1e-6
    v0 = boundary_density_value(s, O, tau, kappa=0.0)
    v1 = boundary_density_value(s, O, tau, kappa=0.005)
    assert abs(v1 - v0) < 0.01


def test_translated_plane_residual_closed_form():
    # plane at distance c from P: drift = c/(2 tau), so the weighted L2 norm
    # equals c/(2 tau) exp(-c^2/(8 tau))
    c, tau = 0.5, 0.25
    s = AnalyticSurface.plane(np.array([0.0, c, 0.0]), (0.0, 1.0, 0.0))
    res = self_shrinker_residual(s, O, tau)
    assert abs(res - c / (2 * tau) * np.exp(-c**2 / (8 * tau))) < 1e-7


def test_shrinker_residual_vanishes_on_shrinkers():
    assert self_shrinker_residual(shrinker_sphere(0.2), O, 0.0) < 1e-7
    tau = 0.1
    hemi = AnalyticSurface.hemisphere(O, np.sqrt(4.0 * tau), t=-tau)
    assert self_shrinker_residual(hemi, O, 0.0, boundary=True) < 1e-7


def test_monotonicity_exact_sphere():
    times = np.linspace(0.0, 0.2, 9)
    traj = exact_trajectory("sphere", times, R0=1.0)
    q = DensityQuery(P=O, T=0.25, sample_times=list(times))
    rep = monotonicity_report(traj, q)
    assert np.max(np.abs(rep.values - 4.0 / np.e)) < 1e-6
    assert rep.max_upward_violation < 1e-6
    assert abs(rep.limit_estimate - 4.0 / np.e) < 1e-6
    assert rep.slope_flat


def test_energy_values():
    assert abs(energy(AnalyticSurface.sphere(O, 0.3)) - 8 * np.pi) < 1e-6
    assert abs(energy(AnalyticSurface.hemisphere(O, 2.0)) - 4 * np.pi) < 1e-6
    assert energy(AnalyticSurface.plane(O, (0.0, 1.0, 0.0))) == 0.0
    s = GraphSurface.sphere_cap(1.0, 1 / 64, 0.5)
    cap_area = 0.5 * 2 * np.pi * (1.0 - np.sqrt(1.0 - 0.25))
    assert abs(energy(s) - 2.0 * cap_area) < 0.01 * 2.0 * cap_area


def test_interior_curvature_norm_sphere():
    times = [-0.04, -0.02, -0.01]
    traj = exact_trajectory("sphere", times, R0=1.0)
    val = interior_curvature_norm(traj, O, 1.5, 0.05)
    assert 0.0 < val < 2.0


def test_interior_curvature_norm_empty_window():
    traj = exact_trajectory("sphere", [1.0, 2.0], R0=4.0)
    with pytest.raises(FbmcfError):
        interior_curvature_norm(traj, O, 1.0, 0.5)


def shrinking_sphere_near_extinction():
    R_end = 0.05
    R0 = 1.0
    t_last = (R0**2 - R_end**2) / 4.0
    times = np.linspace(t_last - 0.01, t_last, 5)
    return exact_trajectory("sphere", times, R0=R0)


def test_scan_flags_shrinking_sphere_center():
    traj = shrinking_sphere_near_extinction()
    scan = singular_set_scan(traj, epsilon=1.0, r_grid=[0.1, 0.15, 0.2])
    assert len(scan.clusters) == 1
    assert np.linalg.norm(scan.clusters[0]) < 0.15
    assert scan.total_energy > 1.0


def test_scan_empty_on_flat_run():
    s = GraphSurface.zero(FLAT, 1 / 16, 0.5)
    traj = run(s, FlowConfig(t_end=5 * 0.2 / 16**2, outer_bc="frozen"))
    scan = singular_set_scan(traj, epsilon=1.0, r_grid=[0.1, 0.2])
    assert len(scan.clusters) == 0
    assert not np.any(scan.flagged)


def test_scan_validation():
    traj = exact_trajectory("sphere", [0.0, 0.1], R0=1.0)
    with pytest.raises(ValueError):
        singular_set_scan(traj, epsilon=-1.0, r_grid=[0.1])
    short = exact_trajectory("sphere", [0.0], R0=1.0)
    with pytest.raises(ValueError):
        singular_set_scan(short, epsilon=1.0, r_grid=[0.1])
    # a radius of 0 made a zero candidate spacing; a negative one an empty scan
    for r_grid in ([], [0.0, 0.1], [-0.1]):
        with pytest.raises(ValueError, match="r_grid"):
            singular_set_scan(traj, epsilon=1.0, r_grid=r_grid)


def dense_reference_scan(trajectory, epsilon, r_grid):
    """The earlier scan: every candidate against every node, 2,048 candidates at a time.

    Returns (candidates, masses, flagged, clusters) for a trajectory whose
    last snapshot has energy at least epsilon.
    """
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    s = trajectory.snapshots[-1].samples()
    spacing = 0.5 * r_grid[0]
    lo = s.X.min(axis=0) - r_grid[0]
    hi = s.X.max(axis=0) + r_grid[0]
    axes = [np.arange(lo[d], hi[d] + spacing, spacing) for d in range(3)]
    grid = np.meshgrid(*axes, indexing="ij")
    cand = np.stack([g.ravel() for g in grid], axis=-1)
    masses = np.empty((len(cand), len(r_grid)))
    wA2 = s.w * s.A2
    chunk = 2048
    for k0 in range(0, len(cand), chunk):
        d2 = np.sum((cand[k0:k0 + chunk, None, :] - s.X[None, :, :]) ** 2, axis=-1)
        for j, r in enumerate(r_grid):
            masses[k0:k0 + chunk, j] = np.sum(np.where(d2 < r**2, wA2, 0.0), axis=-1)
    flagged = np.all(masses >= epsilon, axis=-1)
    labels, n = ndimage.label(flagged.reshape(grid[0].shape),
                              structure=np.ones((3, 3, 3), dtype=int))
    lab = labels.ravel()
    clusters = [np.average(cand[lab == k], axis=0, weights=masses[lab == k, 0])
                for k in range(1, n + 1)]
    return cand, masses, flagged, np.array(clusters).reshape(-1, 3)


def stored_sphere_caps():
    """The stored run of the store-query benchmark at h = 1/32: 21 flat-support caps."""
    snaps = [GraphSurface.sphere_cap(1.0, 1 / 32, 0.5, t=float(t))
             for t in np.linspace(0.0, 0.1, 21)]
    return Trajectory(snaps)


def assert_scan_matches_reference(scan, trajectory, epsilon, r_grid):
    cand, masses, flagged, clusters = dense_reference_scan(trajectory, epsilon, r_grid)
    assert np.array_equal(scan.candidates, cand)
    assert np.array_equal(scan.masses == 0.0, masses == 0.0)
    assert np.all(np.abs(scan.masses - masses) <= 1e-13 * np.abs(masses))
    assert np.array_equal(scan.flagged, flagged)
    assert scan.clusters.shape == clusters.shape
    assert np.all(np.abs(scan.clusters - clusters) <= 1e-12)


def dyadic_sheet():
    """A sheet of nodes on the 1/16 lattice, weights 1 and |A|^2 in 1..4: with
    r_grid[0] = 1/8 every node lies on a candidate lattice point, the nodes at
    the extremes on the lattice planes two from the box's edge, and every d2 is
    exact, so many pairs sit at exactly a radius."""
    i, j = np.meshgrid(np.arange(9), np.arange(5), indexing="ij")
    X = np.stack([i / 16, j / 16, (i * j % 3) / 16], axis=-1).reshape(-1, 3)
    fs = FrameSurface(X=X, w=np.ones(len(X)), N=np.tile([0.0, 0.0, 1.0], (len(X), 1)),
                      H=np.zeros(len(X)), A2=1.0 + (i + j).ravel() % 4, t=0.0,
                      h_frame=1 / 16)
    return Trajectory([fs, fs])


# r_grid[-1] / r_grid[0]: 2 at the benchmark's radii, 8 at the wide ratio, whose
# largest ball reaches past the candidate lattice on every side
@pytest.mark.parametrize("make_trajectory, r_grid, epsilon", [
    (stored_sphere_caps, [0.1, 0.15, 0.2], 1.0),
    (shrinking_sphere_near_extinction, [0.1, 0.15, 0.2], 1.0),
    (stored_sphere_caps, [0.05, 0.4], 1.0),
    (shrinking_sphere_near_extinction, [0.05, 0.4], 1.0),
    (dyadic_sheet, [0.125, 0.375], 20.0),
], ids=["store-query-caps-benchmark-radii", "shrinking-sphere-benchmark-radii",
        "store-query-caps-wide-ratio", "shrinking-sphere-wide-ratio", "box-edge-nodes"])
def test_scan_matches_dense_reference(make_trajectory, r_grid, epsilon):
    traj = make_trajectory()
    scan = singular_set_scan(traj, epsilon=epsilon, r_grid=r_grid)
    assert np.any(scan.masses > 0.0) and np.any(scan.masses == 0.0)
    assert_scan_matches_reference(scan, traj, epsilon, r_grid)
    if make_trajectory is dyadic_sheet:
        assert np.any(scan.flagged) and not np.all(scan.flagged) and len(scan.clusters)


def test_scan_node_at_exact_radius_does_not_count():
    # Dyadic coordinates keep every distance exact. The candidate lattice has
    # spacing r_grid[0]/2 = 0.25 from X.min - 0.5, so it holds the origin and
    # (0.5, 0, 0). Node 1 lies at exactly 1.25 from the origin (0.75^2 + 1^2),
    # and node 0 at exactly 0.5 from (0.5, 0, 0); the strict test drops both.
    X = np.array([[0.0, 0.0, 0.0], [0.75, 1.0, 0.0]])
    fs = FrameSurface(X=X, w=np.ones(2), N=np.tile([0.0, 0.0, 1.0], (2, 1)),
                      H=np.zeros(2), A2=np.array([1.0, 4.0]), t=0.0, h_frame=0.25)
    traj = Trajectory([fs, fs])
    r_grid = [0.5, 1.25]
    scan = singular_set_scan(traj, epsilon=1.0, r_grid=r_grid)
    at = {tuple(c): k for k, c in enumerate(scan.candidates)}
    assert scan.masses[at[(0.0, 0.0, 0.0)]].tolist() == [1.0, 1.0]
    assert scan.masses[at[(0.5, 0.0, 0.0)]].tolist() == [0.0, 5.0]
    assert_scan_matches_reference(scan, traj, 1.0, r_grid)


def test_readers_leave_each_snapshot_as_they_found_it(tmp_path, monkeypatch, geometry_log):
    # a reader builds each geometry it needs and keeps only the samples it reads: a
    # snapshot keeps its heights alone, no geometry outlives a reader of samples,
    # and in fbmcf monitor no build overlaps another
    def snapshots():
        return [GraphSurface.sphere_cap(1.0, 1 / 32, 0.5, t=0.02 * k) for k in range(6)]

    traj = Trajectory(snapshots())
    times = [0.02 * k for k in range(6)]
    monotonicity_report(traj, DensityQuery(P=O, T=0.25, sample_times=times))
    assert geometry_log.alive() == 0
    singular_set_scan(traj, epsilon=1.0, r_grid=[0.1, 0.2])
    assert geometry_log.alive() == 0
    assert interior_curvature_norm(traj, O, 1.5, 0.5) > 0.0
    # the scan reads the last snapshot's samples, which the density pass left held
    assert geometry_log.built_for(traj.snapshots) == [0, 1, 2, 3, 4, 5] * 2
    assert geometry_log.alive() == 0

    stored = Trajectory(snapshots())   # a reloaded run: no geometry of it is held
    geometry_log.exclusive = True
    monkeypatch.setattr(cli, "load_trajectory", lambda path: stored)
    qpath = tmp_path / "queries.yaml"
    # no density samples the last snapshot, which the two scans read
    qpath.write_text(f"- P: [0, 0, 0]\n  T: 0.25\n  sample_times: {times[:-1]}\n"
                     f"- type: scan\n  epsilon: 1.0\n  r_grid: [0.1, 0.2]\n"
                     f"- location: boundary\n  P: [0, 0, 0]\n  T: 0.25\n"
                     f"  sample_times: {times[-2::-1]}\n"
                     f"- type: scan\n  epsilon: 1.0\n  r_grid: [0.15]\n")
    assert cli.main(["monitor", str(tmp_path), str(qpath)]) == 0
    assert geometry_log.alive() == 0
    # one build per snapshot, the last one's shared by both scans
    assert geometry_log.built_for(stored.snapshots) == [0, 1, 2, 3, 4, 5]
