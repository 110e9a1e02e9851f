import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from fbmcf import geometry
from fbmcf.analytic import AnalyticSurface
from fbmcf.errors import FbmcfError
from fbmcf.flow import FlowConfig, run
from fbmcf.geometry import (
    GraphSurface,
    Grid,
    circle_box_area,
    gauss_bonnet_identity,
    integrate,
    label_components,
    modified_area_ratio,
    perimeter,
)
from fbmcf.flow import Trajectory
from fbmcf.monitors import boundary_density_value, interior_density_value
from fbmcf.rescaling import parabolic_rescale, planarity_multiplicity
from fbmcf.support import SupportPatch, components

O = np.zeros(3)
FLAT = SupportPatch.flat()


def cap_h2_integral(R, a):
    """Exact ∫H^2 over the graph piece of a sphere above a half-disk."""
    area = np.pi * R * (R - np.sqrt(R**2 - a**2))
    return 4.0 / R**2 * area


def test_circle_box_exact_quarter():
    assert abs(circle_box_area(1.0, 0.0, 2.0, 0.0, 2.0) - np.pi / 4) < 1e-14
    assert abs(circle_box_area(1.0, -2.0, 2.0, -2.0, 2.0) - np.pi) < 1e-14
    assert circle_box_area(1.0, 1.5, 2.0, 1.5, 2.0) == 0.0


def test_flat_zero_geometry():
    s = GraphSurface.zero(FLAT, 1 / 32, 0.5)
    g = s.geometry()
    assert np.allclose(g.g, np.eye(2))
    assert np.allclose(g.A, 0.0)
    assert np.allclose(g.H, 0.0)


def test_sphere_graph_mean_curvature():
    s = GraphSurface.sphere_cap(1.0, 1 / 64, 0.5)
    g = s.geometry()
    err = np.abs(g.H[g.mask] - 2.0)
    assert np.max(err) < 50 * s.h**2
    assert np.all(g.A2 >= g.H**2 / 2 - 1e-12)
    assert np.max(np.abs(np.linalg.norm(g.N, axis=-1) - 1.0)) < 1e-10


def test_sphere_graph_curvature_refinement():
    errs = {}
    for hi in (32, 64):
        s = GraphSurface.sphere_cap(1.0, 1.0 / hi, 0.5)
        g = s.geometry()
        errs[hi] = np.max(np.abs(g.H[g.mask] - 2.0))
    ratio = errs[32] / errs[64]
    assert 3.0 <= ratio <= 5.0


def test_integrate_half_disk_area():
    s = GraphSurface.zero(FLAT, 1 / 64, 1.0)
    assert abs(integrate(s, 1.0) - np.pi / 2) < 2 / 64


def test_integrate_h2_matches_cap_formula():
    s = GraphSurface.sphere_cap(1.0, 1 / 64, 0.5)
    val = integrate(s, s.geometry().H ** 2)
    exact = cap_h2_integral(1.0, 0.5)
    assert abs(val - exact) < 0.01 * exact


def test_integrate_zero_field():
    s = GraphSurface.zero(FLAT, 1 / 32, 0.5)
    assert integrate(s, np.zeros_like(s.u)) == 0.0


def test_grid_data_is_built_once_per_grid(monkeypatch):
    calls = []
    weights = geometry.disk_cell_weights

    def counted(*args):
        calls.append(args)
        return weights(*args)

    Grid.of.cache_clear()
    monkeypatch.setattr(geometry, "disk_cell_weights", counted)
    patch = SupportPatch.paraboloid(0.5, kappa=0.5, chart_radius=2.0)
    s = GraphSurface.from_height(lambda a, b: 0.1 * a, patch, 1 / 32, 0.5)
    traj = run(s, FlowConfig(t_end=0.05, cfl=0.15))
    assert traj.stop_reason == "completed" and len(traj.monitors["t"]) > 50
    assert len(calls) == 1   # the cache was cleared above: the one build of this grid
    assert s.with_height(2.0 * s.u).grid is s.grid
    assert traj.snapshots[-1].grid is s.grid
    grid = s.grid
    for a in (grid.y1, grid.y2, *grid.nodes, grid.weights, grid.mask, grid.active):
        assert not a.flags.writeable


@pytest.mark.parametrize("phi", [   # the ids name the half-disk grid every surface has
    pytest.param(phi, id=f"{phi}-half-disk")
    for phi in ("flat", "paraboloid:0.5", "sphere_cap:2", "paraboloid:0.5@/0.5")])
def test_positions_bit_equal_to_kernel_positions(phi, geometry_log):
    patch = SupportPatch.from_spec(phi)
    s = GraphSurface.from_height(lambda a, b: 0.1 * a + 0.2 * b * b, patch, 1 / 32, 0.25)
    before = s.positions()   # no chart memo yet on a fresh patch
    assert geometry_log.builds == 0 and not patch.chart_memo   # no kernel ran
    X = geometry.fundamental_forms(s).X
    # the kernel keeps the chart planes of a profile that ignores y3
    assert bool(patch.chart_memo) == phi.startswith("paraboloid")
    after = s.with_height(s.u).positions()
    for Y in (before, after):
        assert Y.shape == X.shape and np.array_equal(Y.view(np.int64), X.view(np.int64))
    g = s.geometry()
    assert s.positions() is g.X   # the held geometry's own array


def test_samples_are_gathered_once_per_held_geometry():
    s = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5)
    smp = s.samples()
    assert s.samples() is smp
    g = s.geometry()
    assert np.array_equal(smp.X, g.X[g.mask]) and np.array_equal(smp.N, g.N[g.mask])
    assert components(smp.X, 1).flags.c_contiguous and components(smp.N, 1).flags.c_contiguous
    for name, a in zip(smp._fields, smp):
        with pytest.raises(ValueError):
            a[0] = 0.0   # read-only, also through the (M, 3) views
        assert not components(a, a.ndim - 1).flags.writeable, name
    # another surface's geometry drops the held one and its samples
    X = weakref.ref(smp.X)
    del smp, g
    GraphSurface.sphere_cap(1.0, 1 / 32, 0.5, t=0.01).geometry()
    gc.collect()
    assert X() is None
    assert s.samples() is s.samples()


def _row_planarity(X, radius, h_frame):
    """The fit and sheet count of planarity_multiplicity on (M, 3) rows, by row norms."""
    center = X.mean(axis=0)
    pts = X[np.linalg.norm(X - center, axis=-1) <= radius]
    mu = pts.mean(axis=0)
    n = np.linalg.svd(pts - mu, full_matrices=False)[2][-1]
    offsets = (pts - mu) @ n
    inplane = pts - offsets[:, None] * n
    sheets, tol = 1, 3.0 * h_frame
    for k in np.arange(len(pts))[:: max(len(pts) // 200, 1)]:
        offs = np.sort(offsets[np.linalg.norm(inplane - inplane[k], axis=-1) < tol])
        sheets = max(sheets, 1 + int(np.sum(np.diff(offs) > tol)))
    return float(np.max(np.abs(offsets))), sheets, n


def test_sample_integrals_bit_equal_to_row_arithmetic():
    # the kernels read component planes; the sums match those over (M, 3) rows bit for bit
    s = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5, t=0.05)
    smp = s.samples()
    X, w = np.ascontiguousarray(smp.X), smp.w
    P, T, r = np.array([0.01, 0.0, -0.02]), 0.26, 0.3
    tau = T - s.t
    q2 = np.sum((X - P) ** 2, axis=-1)
    gauss = np.exp(-q2 / (4.0 * tau))
    psi = np.maximum(1.0 - (q2 - 4.0 * tau) / r**2, 0.0) ** 3
    assert interior_density_value(s, P, T) == float(np.sum(1.0 / (4.0 * np.pi * tau) * gauss * w))
    assert interior_density_value(s, P, T, r=r) == \
        float(np.sum(psi / (4.0 * np.pi * tau) * gauss * w))
    both = q2 + np.sum((X * np.array([1.0, -1.0, 1.0]) - P) ** 2, axis=-1)
    assert boundary_density_value(s, P, T) == \
        float(np.sum(np.exp(-0.5 * both / (4.0 * tau)) / (4.0 * np.pi * tau) * w))

    lam = 0.4
    frame = parabolic_rescale(Trajectory([s, s]), P, T, lam, (s.t - T) / lam**2)
    rep = planarity_multiplicity(frame, 1.0)
    deviation, sheets, n = _row_planarity((X - P) / lam, 1.0, s.h / lam)
    assert (rep.deviation, rep.sheet_count) == (deviation, sheets)
    assert np.array_equal(rep.normal, n)


def test_quadrature_refinement_order():
    vals = {}
    for hi in (16, 32, 64):
        s = GraphSurface.zero(FLAT, 1.0 / hi, 1.0)
        Y1, Y2 = s.grid.nodes
        vals[hi] = integrate(s, np.cos(2 * Y1 + Y2))
    ratio = (vals[16] - vals[32]) / (vals[32] - vals[64])
    assert 3.0 <= ratio <= 5.0


def test_perimeter_flat_diameter():
    s = GraphSurface.zero(FLAT, 1 / 64, 1.0)
    assert abs(perimeter(s) - 2.0) < 2 / 64


def test_perimeter_hemisphere_analytic():
    assert abs(perimeter(AnalyticSurface.hemisphere(O, 1.0)) - 2 * np.pi) < 1e-6


def test_perimeter_scaling():
    lam = 3.0
    s1 = GraphSurface.sphere_cap(1.0, 1 / 32, 0.5)
    s2 = GraphSurface.from_height(
        lambda a, b: lam * np.sqrt(1.0 - (a / lam) ** 2 - (b / lam) ** 2),
        FLAT, lam / 32, lam * 0.5)
    assert abs(perimeter(s2) - lam * perimeter(s1)) < 1e-9


def test_area_ratio_flat_edge():
    s = GraphSurface.zero(FLAT, 1 / 64, 1.0)
    r = 0.4
    ar = modified_area_ratio(s, O, r)
    assert abs(ar.ratio - 1.0) <= 3 * s.h / r


def test_area_ratio_lipschitz_bound():
    h = 1 / 64
    s = GraphSurface.from_height(lambda a, b: 0.2 * a, FLAT, h, 1.0)
    r = 0.4
    ar = modified_area_ratio(s, O, r)
    assert ar.ratio <= np.sqrt(1.04) + 3 * h / r


def test_reflection_area_identity():
    # for a center on the flat support, both balls capture equal area
    s = GraphSurface.from_height(lambda a, b: 0.2 * a, FLAT, 1 / 64, 1.0)
    r = 0.4
    ar = modified_area_ratio(s, O, r)
    assert abs(ar.area_component - ar.area_reflected) <= 3 * s.h * r


def test_area_ratio_partial_flag():
    s = GraphSurface.zero(FLAT, 1 / 32, 0.5)
    assert modified_area_ratio(s, O, 0.8).partial
    assert not modified_area_ratio(s, O, 0.3).partial


def test_gauss_bonnet_hemisphere_and_sphere():
    gb = gauss_bonnet_identity(AnalyticSurface.hemisphere(O, 1.0))
    assert abs(gb["lhs"] - 4 * np.pi) < 0.01 * 4 * np.pi
    assert abs(gb["residual"]) < 0.01 * 4 * np.pi
    gb = gauss_bonnet_identity(AnalyticSurface.sphere(O, 2.0))
    assert abs(gb["lhs"] - 8 * np.pi) < 0.01 * 8 * np.pi
    assert abs(gb["residual"]) < 0.01 * 8 * np.pi


def test_gauss_bonnet_scale_invariance():
    for lam in (0.5, 3.0):
        gb = gauss_bonnet_identity(AnalyticSurface.sphere(O, 2.0 * lam))
        assert abs(gb["lhs"] - 8 * np.pi) < 1e-6
        gb = gauss_bonnet_identity(AnalyticSurface.hemisphere(O, lam))
        assert abs(gb["lhs"] - 4 * np.pi) < 1e-6


def test_gauss_bonnet_refuses_grid_surface():
    # grid surfaces and their rescaled frames carry no topology tag, so the
    # identity has no chi to use
    frame = GraphSurface.sphere_cap(1.0, 1 / 16, 0.5).translate_scale([0, 0, 0], 1.0)
    for s in (GraphSurface.sphere_cap(1.0, 1 / 32, 0.5), frame):
        with pytest.raises(FbmcfError, match="topology-untagged"):
            gauss_bonnet_identity(s)


def test_neumann_residual_zero_for_even_data():
    s = GraphSurface.from_height(lambda a, b: 0.1 * np.cos(a) * np.cos(b),
                                 FLAT, 1 / 32, 0.5)
    # cos is not even in y2 around 0? it is: cos(-b) = cos(b)
    assert s.neumann_residual() < 10 * s.h**2


def test_shape_validation():
    with pytest.raises(ValueError):
        GraphSurface(FLAT, 1 / 32, 0.5, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        GraphSurface(FLAT, 0.3, 0.5, np.zeros((3, 2)))


@settings(max_examples=150, deadline=None)
@given(mask=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=3, max_side=9)),
       full=st.booleans())
def test_label_components_matches_ndimage(mask, full):
    structure = np.ones((3,) * mask.ndim, dtype=int) if full else None
    want, n = ndimage.label(mask, structure=structure)
    got, m = label_components(mask, full=full)
    assert m == n and np.array_equal(got, want)


def test_label_components_follows_a_winding_path():
    # one serpentine component whose cells go back and forth in C order
    mask = np.zeros((9, 9), bool)
    mask[::2] = True
    mask[1::4, -1] = mask[3::4, 0] = True
    labels, n = label_components(mask)
    assert n == 1 and np.array_equal(labels, mask.astype(int))
