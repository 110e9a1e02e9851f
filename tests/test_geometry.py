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
from fbmcf.support import SupportPatch

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
