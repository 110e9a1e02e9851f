import numpy as np
import pytest

from fbmcf.analytic import AnalyticSurface, _gauss_legendre
from fbmcf.support import components

O = np.zeros(3)


def test_sphere_area_and_curvature():
    s = AnalyticSurface.sphere(O, 2.0)
    area = s.integral(lambda f: np.ones(len(f.X)))
    assert abs(area - 4 * np.pi * 4.0) < 1e-6 * area
    smp = s.samples(32)
    assert np.allclose(smp.H, 1.0)
    assert np.allclose(smp.A2, 0.5)
    assert np.max(np.abs(np.linalg.norm(smp.N, axis=-1) - 1.0)) < 1e-12
    # inward normal points toward the center
    assert np.allclose(smp.X + 2.0 * smp.N, O, atol=1e-12)


def test_hemisphere_area_and_boundary():
    s = AnalyticSurface.hemisphere(O, 1.0)
    area = s.integral(lambda f: np.ones(len(f.X)))
    assert abs(area - 2 * np.pi) < 1e-6
    assert abs(s.perimeter() - 2 * np.pi) < 1e-6
    # the hemisphere sits in the half-space x2 >= 0
    assert np.min(s.samples(32).X[:, 1]) > -1e-12


def test_hemisphere_center_off_plane_rejected():
    with pytest.raises(ValueError):
        AnalyticSurface.hemisphere([0.0, 0.1, 0.0], 1.0)


def test_half_plane_orthogonality():
    with pytest.raises(ValueError):
        AnalyticSurface.half_plane(O, (0.0, 1.0, 0.0))
    s = AnalyticSurface.half_plane(O, (1.0, 0.0, 0.0))
    smp = s.samples(16, extent=1.0)
    assert np.min(smp.X[:, 1]) > 0.0
    assert np.max(np.abs(smp.X[:, 0])) < 1e-12


def test_plane_gaussian_normalization():
    # the planar Gaussian at scale sqrt(tau) integrates to one
    P = np.array([0.3, 0.5, -0.2])
    s = AnalyticSurface.plane(P, (0.0, 1.0, 0.0))
    tau = 1e-3

    def fn(f):
        q2 = np.sum((f.X - P) ** 2, axis=-1)
        return np.exp(-q2 / (4 * tau)) / (4 * np.pi * tau)

    val = s.integral(fn, focus=P, extent=40 * np.sqrt(tau))
    assert abs(val - 1.0) < 1e-6


def test_translate_scale():
    s = AnalyticSurface.sphere(np.array([1.0, 0.0, 0.0]), 2.0)
    z = s.translate_scale(np.array([1.0, 0.0, 0.0]), 2.0)
    assert np.allclose(z.point, O)
    assert abs(z.radius - 1.0) < 1e-14


def test_planar_sampling_requires_extent():
    s = AnalyticSurface.plane(O, (0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        s.samples(16)


@pytest.mark.parametrize("m", [48, 96, 192])
def test_gauss_legendre_rule_is_computed_once(m):
    nodes, weights = _gauss_legendre(m)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(m)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
    assert not nodes.flags.writeable and not weights.flags.writeable
    again = _gauss_legendre(m)
    assert again[0] is nodes and again[1] is weights


def _meshgrid_sphere_samples(s, m):
    """X, w and N of the m x 2m sphere rule with the trigonometry on the full meshgrid."""
    R, c = s.radius, s.point
    th_max = np.pi if s.kind == "sphere" else 0.5 * np.pi
    th, wth = np.polynomial.legendre.leggauss(m)
    th = 0.5 * th_max * (th + 1.0)
    wth = 0.5 * th_max * wth
    ph = 2.0 * np.pi * np.arange(2 * m) / (2 * m)
    wph = np.full(2 * m, np.pi / m)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    W = np.outer(wth, wph) * R**2 * np.sin(TH)
    X = c + R * np.stack(
        [np.sin(TH) * np.cos(PH), np.cos(TH), np.sin(TH) * np.sin(PH)], axis=-1
    )
    N = (c - X) / R
    return X.reshape(-1, 3), W.ravel(), N.reshape(-1, 3)


@pytest.mark.parametrize("m", [48, 96, 192])
@pytest.mark.parametrize("kind", ["sphere", "hemisphere"])
def test_sphere_samples_match_the_meshgrid_rule(kind, m):
    s = getattr(AnalyticSurface, kind)(np.array([0.3, 0.0, -0.1]), 0.77)
    smp = s.samples(m)
    X, w, N = _meshgrid_sphere_samples(s, m)
    assert np.array_equal(smp.X, X) and np.array_equal(smp.w, w) and np.array_equal(smp.N, N)
    assert np.array_equal(smp.H, np.full(len(w), 2.0 / 0.77))
    assert np.array_equal(smp.A2, np.full(len(w), 2.0 / 0.77**2))
    # X and N are views of contiguous component planes
    assert components(smp.X, 1).flags.c_contiguous and components(smp.N, 1).flags.c_contiguous
