import numpy as np
import pytest

from fbmcf.analytic import AnalyticSurface, _gauss_legendre

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
