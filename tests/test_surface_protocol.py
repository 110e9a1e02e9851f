"""Grid, analytic and rescaled surfaces answer one protocol.

Every functional reaches a surface only through `samples`, `integral`,
`translate_scale` and `is_compact`, so each surface type must agree on what
they mean.
"""

import numpy as np
import pytest

from fbmcf.analytic import AnalyticSurface
from fbmcf.geometry import GraphSurface
from fbmcf.monitors import energy
from fbmcf.support import SupportPatch

O = np.zeros(3)
FOCUS = np.array([0.1, 0.2, -0.1])
EXTENT = 0.5
P = np.array([0.05, 0.1, -0.02])
LAM = 0.5


def _curved():
    return GraphSurface.from_height(lambda a, b: 0.1 * a + 0.05 * a**2 - 0.03 * b**2,
                                    SupportPatch.paraboloid(0.5), 1 / 32, 0.5)


SURFACES = {
    "grid-flat": lambda: GraphSurface.sphere_cap(1.0, 1 / 32, 0.5),
    "grid-paraboloid:0.5": _curved,
    "sphere": lambda: AnalyticSurface.sphere(O, 2.0),
    "hemisphere": lambda: AnalyticSurface.hemisphere(O, 1.0),
    "plane": lambda: AnalyticSurface.plane(O, (0.0, 1.0, 0.0)),
    "frame": lambda: _curved().translate_scale(np.array([0.0, 0.1, 0.2]), 0.8),
}


def one(s):
    return 1.0


@pytest.mark.parametrize("name", SURFACES)
def test_integral_of_one_is_weight_sum(name):
    s = SURFACES[name]()
    area = s.integral(one, focus=FOCUS, extent=EXTENT)
    assert area > 0.0
    assert area == pytest.approx(np.sum(s.samples(focus=FOCUS, extent=EXTENT).w), rel=1e-12)


@pytest.mark.parametrize("name", SURFACES)
def test_translate_scale_scales_area_and_curvature(name):
    s = SURFACES[name]()
    z = s.translate_scale(P, LAM)
    # the region of interest moves with the surface
    focus, extent = (FOCUS - P) / LAM, EXTENT / LAM
    area = s.integral(one, focus=FOCUS, extent=EXTENT)
    assert z.integral(one, focus=focus, extent=extent) == pytest.approx(area / LAM**2,
                                                                        rel=1e-12)
    s0 = s.samples(focus=FOCUS, extent=EXTENT)
    s1 = z.samples(focus=focus, extent=extent)
    np.testing.assert_allclose(s1.X, (s0.X - P) / LAM, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(s1.H, LAM * s0.H, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(s1.A2, LAM**2 * s0.A2, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("name", SURFACES)
def test_is_compact_matches_energy(name):
    s = SURFACES[name]()
    if s.is_compact:
        # a compact surface is sampled whole, without a region
        whole = s.samples()
        assert energy(s) == pytest.approx(np.sum(whole.A2 * whole.w), rel=1e-12)
    else:
        assert energy(s) == 0.0
        with pytest.raises(ValueError):
            s.samples()
