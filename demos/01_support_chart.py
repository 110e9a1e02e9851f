"""
Tubular charts over a curved support surface
============================================

A support surface Gamma is described by a height profile phi over the
(y1, y3) plane.  The tubular chart sends (y1, y2, y3) to the point at
signed distance y2 from the graph point above (y1, y3), so Gamma itself
is the slice y2 = 0 and reflection across Gamma is simply y2 -> -y2.
"""

import numpy as np

from fbmcf.support import (
    SupportPatch,
    chart_coords,
    chart_frames,
    project_and_distance,
    reflect,
    tubular_map,
    verify_kappa_condition,
)

# a parabolic trough phi = 0.25 y1^2, declared curvature bound 1
patch = SupportPatch.paraboloid(0.5, kappa=1.0, chart_radius=1.0)

Y = np.array([0.3, 0.2, -0.1])
X = tubular_map(patch, Y)
print("chart point      ", X)

# the chart is invertible: Newton iteration recovers the coordinates
print("recovered coords ", chart_coords(patch, X))

# projecting back onto Gamma recovers the signed distance y2
proj, dist, grad = project_and_distance(patch, X)
print("distance to Gamma", dist, " (chart slot was", Y[1], ")")

# reflection across Gamma is an involution that fixes the surface
Xr = reflect(patch, X)
print("double reflection error",
      np.max(np.abs(reflect(patch, Xr) - X)))

# the pullback metric h_ij = dPhi_i . dPhi_j is orthonormal in the distance
# direction: h_22 = 1 and h_12 = h_32 = 0 at every chart point
dPhi = chart_frames(patch, *Y, order=1)["dPhi"]
h = (dPhi * dPhi[:, 1:2]).sum(axis=0)   # h_i2 = dPhi_i . dPhi_2
print("h_22 =", h[1], "  h_12 =", h[0], "  h_32 =", h[2])

# the declared curvature bound is checked against the profile's closed-form
# sups of |Hess phi|, |D^3 phi| and Lip D^3 phi over the chart disk, and
# against the least mean curvature of the profile there
report = verify_kappa_condition(patch)
print("curvature bound verified:", report.passed,
      " max |Hess phi| =", round(report.max_hess, 4),
      " min H =", round(report.min_mean_curvature, 4))
