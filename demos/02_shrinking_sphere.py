"""
Shrinking hemisphere on a flat support surface
==============================================

A sphere of radius R0 meeting a plane orthogonally stays a shrinking
sphere under mean curvature flow with radius R(t) = sqrt(R0^2 - 4 t).
The solver evolves the upper graph patch of such a hemisphere and we
compare against the closed-form radius law.
"""

import numpy as np

from fbmcf.flow import FlowConfig, run, shrinking_radius
from fbmcf.geometry import GraphSurface, integrate

R0 = 1.0
h = 1.0 / 64
surface = GraphSurface.sphere_cap(R0, h, r_dom=0.5)

config = FlowConfig.for_sphere(R0, t_end=0.02, snapshot_stride=50)
trajectory = run(surface, config)
print("stop reason:", trajectory.stop_reason)

print(f"\n{'t':>8} {'R exact':>10} {'max err':>10} {'area':>10} {'max H':>8}")
for snap, area, max_H in zip(trajectory.snapshots,
                             trajectory.monitors["area"][
                                 ::config.snapshot_stride],
                             trajectory.monitors["max_H"][
                                 ::config.snapshot_stride]):
    R = shrinking_radius(R0, snap.t)
    Y1, Y2 = snap.grid.nodes
    exact = np.sqrt(R**2 - Y1**2 - Y2**2)
    err = np.max(np.abs(snap.u - exact)[snap.geometry().mask])
    print(f"{snap.t:8.4f} {R:10.6f} {err:10.2e} {area:10.6f} {max_H:8.4f}")

# the area of a comoving cap obeys dA/dt = -integral of H^2
last = trajectory.snapshots[-1]
g = last.geometry()
print("\nmean curvature on the last snapshot:",
      "expected", 2.0 / shrinking_radius(R0, last.t),
      "measured", float(np.mean(g.H[g.mask])))
print("integral of H^2 over the cap:", integrate(last, g.H**2))
