"""Closed-form test surfaces with exact geometry.

These carry position, unit normal, mean curvature and |A|^2 in closed form,
and integrate smooth fields by node-doubling quadrature, so functional values
computed on them are independent of any PDE grid.

Orientation convention: the normal of a sphere or hemisphere points toward
the center (inward), giving H = +2/R for a shrinking sphere.  Hemispheres sit
on the flat support plane {x2 = 0} with polar axis (0, 1, 0).
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import FbmcfError
from .support import trailing

# Point samples of a surface with quadrature weights and exact geometry:
# X (M,3), w (M,), N (M,3), H (M,), A2 (M,).  A sphere's and a grid snapshot's X and N
# are (M,3) views of component-first (3,M) storage (`support.components` recovers the
# planes); a grid snapshot's samples are read-only and live as long as its held geometry.
FieldSample = namedtuple("FieldSample", ["X", "w", "N", "H", "A2"])

_QUAD_TOL = 1e-8
_MAX_NODES = 4096


@functools.lru_cache(maxsize=16)   # `integral` uses seven orders at most, 48 * 2**k <= _MAX_NODES
def _gauss_legendre(m):
    """numpy's m-node Gauss-Legendre rule on [-1, 1], computed once per m.

    Nodes and weights are read-only and shared by every caller.
    """
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _orthobasis(n):
    """Two unit vectors spanning the plane orthogonal to unit vector n."""
    a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 0.0, 1.0])
    e1 = np.cross(n, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


@dataclass(frozen=True)
class AnalyticSurface:
    """A plane, half-plane, sphere, or hemisphere-on-flat-support surface."""

    kind: str                 # plane | half-plane | sphere | hemisphere
    point: np.ndarray         # center (sphere/hemisphere) or base point (planes)
    normal: np.ndarray = None  # unit plane normal (planes only)
    radius: float = None      # sphere/hemisphere radius
    t: float = 0.0

    # exact surfaces have no grid; planarity fits fall back to their node spacing
    h_frame = 0.0

    # -- constructors -------------------------------------------------------

    @classmethod
    def plane(cls, point, normal, t=0.0):
        n = np.asarray(normal, float)
        return cls("plane", np.asarray(point, float), n / np.linalg.norm(n), None, t)

    @classmethod
    def half_plane(cls, point, normal, t=0.0):
        """Half-plane {x2 >= 0} meeting the flat support plane orthogonally."""
        n = np.asarray(normal, float)
        n = n / np.linalg.norm(n)
        if abs(n[1]) > 1e-12:
            raise ValueError("half-plane normal must be orthogonal to (0,1,0)")
        base = np.asarray(point, float).copy()
        base[1] = 0.0
        return cls("half-plane", base, n, None, t)

    @classmethod
    def sphere(cls, center, R, t=0.0):
        return cls("sphere", np.asarray(center, float), None, float(R), t)

    @classmethod
    def hemisphere(cls, center, R, t=0.0):
        center = np.asarray(center, float)
        if abs(center[1]) > 1e-12:
            raise ValueError("hemisphere center must lie on the flat support plane")
        return cls("hemisphere", center, None, float(R), t)

    # -- basic facts --------------------------------------------------------

    @property
    def topology(self):
        return {"plane": "plane", "half-plane": "plane",
                "sphere": "sphere", "hemisphere": "disk"}[self.kind]

    @property
    def is_compact(self):
        return self.kind in ("sphere", "hemisphere")

    def translate_scale(self, P, lam):
        """The surface (S - P)/lam, geometry transformed exactly."""
        P = np.asarray(P, float)
        lam = float(lam)
        if self.is_compact:
            return replace(self, point=(self.point - P) / lam, radius=self.radius / lam)
        return replace(self, point=(self.point - P) / lam)

    # -- sampling -----------------------------------------------------------

    def samples(self, m=48, focus=None, extent=None):
        """FieldSample with about m^2 nodes; focus/extent steer planar grids."""
        if self.kind in ("sphere", "hemisphere"):
            return self._sphere_samples(m)
        if extent is None:
            raise ValueError("planar surfaces need an integration extent")
        return self._plane_samples(m, focus, float(extent))

    def _sphere_samples(self, m):
        """Gauss-Legendre nodes in theta times 2m equal phi-steps.  sin and cos are taken on
        the two axes and broadcast; X and N are written into component-first (3, M) planes
        and returned as their (M, 3) views (see `support.trailing`)."""
        R, c = self.radius, self.point
        th_max = np.pi if self.kind == "sphere" else 0.5 * np.pi
        th, wth = _gauss_legendre(m)
        th = 0.5 * th_max * (th + 1.0)
        wth = 0.5 * th_max * wth
        ph = 2.0 * np.pi * np.arange(2 * m) / (2 * m)
        wph = np.full(2 * m, np.pi / m)
        sin_th, cos_th = np.sin(th)[:, None], np.cos(th)[:, None]
        W = np.outer(wth, wph) * R**2 * sin_th
        # polar axis (0,1,0): theta = 0 at the pole pointing into the domain
        X, N = np.empty((2, 3, m, 2 * m))
        for k, unit in enumerate((sin_th * np.cos(ph), cos_th, sin_th * np.sin(ph))):
            X[k] = c[k] + R * unit
            np.divide(c[k] - X[k], R, out=N[k])
        M = W.size
        return FieldSample(
            trailing(X.reshape(3, M), 1), W.ravel(), trailing(N.reshape(3, M), 1),
            np.full(M, 2.0 / R), np.full(M, 2.0 / R**2),
        )

    def _plane_samples(self, m, focus, extent):
        """Polar nodes around the focus: Gauss-Legendre in the radius up to extent."""
        n = self.normal
        base = self.point
        if self.kind == "plane":
            e1, e2 = _orthobasis(n)
            if focus is not None:
                f = np.asarray(focus, float) - base
                base = base + f - np.dot(f, n) * n
            ph = 2.0 * np.pi * np.arange(2 * m) / (2 * m)
            wph = np.full(2 * m, np.pi / m)
        else:
            # half-plane: edge e1 along n x (0,1,0), upward direction e2 = (0,1,0)
            e2 = np.array([0.0, 1.0, 0.0])
            e1 = np.cross(n, e2)
            e1 /= np.linalg.norm(e1)
            if focus is not None:
                f = np.asarray(focus, float) - base
                base = base + np.dot(f, e1) * e1
            ph, wph = _gauss_legendre(m)
            ph = 0.5 * np.pi * (ph + 1.0)
            wph = 0.5 * np.pi * wph
        rho, wr = _gauss_legendre(m)
        rho = 0.5 * extent * (rho + 1.0)
        wr = 0.5 * extent * wr
        RHO, PH = np.meshgrid(rho, ph, indexing="ij")
        W = np.outer(wr * rho, wph)
        X = base + RHO[..., None] * (
            np.cos(PH)[..., None] * e1 + np.sin(PH)[..., None] * e2
        )
        M = X.reshape(-1, 3).shape[0]
        return FieldSample(
            X.reshape(-1, 3), W.ravel(),
            np.broadcast_to(n, (M, 3)).copy(), np.zeros(M), np.zeros(M),
        )

    def integral(self, fn, focus=None, extent=None):
        """Node-doubling quadrature of fn(FieldSample) -> per-node values, to _QUAD_TOL."""
        m = 48
        prev = None
        while m <= _MAX_NODES:
            s = self.samples(m, focus=focus, extent=extent)
            val = float(np.sum(np.asarray(fn(s)) * s.w))
            if prev is not None and abs(val - prev) <= _QUAD_TOL * (abs(val) + 1.0):
                return val
            prev = val
            m *= 2
        raise FbmcfError("analytic quadrature did not converge")

    # -- boundary curve (hemisphere only) ------------------------------------

    def perimeter(self):
        """Length 2 pi R of the boundary circle on the support plane."""
        if self.kind != "hemisphere":
            raise ValueError("only hemispheres carry a compact boundary curve")
        return 2.0 * np.pi * self.radius
