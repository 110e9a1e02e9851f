"""Discrete geometry of height-field surfaces composed with the support chart.

A GraphSurface stores height samples u(y1, y2) on a uniform rectangle of
chart coordinates; the surface is X = Phi(y1, y2, u).  The measurement
footprint is the half-disk (or disk) of radius r_dom, realized through exact
circle-box cell overlap weights so integrals converge at second order.
The free boundary sits on the edge y2 = 0 where the homogeneous Neumann
condition holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .analytic import FieldSample
from .errors import FbmcfError, SingularMetricError
from .rescaling import FrameSurface
from .support import (
    SupportPatch,
    chart_coords,
    chart_frames,
    components,
    in_complementary_ball,
    metric_connection,
    trailing,
)


# ---------------------------------------------------------------------------
# Exact circle-box overlap quadrature
# ---------------------------------------------------------------------------

def _corner_area(x, y, R):
    """Area of {t^2 + s^2 < R^2} within [0,x] x [0,y] for x, y >= 0."""
    x = np.minimum(x, R)
    y = np.minimum(y, R)

    def G(t):
        t = np.clip(t, -R, R)
        return 0.5 * (t * np.sqrt(np.maximum(R * R - t * t, 0.0))
                      + R * R * np.arcsin(t / R))

    c = np.sqrt(np.maximum(R * R - y * y, 0.0))
    xc = np.minimum(x, c)
    return xc * y + np.where(x > c, G(x) - G(c), 0.0)


def _signed_corner(x, y, R):
    return np.sign(x) * np.sign(y) * _corner_area(np.abs(x), np.abs(y), R)


def circle_box_area(R, x0, x1, y0, y1):
    """Exact area of the centered disk of radius R inside [x0,x1] x [y0,y1]."""
    return (_signed_corner(x1, y1, R) - _signed_corner(x0, y1, R)
            - _signed_corner(x1, y0, R) + _signed_corner(x0, y0, R))


def disk_cell_weights(y1, y2, h, R, half):
    """Per-node overlap areas of the dual cells with the footprint disk.

    Memoised per (grid, h, R, half); the returned array is read-only.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    return _cell_weights(y1.tobytes(), y2.tobytes(), float(h), float(R), bool(half))


@functools.lru_cache(maxsize=32)
def _cell_weights(y1, y2, h, R, half):
    y1, y2 = np.frombuffer(y1), np.frombuffer(y2)
    X0, Y0 = np.meshgrid(y1 - 0.5 * h, y2 - 0.5 * h, indexing="ij")
    X1, Y1 = np.meshgrid(y1 + 0.5 * h, y2 + 0.5 * h, indexing="ij")
    if half:
        Y0 = np.maximum(Y0, 0.0)  # clip at the free-boundary edge
    w = circle_box_area(R, X0, X1, Y0, Y1)
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=32)
def grid_nodes(h, r_dom, half):
    """Read-only node coordinates (Y1, Y2) of the grid of spacing h over r_dom."""
    m = int(round(r_dom / h))
    lo = 0 if half else -m
    nodes = np.meshgrid(h * np.arange(-m, m + 1), h * np.arange(lo, m + 1), indexing="ij")
    for a in nodes:
        a.setflags(write=False)
    return tuple(nodes)


# ---------------------------------------------------------------------------
# Finite differences (second order, ghost-row even reflection at y2 = 0)
# ---------------------------------------------------------------------------

def _derivative_planes(U, h, half):
    """Difference quotients as component-first planes du[i] and d2u[i, j]."""
    du = np.empty((2,) + U.shape)
    d2u = np.empty((2, 2) + U.shape)
    d1, d2, d11, d12, d22 = du[0], du[1], d2u[0, 0], d2u[0, 1], d2u[1, 1]
    d1[1:-1] = (U[2:] - U[:-2]) / (2 * h)
    d1[0] = (-3 * U[0] + 4 * U[1] - U[2]) / (2 * h)
    d1[-1] = (3 * U[-1] - 4 * U[-2] + U[-3]) / (2 * h)

    d11[1:-1] = (U[2:] - 2 * U[1:-1] + U[:-2]) / h**2
    d11[0] = (2 * U[0] - 5 * U[1] + 4 * U[2] - U[3]) / h**2
    d11[-1] = (2 * U[-1] - 5 * U[-2] + 4 * U[-3] - U[-4]) / h**2

    d2[:, 1:-1] = (U[:, 2:] - U[:, :-2]) / (2 * h)
    d22[:, 1:-1] = (U[:, 2:] - 2 * U[:, 1:-1] + U[:, :-2]) / h**2
    if half:
        # ghost value u(y1, -h) = u(y1, h): Neumann exact at stencil level
        d2[:, 0] = 0.0
        d22[:, 0] = 2.0 * (U[:, 1] - U[:, 0]) / h**2
    else:
        d2[:, 0] = (-3 * U[:, 0] + 4 * U[:, 1] - U[:, 2]) / (2 * h)
        d22[:, 0] = (2 * U[:, 0] - 5 * U[:, 1] + 4 * U[:, 2] - U[:, 3]) / h**2
    d2[:, -1] = (3 * U[:, -1] - 4 * U[:, -2] + U[:, -3]) / (2 * h)
    d22[:, -1] = (2 * U[:, -1] - 5 * U[:, -2] + 4 * U[:, -3] - U[:, -4]) / h**2

    d12[:, 1:-1] = (d1[:, 2:] - d1[:, :-2]) / (2 * h)
    if half:
        d12[:, 0] = 0.0  # d1 is even across the edge
    else:
        d12[:, 0] = (-3 * d1[:, 0] + 4 * d1[:, 1] - d1[:, 2]) / (2 * h)
    d12[:, -1] = (3 * d1[:, -1] - 4 * d1[:, -2] + d1[:, -3]) / (2 * h)
    d2u[1, 0] = d12
    return du, d2u


# ---------------------------------------------------------------------------
# GraphSurface
# ---------------------------------------------------------------------------

@dataclass
class GraphSurface:
    """Height field over a (half-)disk in chart coordinates at one time."""

    patch: SupportPatch
    h: float
    r_dom: float
    u: np.ndarray
    t: float = 0.0
    half: bool = True
    _geom: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = self.m
        if abs(m * self.h - self.r_dom) > 1e-9 * self.r_dom:
            raise ValueError("grid spacing must divide the footprint radius")
        n2 = m + 1 if self.half else 2 * m + 1
        if self.u.shape != (2 * m + 1, n2):
            raise ValueError(f"height array shape {self.u.shape} does not match grid")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("non-finite height samples")

    @property
    def m(self):
        return int(round(self.r_dom / self.h))

    @property
    def y1(self):
        return self.h * np.arange(-self.m, self.m + 1)

    @property
    def y2(self):
        lo = 0 if self.half else -self.m
        return self.h * np.arange(lo, self.m + 1)

    def neumann_residual(self):
        """One-sided discrete normal derivative along the free-boundary edge."""
        if not self.half:
            return 0.0
        U = self.u
        one_sided = (-3 * U[:, 0] + 4 * U[:, 1] - U[:, 2]) / (2 * self.h)
        return float(np.max(np.abs(one_sided)))

    def with_height(self, u, t=None):
        return GraphSurface(self.patch, self.h, self.r_dom, u,
                            self.t if t is None else t, self.half)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, patch, h, r_dom, half=True):
        m = int(round(r_dom / h))
        n2 = m + 1 if half else 2 * m + 1
        return cls(patch, h, r_dom, np.zeros((2 * m + 1, n2)), 0.0, half)

    @classmethod
    def from_height(cls, fn, patch, h, r_dom, t=0.0, half=True):
        m = int(round(r_dom / h))
        lo = 0 if half else -m
        Y1, Y2 = np.meshgrid(h * np.arange(-m, m + 1), h * np.arange(lo, m + 1),
                             indexing="ij")
        return cls(patch, h, r_dom, np.asarray(fn(Y1, Y2), dtype=float), t, half)

    @classmethod
    def sphere_cap(cls, R0, h, r_dom, t=0.0, patch=None, half=True):
        """Graph piece of the shrinking sphere of initial radius R0."""
        from .flow import shrinking_radius

        R = shrinking_radius(R0, t)
        patch = SupportPatch.flat() if patch is None else patch
        return cls.from_height(
            lambda a, b: np.sqrt(R**2 - a**2 - b**2), patch, h, r_dom, t, half
        )

    # -- geometry -----------------------------------------------------------

    def geometry(self):
        if self._geom is None:
            self._geom = fundamental_forms(self)
        return self._geom

    # -- surface protocol (shared with AnalyticSurface and FrameSurface) ----

    is_compact = True
    topology = None   # no grid surface is tagged; gauss_bonnet_identity refuses it

    def samples(self, m=None, focus=None, extent=None):
        """Footprint nodes as a FieldSample (positions, dA weights, N, H, |A|^2).

        The arguments only steer analytic sampling.
        """
        g = self.geometry()
        mask = g.mask
        return FieldSample(g.X[mask], g.dA[mask], g.N[mask], g.H[mask], g.A2[mask])

    integral = FrameSurface.integral   # sum of fn(samples) times the node weights

    def translate_scale(self, P, lam):
        """The FrameSurface of (S - P)/lam built from the footprint samples."""
        return FrameSurface(*self.samples(), t=self.t, h_frame=self.h).translate_scale(P, lam)

    def perimeter(self):
        """Length of the free-boundary curve, the edge row y2 = 0."""
        if not self.half:
            raise ValueError("surface has no free-boundary edge")
        Xe = self.geometry().X[:, 0, :]
        return float(np.sum(np.linalg.norm(np.diff(Xe, axis=0), axis=-1)))


@dataclass
class SurfaceGeometry:
    """Per-node geometric data of a GraphSurface.

    Vector and matrix fields are stored component-first, one contiguous
    (n1, n2) plane per component, and exposed in the shapes below as views
    with the component axes last (see `support.trailing`);
    `support.components` recovers the planes without a copy.
    """

    X: np.ndarray       # (n1, n2, 3) ambient positions
    N: np.ndarray       # (n1, n2, 3) inward unit normal
    du: np.ndarray      # (n1, n2, 2)
    d2u: np.ndarray     # (n1, n2, 2, 2)
    g: np.ndarray       # (n1, n2, 2, 2) induced metric
    ginv: np.ndarray
    A: np.ndarray       # (n1, n2, 2, 2) second fundamental form
    H: np.ndarray
    A2: np.ndarray      # |A|^2
    sqrtg: np.ndarray
    wcell: np.ndarray   # footprint cell overlap areas
    dA: np.ndarray      # sqrt(det g) * wcell
    coeff_f: np.ndarray  # lower-order PDE coefficient g^{ij}(Gamma^2_ij + Q_ij)
    mask: np.ndarray    # wcell > 0


_PAIRS = ((0, 0), (0, 1), (1, 1))
# the flat chart Phi(Y) = Y: dPhi = h = identity and Gamma = 0
_EYE3, _ZERO_GAMMA = np.eye(3), np.zeros((3, 3, 3))


def fundamental_forms(surface):
    """Induced metric, second fundamental form, curvature, and quadrature data.

    One component-first body serves every support.  Chart index 2 carries the
    height, so the graph tangents are T_i = dPhi_i + u_i dPhi_2 for i = 0, 1.
    A flat support enters as constant frame data: X = (y1, y2, u), h = delta,
    Gamma = 0 and dPhi = I.
    """
    U, patch = surface.u, surface.patch
    u, d2u = _derivative_planes(U, surface.h, surface.half)
    Y = np.empty((3,) + U.shape)
    Y[0], Y[1] = grid_nodes(surface.h, surface.r_dom, surface.half)
    Y[2] = U
    if patch.is_flat:
        X, dPhi, hm, Gam = trailing(Y, 1), _EYE3, _EYE3, _ZERO_GAMMA
    else:
        fr = chart_frames(patch, trailing(Y, 1), order=2)
        hm, Gam = metric_connection(fr)
        X, dPhi = fr["X"], components(fr["dPhi"], 2)

    # g_ij = h(T_i, T_j); low_ij = Gamma^2_ij + Q_ij = P^2_ij - u_k P^k_ij, where
    # P^k_ij = Gamma^k(T_i, T_j) and the sum runs over k = 0, 1
    g = np.empty((2, 2) + U.shape)
    A = np.empty_like(g)
    low = {}
    for i, j in _PAIRS:
        uij = u[i] * u[j]
        g[i, j] = g[j, i] = (hm[i, j] + hm[i, 2] * u[j] + hm[j, 2] * u[i]
                             + hm[2, 2] * uij)
        P = [Gam[k, i, j] + Gam[k, i, 2] * u[j] + Gam[k, j, 2] * u[i] + Gam[k, 2, 2] * uij
             for k in range(3)]
        low[i, j] = P[2] - u[0] * P[0] - u[1] * P[1]

    # inward unit normal N = -(T_0 x T_1) / |T_0 x T_1|; A_ij = (dPhi_2 . N) (low_ij + D2_ij u)
    T0 = [dPhi[c, 0] + dPhi[c, 2] * u[0] for c in range(3)]
    T1 = [dPhi[c, 1] + dPhi[c, 2] * u[1] for c in range(3)]
    cross = (T0[1] * T1[2] - T0[2] * T1[1],
             T0[2] * T1[0] - T0[0] * T1[2],
             T0[0] * T1[1] - T0[1] * T1[0])
    norm = np.sqrt(cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2])
    N = np.empty((3,) + U.shape)
    for c in range(3):
        N[c] = -cross[c] / norm
    phi3N = dPhi[0, 2] * N[0] + dPhi[1, 2] * N[1] + dPhi[2, 2] * N[2]
    for i, j in _PAIRS:
        A[i, j] = A[j, i] = phi3N * (low[i, j] + d2u[i, j])

    det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    if np.any(det <= 0.0):
        raise SingularMetricError("induced metric is degenerate")
    ginv = np.empty_like(g)
    ginv[0, 0], ginv[1, 1] = g[1, 1] / det, g[0, 0] / det
    ginv[0, 1] = ginv[1, 0] = -g[0, 1] / det
    # H = g^ij A_ij, |A|^2 = tr((g^-1 A)^2) and f = g^ij low_ij for symmetric g^-1, A, low
    Hcur = ginv[0, 0] * A[0, 0] + 2.0 * ginv[0, 1] * A[0, 1] + ginv[1, 1] * A[1, 1]
    GA = [[ginv[i, 0] * A[0, j] + ginv[i, 1] * A[1, j] for j in range(2)] for i in range(2)]
    A2 = GA[0][0] * GA[0][0] + 2.0 * GA[0][1] * GA[1][0] + GA[1][1] * GA[1][1]
    coeff_f = (ginv[0, 0] * low[0, 0] + 2.0 * ginv[0, 1] * low[0, 1]
               + ginv[1, 1] * low[1, 1])

    wcell = disk_cell_weights(surface.y1, surface.y2, surface.h, surface.r_dom,
                              surface.half)
    sqrtg = np.sqrt(det)
    return SurfaceGeometry(X, trailing(N, 1), trailing(u, 1), trailing(d2u, 2),
                           trailing(g, 2), trailing(ginv, 2), trailing(A, 2), Hcur, A2,
                           sqrtg, wcell, sqrtg * wcell, coeff_f, wcell > 0)


# ---------------------------------------------------------------------------
# Integrals and boundary length
# ---------------------------------------------------------------------------

def integrate(surface, field, radius=None):
    """Sum field * sqrt(det g) * cell-overlap over the footprint.

    radius restricts the footprint to a smaller concentric disk (used for
    material-cap area tracking).
    """
    g = surface.geometry()
    if radius is None:
        w = g.dA
    else:
        w = g.sqrtg * disk_cell_weights(surface.y1, surface.y2, surface.h,
                                        radius, surface.half)
    return float(np.sum(np.asarray(field) * w))


def perimeter(surface):
    """Length of the free-boundary curve of a grid or analytic surface."""
    return surface.perimeter()


# ---------------------------------------------------------------------------
# Area ratios
# ---------------------------------------------------------------------------

@dataclass
class AreaRatio:
    ratio: float
    area_component: float
    area_reflected: float
    partial: bool


def modified_area_ratio(surface, P, r, include_reflection=None):
    """Boundary-compensated area ratio over the ball B_r(P).

    Sums the connected grid component through the node nearest P, plus the
    part of that component lying in the reflected complementary ball, over
    pi r^2.  The reflection term is skipped in closed (full-disk) mode.
    """
    if include_reflection is None:
        include_reflection = surface.half
    P = np.asarray(P, dtype=float)
    g = surface.geometry()
    dist = np.linalg.norm(g.X - P, axis=-1)
    in_ball = (dist < r) & g.mask
    area1 = area2 = 0.0
    if np.any(in_ball):
        masked = np.where(g.mask, dist, np.inf)
        seed = np.unravel_index(np.argmin(masked), dist.shape)
        from scipy import ndimage   # on first use: at import time it doubled start-up

        labels, _ = ndimage.label(in_ball)
        if labels[seed] != 0:
            comp = labels == labels[seed]
            area1 = float(np.sum(g.dA[comp]))
            if include_reflection:
                refl = in_complementary_ball(surface.patch, P, r, g.X[comp])
                area2 = float(np.sum(g.dA[comp][refl]))

    Yp = chart_coords(surface.patch, P)
    partial = bool(np.hypot(Yp[0], Yp[1]) + r > surface.r_dom + 0.5 * surface.h)
    return AreaRatio((area1 + area2) / (np.pi * r**2), area1, area2, partial)


def area_ratio_profile(surface, P, r_list, C=0.0, Lambda=0.0, kappa=0.0,
                       include_reflection=None):
    """Weighted ratio series e^{C(Lambda+kappa)r} * ratio with violation."""
    vals = []
    for r in r_list:
        ar = modified_area_ratio(surface, P, r, include_reflection)
        vals.append(np.exp(C * (Lambda + kappa) * r) * ar.ratio)
    vals = np.array(vals)
    violation = float(np.max(np.maximum(vals[:-1] - vals[1:], 0.0), initial=0.0))
    return vals, violation


# ---------------------------------------------------------------------------
# Gauss-Bonnet energy identity
# ---------------------------------------------------------------------------

def gauss_bonnet_identity(surface):
    """Both sides of energy = ∫H^2 + 2∮A_Gamma(T,T) - 4 pi chi.

    The boundary term is 0: the analytic hemisphere sits on the flat support,
    where A_Gamma = 0. Only analytic surfaces carry a topology tag; grid
    surfaces have topology None and are refused.
    """
    if surface.topology is None or not surface.is_compact:
        raise FbmcfError("topology-untagged: surface is not a tagged compact surface")
    lhs = surface.integral(lambda s: s.A2)
    ih2 = surface.integral(lambda s: s.H**2)
    chi = 2 if surface.topology == "sphere" else 1
    rhs = ih2 - 4.0 * np.pi * chi
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs}
