"""Discrete geometry of height-field surfaces composed with the support chart.

A GraphSurface stores height samples u(y1, y2) on a uniform rectangle of
chart coordinates; the surface is X = Phi(y1, y2, u).  The measurement
footprint is the half-disk y2 >= 0 of radius r_dom, realized through exact
circle-box cell overlap weights so integrals converge at second order.
The free boundary sits on the edge y2 = 0 where the homogeneous Neumann
condition holds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import FieldSample
from .errors import FbmcfError, SingularMetricError
from .rescaling import FrameSurface
from .support import (
    SphereCapProfile,
    SupportPatch,
    _check_range,
    chart_coords,
    chart_frames,
    components,
    in_complementary_ball,
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


def disk_cell_weights(y1, y2, h, R):
    """Per-node overlap areas of the dual cells, clipped at y2 = 0, with the disk of radius R."""
    X0, Y0 = np.meshgrid(y1 - 0.5 * h, np.maximum(y2 - 0.5 * h, 0.0), indexing="ij")
    X1, Y1 = np.meshgrid(y1 + 0.5 * h, y2 + 0.5 * h, indexing="ij")
    return circle_box_area(R, X0, X1, Y0, Y1)


class Grid(NamedTuple):
    """Static data of the node grid of spacing h over the half-disk y2 >= 0 of radius r_dom.

    `Grid.of` builds one Grid per (h, r_dom) and hands the same one out
    after that; every array is read-only.
    """

    key: tuple            # (h, r_dom)
    y1: np.ndarray        # node axes
    y2: np.ndarray
    nodes: tuple          # (Y1, Y2) node planes
    r2: np.ndarray        # Y1 * Y1 + Y2 * Y2, the planar radius squared
    weights: np.ndarray   # footprint cell overlap areas
    mask: np.ndarray      # weights > 0
    active: np.ndarray    # nodes strictly inside r_dom: the nodes a step moves

    @classmethod
    @functools.lru_cache(maxsize=32)
    def of(cls, h, r_dom):
        m = int(round(r_dom / h))
        if abs(m * h - r_dom) > 1e-9 * r_dom:
            raise ValueError("grid spacing must divide the footprint radius")
        y1 = h * np.arange(-m, m + 1)
        y2 = h * np.arange(m + 1)
        nodes = tuple(np.meshgrid(y1, y2, indexing="ij"))
        weights = disk_cell_weights(y1, y2, h, r_dom)
        grid = cls((h, r_dom), y1, y2, nodes, y1[:, None] * y1[:, None] + y2 * y2, weights,
                   weights > 0, np.hypot(*nodes) < r_dom - 1e-12 * r_dom)
        for a in (y1, y2, *nodes, grid.r2, weights, grid.mask, grid.active):
            a.setflags(write=False)
        return grid


# ---------------------------------------------------------------------------
# Finite differences (second order, ghost-row even reflection at y2 = 0)
# ---------------------------------------------------------------------------

def _derivative_planes(U, h, half=True, out=None):
    """Difference quotients as component-first planes du[i] and d2u[i, j], into out = (du, d2u)
    if given.  Row y2 = 0 is the Neumann edge; half False (`flow.extension_residual`) one-sided."""
    du, d2u = out or (np.empty((2,) + U.shape), np.empty((2, 2) + U.shape))
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
    """Height field over the half-disk in chart coordinates at one time."""

    patch: SupportPatch
    h: float
    r_dom: float
    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if self.u.shape != self.grid.nodes[0].shape:
            raise ValueError(f"height array shape {self.u.shape} does not match grid")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("non-finite height samples")

    @property
    def grid(self):
        return Grid.of(self.h, self.r_dom)

    def neumann_residual(self):
        """One-sided discrete normal derivative along the free-boundary edge."""
        U = self.u
        one_sided = (-3 * U[:, 0] + 4 * U[:, 1] - U[:, 2]) / (2 * self.h)
        return float(np.max(np.abs(one_sided)))

    def with_height(self, u, t=None):
        return GraphSurface(self.patch, self.h, self.r_dom, u,
                            self.t if t is None else t)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, patch, h, r_dom):
        return cls(patch, h, r_dom, np.zeros(Grid.of(h, r_dom).nodes[0].shape))

    @classmethod
    def from_height(cls, fn, patch, h, r_dom, t=0.0):
        """Heights fn(Y1, Y2) at the grid nodes; the node arrays are shared and read-only."""
        return cls(patch, h, r_dom, np.array(fn(*Grid.of(h, r_dom).nodes), dtype=float), t)

    @classmethod
    def sphere_cap(cls, R0, h, r_dom, t=0.0, patch=None):
        """Graph piece of the shrinking sphere of initial radius R0."""
        from .flow import shrinking_radius

        R = shrinking_radius(R0, t)
        patch = SupportPatch.flat() if patch is None else patch
        return cls.from_height(
            lambda a, b: np.sqrt(R**2 - a**2 - b**2), patch, h, r_dom, t
        )

    # -- geometry -----------------------------------------------------------

    def geometry(self):
        """The SurfaceGeometry.  Only the last one asked for is kept, in `_held`; a call
        for another surface drops it, with its samples, before building its own, so one
        is held at a time."""
        if _held[0] is not self:
            _held[:] = None, None, None
            _held[:] = self, fundamental_forms(self), None
        return _held[1]

    def positions(self):
        """The (n1, n2, 3) node positions X, bit-equal to `geometry().X`: the held geometry's X
        if it is this surface's, else (psi, u) of a `Section` or the chart's X; no kernel runs."""
        if _held[0] is self:
            return _held[1].X
        chart = _chart(self, order=1)
        return np.stack((*chart.X01, self.u), axis=-1) if isinstance(chart, Section) else chart["X"]

    # -- surface protocol (shared with AnalyticSurface and FrameSurface) ----

    is_compact = True
    topology = None   # no grid surface is tagged; gauss_bonnet_identity refuses it

    def samples(self, m=None, focus=None, extent=None):
        """Footprint nodes as a FieldSample (positions, dA weights, N, H, |A|^2).

        Gathered once per held geometry and dropped with it (see `geometry`): every
        call until then returns the same read-only FieldSample, whose X and N are
        (M, 3) views of component-first (3, M) planes.  The arguments only steer
        analytic sampling.
        """
        g = self.geometry()
        if _held[2] is None:
            keep = g.mask.ravel()   # compress keeps (3, M) C-ordered; [:, mask] would not
            X, N = (np.compress(keep, components(v, 1).reshape(3, -1), axis=1) for v in (g.X, g.N))
            dA, H, A2 = (np.compress(keep, a.ravel()) for a in (g.dA, g.H, g.A2))
            for a in (X, dA, N, H, A2):
                a.setflags(write=False)
            _held[2] = FieldSample(trailing(X, 1), dA, trailing(N, 1), H, A2)
        return _held[2]

    integral = FrameSurface.integral   # sum of fn(samples) times the node weights

    def translate_scale(self, P, lam):
        """The FrameSurface of (S - P)/lam built from the footprint samples."""
        return FrameSurface(*self.samples(), t=self.t, h_frame=self.h).translate_scale(P, lam)

    def perimeter(self):
        """Length of the free-boundary curve, the edge row y2 = 0."""
        Xe = self.positions()[:, 0, :]
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
    dA: np.ndarray      # sqrt(det g) * the grid's footprint weights
    coeff_f: np.ndarray  # g^{ij} N.d2Phi(T~_i, T~_j) / (N.dPhi_2) = g^{ij}(Gamma^2_ij + Q_ij)
    mask: np.ndarray    # the grid's mask: footprint weight > 0
    ginv_max: float     # max eig(g^{ij}) over the grid's active nodes (see flow._stability_bound)


# the surface whose geometry was asked for last, that geometry, and its FieldSample once
# `samples` has gathered it (else None); all three are dropped together
_held = [None, None, None]
_PAIRS = ((0, 0), (0, 1), (1, 1))


class Section(NamedTuple):
    """At a grid's nodes, the cross section of the cylinder chart Phi(Y) = (psi(y1, y2), y3) of a
    profile that ignores y3.  Read-only; psi_0 and psi_1 hold an exact 0 as +0.0: on the trough's
    axis y1 = 0 its closed form gives nu_0 = -s/W = -0.0, which would give N there zeros of the
    other sign than on the flat support."""

    X01: tuple      # psi
    dpsi: tuple     # (psi_0, psi_1)
    J: object       # det(psi_0, psi_1)
    G: tuple        # G_ij = psi_i . psi_j over _PAIRS
    d2psi: tuple    # (psi_00, psi_01), as psi_11 = 0 (y2 is a distance); () if psi is linear
    folded: bool    # J <= 0 somewhere: the chart is folded past a focal point

    @classmethod
    def flat(cls, grid):   # the grid's node planes, psi_0 = e_0 and psi_1 = e_1
        return cls(grid.nodes, ((1.0, 0.0), (0.0, 1.0)), 1.0, (1.0, 0.0, 1.0), (), False)

    @classmethod
    def of(cls, fr):
        """The section of order-2 `chart_frames` data of a profile that ignores y3."""
        X, dPhi, nu = components(fr["X"], 1), components(fr["dPhi"], 2), components(fr["nu"], 1)
        dpsi = tuple(tuple(c + 0.0 for c in col) for col in (dPhi[:2, 0], nu[:2]))
        J = dpsi[0][0] * dpsi[1][1] - dpsi[0][1] * dpsi[1][0]
        G = tuple(dpsi[i][0] * dpsi[j][0] + dpsi[i][1] * dpsi[j][1] for i, j in _PAIRS)
        d2psi = tuple(fr["d2Phi"][ab][:2] for ab in ((0, 0), (0, 1)))
        for a in (*X[:2], J, *G, *(c for pair in dpsi + d2psi for c in pair)):
            a.setflags(write=False)
        return cls(tuple(X[:2]), dpsi, J, G, d2psi, bool(np.any(J <= 0.0)))


def _chart(surface, order=2):
    """The chart at the surface's nodes of a profile that ignores y3 as a `Section`, or at order 1
    (`positions`) of any profile the `chart_frames` dict where no section is at hand.  A curved
    patch's section is built from the chart evaluated on the grid's axes (n1, 1) and (1, n2) and
    kept in its `chart_memo` under the grid's key; order 1 skips d2Phi and keeps nothing."""
    U, patch, grid = surface.u, surface.patch, surface.grid
    sec = Section.flat(grid) if patch.is_flat else patch.chart_memo.get(grid.key)
    if sec is not None:
        _check_range(patch, grid.r2, U)
        return sec
    fr = chart_frames(patch, grid.y1[:, None], grid.y2[None, :], U, order=order)
    return fr if order < 2 else patch.chart_memo.setdefault(grid.key, Section.of(fr))


def _det_and_normal(g, cross, N):
    """det g, once it is > 0 at every node, with N = -(T_0 x T_1) / |T_0 x T_1| written to N."""
    det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    if np.any(det <= 0.0):
        raise SingularMetricError("induced metric is degenerate")
    norm = np.sqrt(cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2])
    for c in range(3):
        np.divide(-cross[c], norm, out=N[c])
    return det


def _section_front(sec, U, u, X, g, N):
    """X, g and N of a cylinder chart, where T_i = (psi_i, u_i); returns det g, N . dPhi_2 = N_2
    and B_ij = N . psi_ij (B_11 = 0), or None where psi is linear."""
    X[0], X[1], X[2] = *sec.X01, U
    (p0x, p0y), (p1x, p1y) = sec.dpsi
    for (i, j), G in zip(_PAIRS, sec.G):
        np.add(G, u[i] * u[j], out=g[i, j])
    det = _det_and_normal(g, (p0y * u[1] - u[0] * p1y, u[0] * p1x - p0x * u[1], sec.J), N)
    if sec.folded:
        raise SingularMetricError("chart is folded past a focal point of the support")
    B = tuple(N[0] * px + N[1] * py for px, py in sec.d2psi)
    return det, N[2], B + (0.0,) if B else None


def _sphere_front(R, grid, U, u, X, g, N):
    """X, g and N of the sphere cap's chart X = C + t (S - C), C = (0, R, 0), S = (y1, R - w, u),
    w = sqrt(R^2 - y1^2 - u^2), t = 1 - y2/R: T_0 = t (1, (y1 + u_0 u)/w, u_0) and
    T_1 = t u_1 (0, u/w, 1) + nu, nu = (-y1, w, -u)/R.  Returns det g, N . dPhi_2 = t k with
    k = N_1 u/w + N_2, and B_ij, in which S's second derivatives have a y-component only."""
    y1, y2 = grid.y1[:, None], grid.y2[None, :]
    w = np.sqrt(R * R - y1 * y1 - U * U)
    nu = (-y1 / R, w / R, -U / R)
    X[0], X[1], X[2] = y1 + y2 * nu[0], (R - w) + y2 * nu[1], U + y2 * nu[2]   # as `chart_frames`
    t, b = 1.0 - y2 / R, U / w
    tu1 = t * u[1]
    T = ((t, t * ((y1 + u[0] * U) / w), t * u[0]), (nu[0], tu1 * b + nu[1], tu1 + nu[2]))
    for i, j in _PAIRS:
        g[i, j] = T[i][0] * T[j][0] + T[i][1] * T[j][1] + T[i][2] * T[j][2]
    cross = (T[0][1] * T[1][2] - T[0][2] * T[1][1], T[0][2] * T[1][0] - T[0][0] * T[1][2],
             T[0][0] * T[1][1] - T[0][1] * T[1][0])
    det = _det_and_normal(g, cross, N)
    k = N[1] * b + N[2]
    phi3N = t * k
    if np.any(phi3N >= 0.0):
        raise SingularMetricError("chart is folded past a focal point of the support")
    q, c = t * N[1] / (w * w * w), R * R - y1 * y1
    return det, phi3N, (q * (R * R - U * U + 2.0 * y1 * U * u[0] + c * u[0] * u[0]),
                        q * u[1] * (y1 * U + c * u[0]), q * c * u[1] * u[1] - 2.0 * k * u[1] / R)


def fundamental_forms(surface):
    """Induced metric, second fundamental form, curvature, and quadrature data.

    Chart index 2 carries the height: g_ij = T_i . T_j for T_i = dPhi_i + u_i dPhi_2 and
    N = -(T_0 x T_1) / |T_0 x T_1|.  A closed-form front half (`_sphere_front` on a sphere cap,
    else `_section_front`) gives g, N and B_ij = N . d2Phi(T~_i, T~_j), T~_i = e_i + u_i e_2;
    the back half A_ij = B_ij + (N . dPhi_2) D2_ij u, f = g^ij B_ij / (N . dPhi_2), H, |A|^2
    and dA.  Every plane goes into one (29, n1, n2) block, which a step frees and takes again.
    As det dPhi = -|T_0 x T_1| (N . dPhi_2), SingularMetricError is raised where det g <= 0 or,
    after that, N . dPhi_2 >= 0 (a chart folded past a focal point), and ChartRangeError
    where a point (y1, y2, u) leaves the chart radius.
    """
    U, grid, patch = surface.u, surface.grid, surface.patch
    block = np.empty((29,) + U.shape)
    X, N, u, d2u, g, ginv, A, (H, A2, sqrtg, dA, f) = np.split(block, (3, 6, 8, 12, 16, 20, 24))
    d2u, g, ginv, A = (a.reshape((2, 2) + U.shape) for a in (d2u, g, ginv, A))
    _derivative_planes(U, surface.h, out=(u, d2u))
    if isinstance(patch.profile, SphereCapProfile):
        _check_range(patch, grid.r2, U)
        det, phi3N, B = _sphere_front(patch.profile.R, grid, U, u, X, g, N)
    else:
        det, phi3N, B = _section_front(_chart(surface), U, u, X, g, N)
    g[1, 0] = g[0, 1]
    np.divide(g[::-1, ::-1], det, out=ginv)   # g^01 = -g_01 / det, negated below
    ginv[0, 1] = ginv[1, 0] = -ginv[0, 1]
    np.multiply(phi3N, d2u, out=A)
    f[...] = 0.0
    if B is not None:
        for (i, j), b in zip(_PAIRS, B):
            A[i, j] += b
        A[1, 0] = A[0, 1]
        np.divide(ginv[0, 0] * B[0] + 2.0 * ginv[0, 1] * B[1] + ginv[1, 1] * B[2], phi3N, out=f)
    # H = g^ij A_ij and |A|^2 = tr((g^-1 A)^2) for symmetric g^-1 and A
    np.add(ginv[0, 0] * A[0, 0] + 2.0 * ginv[0, 1] * A[0, 1], ginv[1, 1] * A[1, 1], out=H)
    GA = [[ginv[i, 0] * A[0, j] + ginv[i, 1] * A[1, j] for j in range(2)] for i in range(2)]
    np.add(GA[0][0] * GA[0][0] + 2.0 * GA[0][1] * GA[1][0], GA[1][1] * GA[1][1], out=A2)

    tr = ginv[0, 0] + ginv[1, 1]
    dsc = np.sqrt((ginv[0, 0] - ginv[1, 1]) ** 2 + 4.0 * ginv[0, 1] ** 2)
    np.sqrt(det, out=sqrtg)
    np.multiply(sqrtg, grid.weights, out=dA)
    return SurfaceGeometry(trailing(X, 1), trailing(N, 1), trailing(u, 1), trailing(d2u, 2),
                           trailing(g, 2), trailing(ginv, 2), trailing(A, 2), H, A2, sqrtg, dA,
                           f, grid.mask, float(np.max((0.5 * (tr + dsc))[grid.active])))


# ---------------------------------------------------------------------------
# Integrals and boundary length
# ---------------------------------------------------------------------------

def integrate(surface, field):
    """Sum field * sqrt(det g) * cell-overlap over the footprint."""
    return float(np.sum(np.asarray(field) * surface.geometry().dA))


def perimeter(surface):
    """Length of the free-boundary curve of a grid or analytic surface."""
    return surface.perimeter()


def label_components(mask, full=False):
    """(labels, n) of a boolean array as `scipy.ndimage.label` gives them, with the
    cross structure, or the full 3^d one if full.  Each cell starts with its
    C-order index and takes the least of its neighbours' and of the one its
    index names until none changes; the components are numbered in that order.
    """
    steps = [o for o in itertools.product((-1, 0, 1), repeat=mask.ndim)
             if any(o) and (full or sum(map(abs, o)) == 1)]
    cut = [[tuple(slice(max(a, 0), n + min(a, 0)) for a, n in zip(sign * np.array(o), mask.shape))
            for o in steps] for sign in (1, -1)]
    new, lab = np.where(mask, np.arange(mask.size).reshape(mask.shape), mask.size), None
    while not np.array_equal(new, lab):
        lab, new = new, new.copy()
        for src, dst in zip(*cut):
            np.minimum(new[dst], lab[src], out=new[dst])
        new[~mask] = mask.size
        new[mask] = np.minimum(new[mask], new.ravel()[new[mask]])
    roots, index = np.unique(lab[mask], return_inverse=True)
    labels = np.zeros(mask.shape, np.int32)
    labels[mask] = index.ravel() + 1
    return labels, len(roots)


# ---------------------------------------------------------------------------
# Area ratios
# ---------------------------------------------------------------------------

@dataclass
class AreaRatio:
    ratio: float
    area_component: float
    area_reflected: float
    partial: bool


def modified_area_ratio(surface, P, r):
    """Boundary-compensated area ratio over the ball B_r(P).

    Sums the connected grid component through the node nearest P, plus the
    part of that component lying in the reflected complementary ball, over
    pi r^2.
    """
    P = np.asarray(P, dtype=float)
    g = surface.geometry()
    dist = np.linalg.norm(g.X - P, axis=-1)
    in_ball = (dist < r) & g.mask
    area1 = area2 = 0.0
    if np.any(in_ball):
        masked = np.where(g.mask, dist, np.inf)
        seed = np.unravel_index(np.argmin(masked), dist.shape)
        labels, _ = label_components(in_ball)
        if labels[seed] != 0:
            comp = labels == labels[seed]
            area1 = float(np.sum(g.dA[comp]))
            refl = in_complementary_ball(surface.patch, P, r, g.X[comp])
            area2 = float(np.sum(g.dA[comp][refl]))

    Yp = chart_coords(surface.patch, P)
    partial = bool(np.hypot(Yp[0], Yp[1]) + r > surface.r_dom + 0.5 * surface.h)
    return AreaRatio((area1 + area2) / (np.pi * r**2), area1, area2, partial)


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
