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

def _derivative_planes(U, h, out=None):
    """Difference quotients as component-first planes du[i] and d2u[i, j], into out = (du, d2u)
    if given.  Row y2 = 0 is the Neumann edge, read through the ghost row u(y1, -h) = u(y1, h)."""
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
    # ghost value u(y1, -h) = u(y1, h): Neumann exact at stencil level
    d2[:, 0] = 0.0
    d22[:, 0] = 2.0 * (U[:, 1] - U[:, 0]) / h**2
    d2[:, -1] = (3 * U[:, -1] - 4 * U[:, -2] + U[:, -3]) / (2 * h)
    d22[:, -1] = (2 * U[:, -1] - 5 * U[:, -2] + 4 * U[:, -3] - U[:, -4]) / h**2

    d12[:, 1:-1] = (d1[:, 2:] - d1[:, :-2]) / (2 * h)
    d12[:, 0] = 0.0  # d1 is even across the edge
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
        for another surface, or for this one once `samples` has dropped its geometry, drops
        what is held before building its own, so one is held at a time."""
        if _held[0] is not self or _held[1] is None:
            _held[:] = None, None, None
            _held[:] = self, fundamental_forms(self), None
        return _held[1]

    def release_geometry(self):
        """Drop what `_held` keeps of this surface; the next `geometry` call rebuilds it."""
        if _held[0] is self:
            _held[:] = None, None, None

    def operator(self):
        """(L, max eig(g^{ij}) over the grid's active nodes) of the flow's right-hand side
        L = g^{ij} D2_ij u + f.  Read from the held geometry where it is this surface's (see
        `geometry`); else only the operator half of the kernel runs (`_operator`), and
        nothing is kept."""
        g = _held[1] if _held[0] is self else None
        if g is not None:
            return _contract(components(g.ginv, 2), components(g.d2u, 2)) + g.coeff_f, g.ginv_max
        block = np.empty((_OPERATOR_PLANES,) + self.u.shape)
        _, ginv_max, _ = _operator(self, block)
        _, d2u, _, ginv, f = _operator_planes(block)
        return _contract(ginv, d2u) + f, ginv_max

    def positions(self):
        """The (n1, n2, 3) node positions X, bit-equal to `geometry().X`: the held geometry's X
        if it is this surface's, else (psi, u) of a `Section` or the chart's X; no kernel runs."""
        if _held[0] is self and _held[1] is not None:
            return _held[1].X
        chart = _chart(self, order=1)
        return np.stack((*chart.X01, self.u), axis=-1) if isinstance(chart, Section) else chart["X"]

    # -- surface protocol (shared with AnalyticSurface and FrameSurface) ----

    is_compact = True
    topology = None   # no grid surface is tagged; gauss_bonnet_identity refuses it

    def samples(self, m=None, focus=None, extent=None):
        """Footprint nodes as a FieldSample (positions, dA weights, N, H, |A|^2).

        Gathered once from this surface's geometry, which is then dropped: `_held` keeps
        the samples alone, and every call until another surface's geometry or samples are
        asked for returns the same read-only FieldSample, whose X and N are (M, 3) views
        of component-first (3, M) planes.  The arguments only steer analytic sampling.
        """
        if _held[0] is not self or _held[2] is None:
            g = self.geometry()
            keep = g.mask.ravel()   # compress keeps (3, M) C-ordered; [:, mask] would not
            X, N = (np.compress(keep, components(v, 1).reshape(3, -1), axis=1) for v in (g.X, g.N))
            dA, H, A2 = (np.compress(keep, a.ravel()) for a in (g.dA, g.H, g.A2))
            for a in (X, dA, N, H, A2):
                a.setflags(write=False)
            _held[1:] = None, FieldSample(trailing(X, 1), dA, trailing(N, 1), H, A2)
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


# the surface whose geometry or samples were asked for last, and either that geometry and
# None or, once `samples` has gathered its FieldSample, None and that FieldSample
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


def _det(g):
    """det g, once it is > 0 at every node."""
    det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    if np.any(det <= 0.0):
        raise SingularMetricError("induced metric is degenerate")
    return det


def _unit_normal(cross, N):
    """N = -(T_0 x T_1) / |T_0 x T_1|, written to N."""
    norm = np.sqrt(cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2])
    for c in range(3):
        np.divide(-cross[c], norm, out=N[c])


def _section_cross(sec, u):
    """T_0 x T_1 of a cylinder chart, where T_i = (psi_i, u_i)."""
    (p0x, p0y), (p1x, p1y) = sec.dpsi
    return p0y * u[1] - u[0] * p1y, u[0] * p1x - p0x * u[1], sec.J


def _section_front(sec, U, u, g):
    """g of a cylinder chart, where T_i = (psi_i, u_i); returns det g, the forcing terms and
    `normal`.  The forcing terms are N . dPhi_2 = N_2 and B_ij = N . psi_ij (B_11 = 0) for
    N = T_0 x T_1, a multiple of the unit normal that leaves f = g^ij B_ij / (N . dPhi_2)
    as it is, or None where psi is linear and f = 0.  normal(X, N) writes X and the unit
    normal N and returns N . dPhi_2 and B_ij of that N (None where psi is linear)."""
    for (i, j), G in zip(_PAIRS, sec.G):
        np.add(G, u[i] * u[j], out=g[i, j])
    det = _det(g)
    if sec.folded:
        raise SingularMetricError("chart is folded past a focal point of the support")
    cross = _section_cross(sec, u) if sec.d2psi else None

    def normal(X, N):
        X[0], X[1], X[2] = *sec.X01, U
        _unit_normal(cross or _section_cross(sec, u), N)
        B = tuple(N[0] * px + N[1] * py for px, py in sec.d2psi)
        return N[2], B + (0.0,) if B else None

    if cross is None:
        return det, None, normal
    return det, (sec.J, tuple(cross[0] * px + cross[1] * py for px, py in sec.d2psi)), normal


def _sphere_front(R, grid, U, u, g):
    """g of the sphere cap's chart X = C + t (S - C), C = (0, R, 0), S = (y1, R - w, u),
    w = sqrt(R^2 - y1^2 - u^2), t = 1 - y2/R: T_0 = t (1, (y1 + u_0 u)/w, u_0) and
    T_1 = t u_1 (0, u/w, 1) + nu, nu = (-y1, w, -u)/R.  Returns det g, the forcing terms and
    `normal` as `_section_front` does: N . dPhi_2 = t k with k = N_1 u/w + N_2, and B_ij, in
    which S's second derivatives have a y-component only, for N = T_0 x T_1 and, from
    normal(X, N), for the unit normal.  N . dPhi_2 = -t^2 R / (w |T_0 x T_1|) < 0 wherever
    t != 0, as det dPhi = t^2 R / w; the fold check stands guard all the same."""
    y1, y2 = grid.y1[:, None], grid.y2[None, :]
    w = np.sqrt(R * R - y1 * y1 - U * U)
    nu = (-y1 / R, w / R, -U / R)
    t, b = 1.0 - y2 / R, U / w
    tu1 = t * u[1]
    T = ((t, t * ((y1 + u[0] * U) / w), t * u[0]), (nu[0], tu1 * b + nu[1], tu1 + nu[2]))
    for i, j in _PAIRS:
        g[i, j] = T[i][0] * T[j][0] + T[i][1] * T[j][1] + T[i][2] * T[j][2]
    cross = (T[0][1] * T[1][2] - T[0][2] * T[1][1], T[0][2] * T[1][0] - T[0][0] * T[1][2],
             T[0][0] * T[1][1] - T[0][1] * T[1][0])
    det = _det(g)
    c = R * R - y1 * y1
    s0, s1 = R * R - U * U + 2.0 * y1 * U * u[0] + c * u[0] * u[0], y1 * U + c * u[0]

    def forcing(n1, k):   # N . dPhi_2 and B_ij of a normal N with N_1 = n1 and k = N_1 u/w + N_2
        q = t * n1 / (w * w * w)
        return t * k, (q * s0, q * u[1] * s1, q * c * u[1] * u[1] - 2.0 * k * u[1] / R)

    def normal(X, N):
        X[0], X[1], X[2] = y1 + y2 * nu[0], (R - w) + y2 * nu[1], U + y2 * nu[2]   # as `chart_frames`
        _unit_normal(cross, N)
        return forcing(N[1], N[1] * b + N[2])

    # T_0 x T_1 is -|T_0 x T_1| times the unit normal, so its N . dPhi_2 <= 0 where the unit
    # normal's is >= 0
    terms = forcing(cross[1], cross[1] * b + cross[2])
    if np.any(terms[0] <= 0.0):
        raise SingularMetricError("chart is folded past a focal point of the support")
    return det, terms, normal


_OPERATOR_PLANES = 15   # du, d2u, g, g^-1 and f: the leading planes of a geometry's block


def _operator_planes(block):
    """The component-first views du, d2u, g, g^-1 and f of block's first 15 planes."""
    pair = (2, 2) + block.shape[1:]
    return (block[:2], block[2:6].reshape(pair), block[6:10].reshape(pair),
            block[10:14].reshape(pair), block[14])


def _operator(surface, block):
    """The operator half of `fundamental_forms`: du, D2u, g, g^-1 and f = g^ij B_ij / (N . dPhi_2)
    written to block's first 15 planes (see `_operator_planes`), with every check of the
    kernel.  f takes B_ij and N . dPhi_2 of the un-normalized normal T_0 x T_1, as both are
    linear in N.  Returns det g, max eig(g^ij) over the grid's active nodes, and the front
    half's normal(X, N) (see `_section_front`), which the curvature half calls."""
    U, grid, patch = surface.u, surface.grid, surface.patch
    du, d2u, g, ginv, f = _operator_planes(block)
    _derivative_planes(U, surface.h, out=(du, d2u))
    if isinstance(patch.profile, SphereCapProfile):
        _check_range(patch, grid.r2, U)
        det, forcing, normal = _sphere_front(patch.profile.R, grid, U, du, g)
    else:
        det, forcing, normal = _section_front(_chart(surface), U, du, g)
    g[1, 0] = g[0, 1]
    np.divide(g[::-1, ::-1], det, out=ginv)   # g^01 = -g_01 / det, negated below
    ginv[0, 1] = ginv[1, 0] = -ginv[0, 1]
    if forcing is None:
        f[...] = 0.0
    else:
        phi3N, B = forcing
        gB = ginv[0, 0] * B[0] + 2.0 * ginv[0, 1] * B[1]
        if len(B) > 2:   # a cylinder chart gives B_00 and B_01 only, as B_11 = 0
            gB += ginv[1, 1] * B[2]
        np.divide(gB, phi3N, out=f)
    tr = ginv[0, 0] + ginv[1, 1]
    dsc = np.sqrt((ginv[0, 0] - ginv[1, 1]) ** 2 + 4.0 * ginv[0, 1] ** 2)
    return det, float(np.max((0.5 * (tr + dsc))[grid.active])), normal


def _contract(a, b):
    """a^{ij} b_ij over component-first 2x2 planes a[i, j] and b[i, j]."""
    return a[0, 0] * b[0, 0] + a[0, 1] * b[0, 1] + a[1, 0] * b[1, 0] + a[1, 1] * b[1, 1]


def fundamental_forms(surface):
    """Induced metric, second fundamental form, curvature, and quadrature data.

    Chart index 2 carries the height: g_ij = T_i . T_j for T_i = dPhi_i + u_i dPhi_2 and
    N = -(T_0 x T_1) / |T_0 x T_1|.  The operator half (`_operator`) gives du, D2u, g, g^-1,
    f and max eig(g^ij); a closed-form front half (`_sphere_front` on a sphere cap, else
    `_section_front`) inside it gives g, and then X, N and B_ij = N . d2Phi(T~_i, T~_j),
    T~_i = e_i + u_i e_2, to the curvature half here: A_ij = B_ij + (N . dPhi_2) D2_ij u, H,
    |A|^2 and dA.  Every plane goes into one (29, n1, n2) block, which a run frees and takes
    again once per step.  As det dPhi = -|T_0 x T_1| (N . dPhi_2), SingularMetricError is raised where
    det g <= 0 or, after that, N . dPhi_2 >= 0 (a chart folded past a focal point), and
    ChartRangeError where a point (y1, y2, u) leaves the chart radius.
    """
    U, grid = surface.u, surface.grid
    block = np.empty((29,) + U.shape)
    det, ginv_max, normal = _operator(surface, block)
    u, d2u, g, ginv, f = _operator_planes(block)
    X, N, A, (H, A2, sqrtg, dA) = np.split(block[_OPERATOR_PLANES:], (3, 6, 10))
    A = A.reshape((2, 2) + U.shape)
    phi3N, B = normal(X, N)
    np.multiply(phi3N, d2u, out=A)
    if B is not None:
        for (i, j), b in zip(_PAIRS, B):
            A[i, j] += b
        A[1, 0] = A[0, 1]
    # H = g^ij A_ij and |A|^2 = tr((g^-1 A)^2) for symmetric g^-1 and A
    np.add(ginv[0, 0] * A[0, 0] + 2.0 * ginv[0, 1] * A[0, 1], ginv[1, 1] * A[1, 1], out=H)
    GA = [[ginv[i, 0] * A[0, j] + ginv[i, 1] * A[1, j] for j in range(2)] for i in range(2)]
    np.add(GA[0][0] * GA[0][0] + 2.0 * GA[0][1] * GA[1][0], GA[1][1] * GA[1][1], out=A2)
    np.sqrt(det, out=sqrtg)
    np.multiply(sqrtg, grid.weights, out=dA)
    return SurfaceGeometry(trailing(X, 1), trailing(N, 1), trailing(u, 1), trailing(d2u, 2),
                           trailing(g, 2), trailing(ginv, 2), trailing(A, 2), H, A2, sqrtg, dA,
                           f, grid.mask, ginv_max)


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
