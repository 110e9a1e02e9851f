"""Support surface as a graph patch with its tubular-neighborhood chart.

The support surface sits in ambient coordinates (x1, x2, x3) as the graph
x2 = phi(x1, x3) through the origin, with unit inward normal (0, 1, 0) at
the base point.  Chart coordinates are Y = (y1, y2, y3): (y1, y3) are
tangent coordinates of the projection onto the surface and y2 is the signed
distance (positive on the inside).  Each catalog profile states its chart
Phi(Y) = (y1, phi, y3) + y2 nu(y1, y3), its first derivatives (and the second
ones a kernel reads) and its kappa-graph bounds over a disk in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ChartRangeError, NewtonConvergenceError, PatchFieldError


# Arrays of chart data keep the public shape (..., 3, 3), with component axes
# last, but are stored component-first: each component is a contiguous plane
# over the sample points, so the per-component arithmetic below never strides.

def trailing(a, k):
    """View of a component-first array with its k leading axes moved last."""
    return a.transpose(tuple(range(k, a.ndim)) + tuple(range(k)))


def components(a, k):
    """View of an array with its k trailing component axes moved first."""
    n = a.ndim
    return a.transpose(tuple(range(n - k, n)) + tuple(range(n - k)))


def sq_dist(X, P):
    """|X - P|^2 of points X (..., 3) from a point P, or from points P shaped like X, summed
    from the component planes as (d0 d0 + d1 d1) + d2 d2.  That is numpy's order for a sum
    over a trailing axis of length 3, so it is bit-equal to np.sum((X - P)**2, axis=-1)."""
    d0, d1, d2 = (x - p for x, p in zip(components(X, 1), components(np.asarray(P), 1)))
    return (d0 * d0 + d1 * d1) + d2 * d2


# ---------------------------------------------------------------------------
# Height profiles phi(y1, y3): the chart and the kappa-graph bounds
# ---------------------------------------------------------------------------
#
# `chart(p, d, q, order)` returns the component-first X, dPhi, nu and d2Phi of
# `chart_frames` at float arrays (y1, y2, y3).  d2Phi is None but for the
# paraboloid at order >= 2, whose cylinder chart `geometry.Section` reads the
# pairs (0, 0) = y2 d_11 nu + d_11 (y1, phi, y3) and (0, 1) = d_1 nu; the
# sphere cap's kernel (`geometry._sphere_front`) and the flat chart need none.
#
# `height_free` lists the components of Phi(y1, y2, y3) that do not read the height y3.
#
# `rescale(lam)` returns the catalog profile phi(lam y)/lam.
#
# `bounds(rho)` returns (sup |D^2 phi|, sup |D^3 phi|, Lip D^3 phi, inf H)
# over the disk |(y1, y3)| <= rho: the Hessian's spectral norm, the largest
# entry of D^3 phi and its Lipschitz constant, and the mean curvature of the
# graph with respect to the inward normal.

class FlatProfile:
    """phi == 0: the chart is the identity."""

    name = "flat"
    curvature = 0.0
    height_free = (0, 1)   # x = y1 and y = y2

    def chart(self, p, d, q, order=2):
        shape = np.broadcast_shapes(p.shape, d.shape, q.shape)
        X = np.empty((3,) + shape)
        X[0], X[1], X[2] = p, d, q
        dPhi = np.zeros((3, 3) + shape)
        dPhi[0, 0] = dPhi[1, 1] = dPhi[2, 2] = 1.0
        nu = np.zeros((3,) + p.shape)
        nu[1] = 1.0
        return X, dPhi, nu, None

    def rescale(self, lam):
        return self

    def bounds(self, rho):
        return 0.0, 0.0, 0.0, 0.0


def _spec_text(v):
    """v as its %g text where that reads back as v, else as its exact repr."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


class ParaboloidProfile:
    """phi = a * y1**2 / 2 (a cylinder-like parabolic trough)."""

    height_free = (0, 1)   # x = y1 + y2 nu_0(y1) and y = phi(y1) + y2 nu_1(y1)

    def __init__(self, a):
        self.a = float(a)
        self.curvature = abs(self.a)
        self.name = f"paraboloid:{_spec_text(self.a)}"

    def chart(self, p, d, q, order=2):
        # nu = (-s, 1, 0)/W with s = a y1 and W = sqrt(1 + s^2) depends on y1 only:
        # d1 nu = -a (1, s, 0)/W^3 and d1^2 nu = a^2 (3s, 2s^2 - 1, 0)/W^5
        a, shape = self.a, np.broadcast_shapes(p.shape, d.shape, q.shape)
        s = a * p
        W = np.sqrt(s * s + 1.0)
        nu = np.zeros((3,) + p.shape)
        nu[0], nu[1] = -s / W, 1.0 / W
        X = np.empty((3,) + shape)
        X[0] = p + d * nu[0]
        X[1] = 0.5 * a * p**2 + d * nu[1]
        X[2] = q + d * nu[2]   # the kernel's chart memo adds y2 nu_2 to the height alike
        k = -a / W**3
        dPhi = np.zeros((3, 3) + shape)
        dPhi[0, 0] = 1.0 + d * k
        dPhi[1, 0] = s + d * (k * s)
        dPhi[:, 1] = nu
        dPhi[2, 2] = 1.0
        if order < 2:
            return X, dPhi, nu, None
        m = a * a / W**5
        z = np.zeros(p.shape)
        d2Phi = {(0, 0): (d * (3.0 * m * s), a + d * (m * (2.0 * s * s - 1.0)), z),
                 (0, 1): (k, k * s, z)}
        return X, dPhi, nu, d2Phi

    def rescale(self, lam):
        return ParaboloidProfile(self.a * lam)

    def bounds(self, rho):
        # D^2 phi is constant; H = a/(1 + a^2 y1^2)^(3/2) is least at the rim
        # for a >= 0 and on the axis for a < 0
        a = self.a
        return abs(a), 0.0, 0.0, (a / (1.0 + (a * rho) ** 2) ** 1.5 if a >= 0 else a)


class SphereCapProfile:
    """phi = R - sqrt(R**2 - y1**2 - y3**2): sphere of radius R seen from inside."""

    height_free = (0,)   # x = y1 (1 - y2/R); y reads y3 through sqrt(R^2 - y1^2 - y3^2)

    def __init__(self, R):
        self.R = float(R)
        self.curvature = 1.0 / self.R
        self.name = f"sphere_cap:{_spec_text(self.R)}"

    def chart(self, p, d, q, order=2):
        # with centre C = (0, R, 0) and support point S = (y1, phi, y3):
        # nu = (C - S)/R and Phi = S + y2 nu = C + t (S - C) with t = 1 - y2/R,
        # so d_a Phi = t d_a S and d_a nu = -d_a S/R
        R, shape = self.R, np.broadcast_shapes(p.shape, d.shape, q.shape)
        w2 = R * R - p * p - q * q
        if np.any(w2 <= 0.0):
            raise ChartRangeError("sphere-cap profile evaluated outside its disk")
        w = np.sqrt(w2)
        nu = np.empty((3,) + w.shape)
        nu[0], nu[1], nu[2] = -p / R, w / R, -q / R
        X = np.empty((3,) + shape)
        X[0] = p + d * nu[0]
        X[1] = (R - w) + d * nu[1]
        X[2] = q + d * nu[2]
        t = 1.0 - d / R
        g0, g1 = p / w, q / w   # D phi: d_1 S = (1, g0, 0) and d_3 S = (0, g1, 1)
        dPhi = np.zeros((3, 3) + shape)
        dPhi[0, 0] = dPhi[2, 2] = t
        dPhi[1, 0], dPhi[1, 2] = t * g0, t * g1
        dPhi[:, 1] = nu
        return X, dPhi, nu, None

    def rescale(self, lam):
        return SphereCapProfile(self.R / lam)

    def bounds(self, rho):
        # phi is radial and every bound is reached at the rim, w = sqrt(R^2 - rho^2)
        R = self.R
        if rho >= R:   # the cap's graph ends at the equator
            return math.inf, math.inf, math.inf, 2.0 / R
        w = math.sqrt(R * R - rho * rho)
        return (R * R / w**3, 3.0 * rho * R * R / w**5,
                3.0 * R * R * (R * R + 4.0 * rho * rho) / w**7, 2.0 / R)


# ---------------------------------------------------------------------------
# Patch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportPatch:
    """A kappa-graph patch of the support surface, base point at the origin.

    The orientation frame is fixed: base point O = 0 and nu(O) = (0, 1, 0).
    `chart_memo` keeps per grid key (h, r_dom) the `geometry.Section` of a curved
    chart that ignores y3; it lives and dies with the patch.

    Construction compares kappa only with the profile's curvature at the base
    point and refuses a support that is not mean-convex, while
    `verify_kappa_condition` checks all closed-form derivative bounds over the
    chart disk: `sphere_cap(R)` with its defaults is built, yet fails that check.
    """

    profile: object
    kappa: float
    chart_radius: float
    chart_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kappa < 0:
            raise PatchFieldError("kappa must be >= 0", "kappa")
        if self.kappa == 0 and not self.is_flat:
            raise PatchFieldError("kappa = 0 is only admitted for flat patches", "kappa")
        # below the profile's curvature the chart radius 1/kappa could reach the
        # support's focal line
        if self.kappa < self.profile.curvature:
            raise PatchFieldError(f"kappa must be >= {self.profile.curvature:g}, the "
                                  f"curvature of {self.profile.name}", "kappa")
        if self.kappa > 0 and self.chart_radius > 1.0 / self.kappa + 1e-12:
            raise PatchFieldError("chart_radius must be <= 1/kappa", "chart_radius")
        if (inf_H := self.profile.bounds(self.chart_radius)[3]) < -1e-8:   # KappaReport's tolerance
            raise PatchFieldError(f"{self.profile.name} is not mean-convex: inf H {inf_H:g}", "phi")

    # -- constructors -------------------------------------------------------

    @classmethod
    def flat(cls, chart_radius=10.0):
        return cls(FlatProfile(), 0.0, chart_radius)

    @classmethod
    def paraboloid(cls, a, kappa=None, chart_radius=None):
        kappa = float(abs(a)) if kappa is None else float(kappa)
        if chart_radius is None:   # kappa = 0 is refused in __post_init__
            chart_radius = 1.0 / kappa if kappa else np.inf
        return cls(ParaboloidProfile(a), kappa, chart_radius)

    @classmethod
    def sphere_cap(cls, R, kappa=None, chart_radius=None):
        kappa = 1.0 / float(R) if kappa is None else float(kappa)
        if chart_radius is None:
            chart_radius = min(1.0 / kappa if kappa else np.inf, 0.9 * float(R))
        return cls(SphereCapProfile(R), kappa, chart_radius)

    @classmethod
    def from_spec(cls, phi, kappa=None, chart_radius=None):
        """Catalog lookup: 'flat', 'paraboloid:a' or 'sphere_cap:R'.

        A flat patch ignores kappa; a left-out value takes the constructor's default.
        """
        if phi == "flat":
            return cls.flat(10.0 if chart_radius is None else chart_radius)
        if ":" in phi:
            base, arg = phi.split(":", 1)
            if base == "paraboloid":
                return cls.paraboloid(float(arg), kappa=kappa, chart_radius=chart_radius)
            if base == "sphere_cap":
                return cls.sphere_cap(float(arg), kappa=kappa, chart_radius=chart_radius)
        raise ValueError(f"unknown phi catalog entry: {phi!r}")

    def spec(self):
        """The `from_spec` arguments that rebuild this patch."""
        return {"phi": self.profile.name, "kappa": self.kappa,
                "chart_radius": self.chart_radius}

    # -- basic properties ---------------------------------------------------

    @property
    def is_flat(self):
        return isinstance(self.profile, FlatProfile)

    def rescale(self, lam):
        """The patch of Gamma/lam on the catalog profile phi(lam y)/lam, a (lam*kappa)-graph; kappa
        is raised to the profile's curvature where 1/(R/lam) rounds above lam * (1/R)."""
        lam = float(lam)
        profile = self.profile.rescale(lam)
        return replace(self, profile=profile, kappa=max(lam * self.kappa, profile.curvature),
                       chart_radius=self.chart_radius / lam)


# ---------------------------------------------------------------------------
# Chart evaluation
# ---------------------------------------------------------------------------

def _check_range(patch, r2, y3):
    # r2 = y1 * y1 + y2 * y2; max |Y| = sqrt(max |Y|^2) exactly, as sqrt is monotone
    # and correctly rounded
    r = np.sqrt(np.max(r2 + y3 * y3))
    if r >= patch.chart_radius:
        raise ChartRangeError(
            f"chart point |Y| = {float(r):g} outside radius {patch.chart_radius:g}"
        )


def chart_frames(patch, y1, y2, y3, order=2):
    """Evaluate Phi and its derivatives at the chart points (y1, y2, y3).

    The coordinates are arrays that broadcast against each other, such as a
    grid's (n1, 1) and (1, n2) axes and an (n1, n2) height.  Profile and nu
    data take the shape of (y1, y3) -- (n1, 1) on a support that does not
    depend on y3 -- and only products with the distance y2 fill the full shape.
    Returns a dict with 'X' (..., 3) and 'dPhi' (..., 3, i) over the full shape,
    component-first views (see `trailing`), 'nu' (..., 3) and, for order >= 2 on
    a paraboloid, 'd2Phi', mapping the chart pairs (0, 0) and (0, 1), all that a cylinder
    chart's cross section has besides d2Phi_11 = 0 (y2 is a distance), to
    their three ambient components.  The profile states them in closed form
    (see its `chart`).
    """
    p, d, q = (np.asarray(y, dtype=float) for y in (y1, y2, y3))
    _check_range(patch, p * p + d * d, q)
    X, dPhi, nu, d2Phi = patch.profile.chart(p, d, q, order)
    out = {"X": trailing(X, 1), "dPhi": trailing(dPhi, 2), "nu": trailing(nu, 1)}
    if d2Phi is not None:
        out["d2Phi"] = d2Phi
    return out


def tubular_map(patch, Y):
    """Phi(Y) = (y1, phi(y1,y3), y3) + y2 * nu(y1, y3)."""
    return chart_frames(patch, *components(np.asarray(Y, dtype=float), 1), order=1)["X"]


def chart_coords(patch, X):
    """Invert the tubular map by Newton iteration from Y = X, to 1e-12 chart radii in 50 steps;
    the flat chart is the identity, so its iteration returns at the first evaluation."""
    X = np.asarray(X, dtype=float)
    Y = X.copy()
    tol = 1e-12 * patch.chart_radius
    for _ in range(50):
        fr = chart_frames(patch, *components(Y, 1), order=1)
        res = fr["X"] - X
        if np.max(np.linalg.norm(res, axis=-1)) <= tol:
            return Y
        Y = Y - np.linalg.solve(fr["dPhi"], res[..., None])[..., 0]
    raise NewtonConvergenceError("tubular-map inversion did not converge in 50 steps")


def project_and_distance(patch, X):
    """Projection onto the surface, signed distance, and distance gradient.

    The distance is signed: positive on the inside (y2 > 0), negative
    outside.  The gradient is nu evaluated at the projection.
    """
    Y = chart_coords(patch, X)
    Yp = Y.copy()
    Yp[..., 1] = 0.0
    fr = chart_frames(patch, *components(Yp, 1), order=1)
    return fr["X"], Y[..., 1], fr["nu"]


def reflect(patch, X):
    """Reflection across the support surface: 2*projection - X."""
    proj, _, _ = project_and_distance(patch, X)
    return 2.0 * proj - np.asarray(X, dtype=float)


def signed_distance(patch, X):
    return chart_coords(patch, X)[..., 1]


def in_complementary_ball(patch, P, r, X):
    """Membership of X in the reflected part of B_r(P) outside the domain."""
    X = np.asarray(X, dtype=float)
    P = np.asarray(P, dtype=float)
    Y = chart_coords(patch, X)
    inside = Y[..., 1] > 0.0
    Yr = Y.copy()
    Yr[..., 1] = -Y[..., 1]
    Xr = tubular_map(patch, Yr)
    in_ball = np.linalg.norm(Xr - P, axis=-1) < r
    return inside & in_ball


# ---------------------------------------------------------------------------
# kappa-condition verification
# ---------------------------------------------------------------------------

@dataclass
class KappaReport:
    max_hess: float
    max_third: float
    lipschitz_third: float
    min_mean_curvature: float
    kappa: float
    passed: bool = field(init=False)

    def __post_init__(self):
        k, tol = self.kappa, 1e-10
        self.passed = (self.max_hess <= k + tol and self.max_third <= k**2 + tol
                       and self.lipschitz_third <= k**3 + tol
                       and self.min_mean_curvature >= -1e-8)


def verify_kappa_condition(patch):
    """The derivative bounds of the graph condition over the chart disk, from
    the profile's closed forms (see its `bounds`)."""
    return KappaReport(*patch.profile.bounds(patch.chart_radius), kappa=patch.kappa)
