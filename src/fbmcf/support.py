"""Support surface as a graph patch with its tubular-neighborhood chart.

The support surface sits in ambient coordinates (x1, x2, x3) as the graph
x2 = phi(x1, x3) through the origin, with unit inward normal (0, 1, 0) at
the base point.  Chart coordinates are Y = (y1, y2, y3): (y1, y3) are
tangent coordinates of the projection onto the surface and y2 is the signed
distance (positive on the inside).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ChartRangeError, NewtonConvergenceError, PatchFieldError

# tangent slot a -> chart index (y1, y3)
_TANGENT_IDX = (0, 2)


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


# ---------------------------------------------------------------------------
# Height profiles phi(y1, y3) with derivatives up to third order
# ---------------------------------------------------------------------------

class FlatProfile:
    """phi == 0."""

    name = "flat"
    curvature = 0.0

    def derivs(self, p, q):
        p = np.asarray(p, dtype=float)
        z = np.zeros_like(p)
        shape = p.shape
        return (
            z,
            np.zeros(shape + (2,)),
            np.zeros(shape + (2, 2)),
            np.zeros(shape + (2, 2, 2)),
        )


def _spec_text(v):
    """v as its %g text where that reads back as v, else as its exact repr."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(v)


class ParaboloidProfile:
    """phi = a * y1**2 / 2 (a cylinder-like parabolic trough)."""

    def __init__(self, a):
        self.a = float(a)
        self.curvature = abs(self.a)
        self.name = f"paraboloid:{_spec_text(self.a)}"

    def derivs(self, p, q):
        p = np.asarray(p, dtype=float)
        shape = p.shape
        a = self.a
        phi = 0.5 * a * p**2
        d1 = np.zeros((2,) + shape)
        d1[0] = a * p
        d2 = np.zeros((2, 2) + shape)
        d2[0, 0] = a
        d3 = np.zeros((2, 2, 2) + shape)
        return phi, trailing(d1, 1), trailing(d2, 2), trailing(d3, 3)


class SphereCapProfile:
    """phi = R - sqrt(R**2 - y1**2 - y3**2): sphere of radius R seen from inside."""

    def __init__(self, R):
        self.R = float(R)
        self.curvature = 1.0 / self.R
        self.name = f"sphere_cap:{_spec_text(self.R)}"

    def derivs(self, p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        R = self.R
        w2 = R**2 - p**2 - q**2
        if np.any(w2 <= 0.0):
            raise ChartRangeError("sphere-cap profile evaluated outside its disk")
        w = np.sqrt(w2)
        w3, w5 = w**3, w**5
        shape = np.shape(w)
        phi = R - w
        d1 = np.empty((2,) + shape)
        d1[0] = p / w
        d1[1] = q / w
        d2 = np.empty((2, 2) + shape)
        d2[0, 0] = 1.0 / w + p * p / w3
        d2[0, 1] = d2[1, 0] = p * q / w3
        d2[1, 1] = 1.0 / w + q * q / w3
        # d3_{abc} = (delta_ab y_c + delta_ac y_b + delta_bc y_a)/w^3 + 3 y_a y_b y_c / w^5
        d3 = np.empty((2, 2, 2) + shape)
        d3[0, 0, 0] = (p + p + p) / w3 + 3.0 * (p * p * p) / w5
        d3[0, 0, 1] = d3[0, 1, 0] = d3[1, 0, 0] = q / w3 + 3.0 * (p * p * q) / w5
        d3[0, 1, 1] = d3[1, 0, 1] = d3[1, 1, 0] = p / w3 + 3.0 * (p * q * q) / w5
        d3[1, 1, 1] = (q + q + q) / w3 + 3.0 * (q * q * q) / w5
        return phi, trailing(d1, 1), trailing(d2, 2), trailing(d3, 3)


class ScaledProfile:
    """phi^lam(y) = phi(lam*y)/lam, the profile of Gamma/lam."""

    def __init__(self, base, lam):
        self.base = base
        self.lam = float(lam)
        self.curvature = self.lam * base.curvature
        self.name = f"{base.name}@/{_spec_text(self.lam)}"

    def derivs(self, p, q):
        lam = self.lam
        phi, d1, d2, d3 = self.base.derivs(lam * np.asarray(p, float), lam * np.asarray(q, float))
        return phi / lam, d1, lam * d2, lam**2 * d3


# ---------------------------------------------------------------------------
# Patch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportPatch:
    """A kappa-graph patch of the support surface, base point at the origin.

    The orientation frame is fixed: base point O = 0 and nu(O) = (0, 1, 0).
    `chart_memo` holds the height-free chart planes that
    `geometry.fundamental_forms` keeps per grid; it lives and dies with the patch.

    Construction compares kappa only with the profile's curvature at the base
    point, while `verify_kappa_condition` checks the derivative bounds over the
    whole chart disk: `sphere_cap(R)` with its defaults is built, yet fails that check.
    """

    kind: str
    profile: object
    kappa: float
    chart_radius: float
    chart_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kappa < 0:
            raise PatchFieldError("kappa must be >= 0", "kappa")
        if self.kappa == 0 and self.kind != "flat":
            raise PatchFieldError("kappa = 0 is only admitted for flat patches", "kappa")
        # below the profile's curvature the chart radius 1/kappa could reach the
        # support's focal line
        if self.kappa < self.profile.curvature:
            raise PatchFieldError(f"kappa must be >= {self.profile.curvature:g}, the "
                                  f"curvature of {self.profile.name}", "kappa")
        if self.kappa > 0 and self.chart_radius > 1.0 / self.kappa + 1e-12:
            raise PatchFieldError("chart_radius must be <= 1/kappa", "chart_radius")

    # -- constructors -------------------------------------------------------

    @classmethod
    def flat(cls, chart_radius=10.0):
        return cls("flat", FlatProfile(), 0.0, chart_radius)

    @classmethod
    def paraboloid(cls, a, kappa=None, chart_radius=None):
        kappa = float(abs(a)) if kappa is None else float(kappa)
        if chart_radius is None:   # kappa = 0 is refused in __post_init__
            chart_radius = 1.0 / kappa if kappa else np.inf
        return cls("analytic-quadric", ParaboloidProfile(a), kappa, chart_radius)

    @classmethod
    def sphere_cap(cls, R, kappa=None, chart_radius=None):
        kappa = 1.0 / float(R) if kappa is None else float(kappa)
        if chart_radius is None:
            chart_radius = min(1.0 / kappa if kappa else np.inf, 0.9 * float(R))
        return cls("analytic-quadric", SphereCapProfile(R), kappa, chart_radius)

    @classmethod
    def from_spec(cls, phi, kappa=None, chart_radius=None):
        """Catalog lookup: 'flat', 'paraboloid:a', 'sphere_cap:R', and
        '<spec>@/lam', the name `rescale(lam)` gives the patch of <spec>.

        A flat patch ignores kappa; a left-out value takes the constructor's
        default, or for '<spec>@/lam' the value of `from_spec(<spec>).rescale(lam)`.
        """
        if "@/" in phi:
            spec, lam = phi.rsplit("@/", 1)
            patch = cls.from_spec(spec).rescale(float(lam))
            return replace(patch, kappa=patch.kappa if kappa is None else float(kappa),
                           chart_radius=(patch.chart_radius if chart_radius is None
                                         else chart_radius))
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
        return self.kind == "flat"

    def rescale(self, lam):
        """The patch of Gamma/lam; satisfies the (lam*kappa)-graph condition."""
        lam = float(lam)
        if self.is_flat:
            return SupportPatch("flat", FlatProfile(), 0.0, self.chart_radius / lam)
        return SupportPatch(
            self.kind, ScaledProfile(self.profile, lam), lam * self.kappa, self.chart_radius / lam
        )


# ---------------------------------------------------------------------------
# Chart evaluation
# ---------------------------------------------------------------------------

def _check_range(patch, y1, y2, y3):
    # max |Y| = sqrt(max |Y|^2) exactly, as sqrt is monotone and correctly rounded
    r = np.sqrt(np.max(y1 * y1 + y2 * y2 + y3 * y3))
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
    component-first views (see `trailing`), 'nu' (..., 3) and, for order >= 2,
    'd2Phi', mapping the chart pairs (0, 0), (0, 1), (0, 2), (1, 2) and (2, 2)
    to their three ambient components; d2Phi_11 = 0, as y2 is a distance.
    """
    p, d, q = (np.asarray(y, dtype=float) for y in (y1, y2, y3))
    _check_range(patch, p, d, q)
    phi, g1, g2, g3 = patch.profile.derivs(p, q)
    g1, g2 = components(g1, 1), components(g2, 2)
    shape = np.broadcast_shapes(p.shape, d.shape, q.shape)

    # Unnormalised inward normal n = (-g1_0, 1, -g1_1) and nu = n / |n|.  Ambient
    # components c = 0, 2 carry profile slot k (c = _TANGENT_IDX[k]); n_1 is constant.
    n = (-g1[0], 1.0, -g1[1])
    W = np.sqrt(g1[0] * g1[0] + 1.0 + g1[1] * g1[1])
    nu = np.empty((3,) + W.shape)
    for c in range(3):
        nu[c] = n[c] / W

    # derivatives along tangent slot a: d n_c = -g2[k, a] and dW = (n . dn) / W
    n_dn = [g1[0] * g2[0, a] + g1[1] * g2[1, a] for a in range(2)]
    dW = [n_dn[a] / W for a in range(2)]
    W2 = W**2
    s = [dW[a] / W2 for a in range(2)]
    dnu = [[-s[a] for a in range(2)] for _ in range(3)]
    for k, c in enumerate(_TANGENT_IDX):
        dnu[c] = [-g2[k, a] / W - n[c] * s[a] for a in range(2)]

    X = np.empty((3,) + shape)
    X[0] = p + d * nu[0]
    X[1] = phi + d * nu[1]
    X[2] = q + d * nu[2]
    # d Phi / d y_a = dc_a + d * dnu_a with c = (y1, phi, y3); d Phi / d y2 = nu
    dPhi = np.empty((3, 3) + shape)
    dPhi[0, 0] = 1.0 + d * dnu[0][0]
    dPhi[1, 0] = g1[0] + d * dnu[1][0]
    dPhi[2, 0] = d * dnu[2][0]
    dPhi[0, 2] = d * dnu[0][1]
    dPhi[1, 2] = g1[1] + d * dnu[1][1]
    dPhi[2, 2] = 1.0 + d * dnu[2][1]
    dPhi[:, 1] = nu

    out = {"X": trailing(X, 1), "dPhi": trailing(dPhi, 2), "nu": trailing(nu, 1)}
    if order < 2:
        return out

    g3 = components(g3, 3)
    W3 = W**3
    # a pair with the distance y2 is dnu_a; a tangent pair is y2 * d2nu_ab + d2c_ab
    d2Phi = {(0, 1): (dnu[0][0], dnu[1][0], dnu[2][0]),
             (1, 2): (dnu[0][1], dnu[1][1], dnu[2][1])}
    for a, b in ((0, 0), (0, 1), (1, 1)):
        ddW = ((g2[0, a] * g2[0, b] + g2[1, a] * g2[1, b]
                + g1[0] * g3[0, a, b] + g1[1] * g3[1, a, b]) / W
               - n_dn[a] * n_dn[b] / W3)
        tail = ddW / W2 - 2.0 * (dW[a] * dW[b] / W3)
        # second derivatives of nu; d2 n_c = -g3[k, a, b] and d2 n_1 = 0
        ddnu = [-tail] * 3
        for k, c in enumerate(_TANGENT_IDX):
            ddnu[c] = (-n[c] * tail - g3[k, a, b] / W
                       + g2[k, b] * s[a] + g2[k, a] * s[b])
        d2Phi[_TANGENT_IDX[a], _TANGENT_IDX[b]] = (d * ddnu[0], d * ddnu[1] + g2[a, b],
                                                   d * ddnu[2])
    out["d2Phi"] = d2Phi
    return out


def tubular_map(patch, Y):
    """Phi(Y) = (y1, phi(y1,y3), y3) + y2 * nu(y1, y3)."""
    Y = np.asarray(Y, dtype=float)
    if patch.is_flat:
        _check_range(patch, *components(Y, 1))
        return Y.copy()
    return chart_frames(patch, *components(Y, 1), order=1)["X"]


def chart_coords(patch, X, tol_factor=1e-12, max_iter=50):
    """Invert the tubular map by Newton iteration, seeded at Y = X."""
    X = np.asarray(X, dtype=float)
    if patch.is_flat:
        _check_range(patch, *components(X, 1))
        return X.copy()
    Y = X.copy()
    tol = tol_factor * patch.chart_radius
    for _ in range(max_iter):
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


def pullback_metric(patch, Y):
    """Pull-back metric h_ij = dPhi_i . dPhi_j at the chart points Y (..., 3)."""
    Y = np.asarray(Y, dtype=float)
    dPhi = components(chart_frames(patch, *components(Y, 1), order=1)["dPhi"], 2)
    h = np.empty((3,) + dPhi.shape[1:])
    for i in range(3):
        for j in range(i, 3):
            h[i, j] = h[j, i] = (dPhi[0, i] * dPhi[0, j] + dPhi[1, i] * dPhi[1, j]
                                 + dPhi[2, i] * dPhi[2, j])
    return trailing(h, 2)


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
        k = self.kappa
        tol = 1e-10
        bounds_ok = (
            self.max_hess <= k + tol
            and self.max_third <= k**2 + tol
            and self.lipschitz_third <= k**3 + tol
        )
        self.passed = bounds_ok and self.min_mean_curvature >= -1e-8


def _tangent_lattice(patch, n=65):
    cr = patch.chart_radius
    ax = np.linspace(-cr, cr, n)
    P, Q = np.meshgrid(ax, ax, indexing="ij")
    mask = P**2 + Q**2 < cr**2 * (1.0 - 1e-12)
    return P[mask], Q[mask]


def verify_kappa_condition(patch, n=65):
    """Check the derivative bounds of the graph condition on a sample lattice."""
    p, q = _tangent_lattice(patch, n)
    phi, g1, g2, g3 = patch.profile.derivs(p, q)

    hess_norm = np.linalg.norm(g2, ord=2, axis=(-2, -1))
    third_norm = np.max(np.abs(g3).reshape(g3.shape[0], -1), axis=-1)

    # Lipschitz constant of the third derivative, estimated from lattice pairs
    lip = 0.0
    if patch.kind != "flat":
        pts = np.stack([p, q], axis=-1)
        flat3 = g3.reshape(g3.shape[0], -1)
        # compare each sample against a strided subset to bound pair count
        stride = max(1, len(p) // 800)
        sub = slice(None, None, stride)
        dp = np.linalg.norm(pts[:, None, :] - pts[None, sub, :], axis=-1)
        dv = np.max(np.abs(flat3[:, None, :] - flat3[None, sub, :]), axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = np.where(dp > 0, dv / dp, 0.0)
        lip = float(np.max(ratios))

    # mean curvature of the graph with respect to the inward (upward) normal
    W2 = 1.0 + np.sum(g1**2, axis=-1)
    H = (
        (1.0 + g1[..., 1] ** 2) * g2[..., 0, 0]
        - 2.0 * g1[..., 0] * g1[..., 1] * g2[..., 0, 1]
        + (1.0 + g1[..., 0] ** 2) * g2[..., 1, 1]
    ) / W2**1.5

    return KappaReport(
        max_hess=float(np.max(hess_norm)),
        max_third=float(np.max(third_norm)),
        lipschitz_third=lip,
        min_mean_curvature=float(np.min(H)),
        kappa=patch.kappa,
    )
