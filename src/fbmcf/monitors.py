"""Density, energy, and concentration monitors evaluated on snapshots.

Interior density weights area with the backward heat kernel
Psi = (4 pi (T-t))^{-1} exp(-|X-P|^2 / (4(T-t))) under the cutoff
psi = (1 - (|X-P|^2 - 4(T-t)) / r^2)_+^3; passing r = inf drops the cutoff.
The boundary density uses the reflected point X~ and the modified kernel with
variance factor 1 + 16 (kappa^2 (T-t))^{2/5}; the flat-support limit
kappa = 0 makes the modification trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FbmcfError, TimeWindowError
from .geometry import integrate  # noqa: F401 -- perfbench/tracing.py wraps this binding
from .geometry import label_components
from .support import components, signed_distance, sq_dist, trailing
from .support import reflect as patch_reflect

BOUNDARY_WINDOW = 0.5 * (3.0 / 320.0) ** 5  # times kappa^{-2}
SCAN_WINDOW = 1 << 15   # (node, z offset) elements of the scan's window taken at once


def _reflected_sq_dist(X, P, patch):
    """|X~ - P|^2 of the points X~ reflected across the support; on a flat patch
    |X~ - P| = |X - P~|, so P is reflected instead of every point."""
    if patch is None or patch.is_flat:
        return sq_dist(X, P * np.array([1.0, -1.0, 1.0]))
    return sq_dist(patch_reflect(patch, X), P)


def _dot(a, b):
    """a . b over the trailing axis of two (M, 3) arrays, from their component planes, as
    (a0 b0 + a2 b2) + a1 b1: the order in which numpy (2.4) sums the row products of two
    C-ordered (M, 3) arrays in a product-sum, so the residuals keep their row-wise values."""
    (a0, a1, a2), (b0, b1, b2) = components(a, 1), components(b, 1)
    return (a0 * b0 + a2 * b2) + a1 * b1


# ---------------------------------------------------------------------------
# Density values
# ---------------------------------------------------------------------------

def interior_density_value(surface, P, T, r=np.inf, d_gamma=None):
    """Cutoff Gaussian density of one snapshot around the spacetime point (P, T).

    With finite r the localization demands r < d_gamma/(2 sqrt 5) whenever the
    distance of P to the support surface is supplied; reflection-symmetric
    configurations may evaluate with r = inf (no cutoff) instead.
    """
    P = np.asarray(P, dtype=float)
    tau = T - surface.t
    if tau <= 0.0:
        raise ValueError("snapshot time must precede the terminal time")
    if np.isfinite(r):
        if r <= 0.0:
            raise ValueError("cutoff radius must be positive")
        if d_gamma is not None and r >= d_gamma / (2.0 * np.sqrt(5.0)):
            raise ValueError("cutoff radius exceeds the interior margin")
        extent = float(np.sqrt(r**2 + 4.0 * tau))
    else:
        extent = 40.0 * float(np.sqrt(tau))

    def fn(s):
        q2 = sq_dist(s.X, P)
        psi = 1.0 if not np.isfinite(r) else \
            np.maximum(1.0 - (q2 - 4.0 * tau) / r**2, 0.0) ** 3
        return psi / (4.0 * np.pi * tau) * np.exp(-q2 / (4.0 * tau))

    return surface.integral(fn, focus=P, extent=extent)


def boundary_density_value(surface, P, T, kappa=0.0, patch=None):
    """Modified Gaussian density for a center on the support surface."""
    P = np.asarray(P, dtype=float)
    tau = T - surface.t
    if tau <= 0.0:
        raise ValueError("snapshot time must precede the terminal time")
    if patch is None or patch.is_flat:
        if abs(P[1]) > 1e-8 * (1.0 + np.linalg.norm(P)):
            raise ValueError("boundary query center must lie on the support surface")
    elif abs(signed_distance(patch, P)) > 1e-8 * patch.chart_radius:
        raise ValueError("boundary query center must lie on the support surface")
    if kappa > 0.0 and tau > BOUNDARY_WINDOW / kappa**2:
        raise TimeWindowError(
            f"T - t = {tau:g} exceeds the admissible window "
            f"{BOUNDARY_WINDOW / kappa**2:g}"
        )

    sigma = (kappa**2 * tau) ** 0.4
    var = 1.0 + 16.0 * sigma
    prefactor = np.exp(85.0 * sigma)
    if kappa > 0.0:
        eta_scale = (0.5 * sigma / kappa) ** 2
        extent = float(np.sqrt(80.0 * tau + eta_scale))
    else:
        extent = 40.0 * float(np.sqrt(var * tau))

    def fn(s):
        both = sq_dist(s.X, P) + _reflected_sq_dist(s.X, P, patch)
        eta = 1.0 if kappa == 0.0 else \
            np.clip(1.0 - (both - 80.0 * tau) / eta_scale, 0.0, 1.0) ** 4
        psi_g = np.exp(-0.5 * both / (4.0 * var * tau)) / (4.0 * np.pi * tau)
        return eta * psi_g

    return prefactor * surface.integral(fn, focus=P, extent=extent)


# ---------------------------------------------------------------------------
# Monotonicity report
# ---------------------------------------------------------------------------

@dataclass
class DensityQuery:
    P: np.ndarray
    T: float
    location: str = "interior"   # interior | boundary
    r: float = np.inf
    kappa: float = 0.0
    sample_times: list = field(default_factory=list)
    d_gamma: float = None


@dataclass
class DensityReport:
    times: np.ndarray
    values: np.ndarray
    max_upward_violation: float
    limit_estimate: float
    slope_flat: bool
    offsets: np.ndarray


def monotonicity_reports(trajectory, queries, patch=None):
    """The DensityReport of each query, from one pass over the snapshots in time order:
    each is visited once, so its geometry is built once (see `GraphSurface.geometry`)."""
    near = [[trajectory.snapshot_at(t) for t in q.sample_times] for q in queries]
    visits = {id(s): s for pairs in near for s, _ in pairs}
    values = [np.empty(len(pairs)) for pairs in near]
    for snap in sorted(visits.values(), key=lambda s: s.t):
        for q, pairs, v in zip(queries, near, values):
            for i in (i for i, (s, _) in enumerate(pairs) if s is snap):
                v[i] = (interior_density_value(snap, q.P, q.T, q.r, d_gamma=q.d_gamma)
                        if q.location == "interior" else
                        boundary_density_value(snap, q.P, q.T, q.kappa, patch=patch))
    return [DensityReport(np.array([s.t for s, _ in pairs]), v,
                          float(np.max(np.maximum(np.diff(v), 0.0), initial=0.0)), float(v[-1]),
                          bool(len(v) > 1 and np.max(np.abs(np.diff(v[-3:]))) < 1e-3),
                          np.array([off for _, off in pairs]))
            for pairs, v in zip(near, values)]


def monotonicity_report(trajectory, query, patch=None):
    """Density series along a trajectory with its monotonicity violation."""
    return monotonicity_reports(trajectory, [query], patch)[0]


# ---------------------------------------------------------------------------
# Self-shrinker residual
# ---------------------------------------------------------------------------

def self_shrinker_residual(surface, P, T, boundary=False, kappa=0.0, patch=None):
    """L2 norm sqrt(∫ drift^2 Psi dH^2) of the self-shrinker equation."""
    P = np.asarray(P, dtype=float)
    tau = T - surface.t
    if tau <= 0.0:
        raise ValueError("snapshot time must precede the terminal time")
    sigma = (kappa**2 * tau) ** 0.4 if boundary else 0.0
    var = 1.0 + 16.0 * sigma
    extent = 40.0 * float(np.sqrt(var * tau))

    def fn(s):
        rel = s.X - P
        q2 = sq_dist(s.X, P)
        if not boundary:
            drift = s.H + _dot(rel, s.N) / (2.0 * tau)
            w = np.exp(-q2 / (4.0 * tau)) / (4.0 * np.pi * tau)
        else:
            if patch is not None and not patch.is_flat:
                raise NotImplementedError("boundary residual needs a flat patch")
            # the support's distance is d = X_1, whose gradient is e_1
            rel1, d, N1 = (components(a, 1)[1] for a in (rel, s.X, s.N))
            core = _dot(rel, s.N) - (rel1 - d) * N1
            drift = s.H + core / (2.0 * var * tau)
            w = np.exp(-0.5 * (q2 + _reflected_sq_dist(s.X, P, patch)) / (4.0 * var * tau)) \
                / (4.0 * np.pi * tau)
        return drift**2 * w

    return float(np.sqrt(surface.integral(fn, focus=P, extent=extent)))


# ---------------------------------------------------------------------------
# Energy and interior curvature norm
# ---------------------------------------------------------------------------

def energy(surface):
    """Total squared second fundamental form ∫ |A|^2 dH^2 (0 when not compact)."""
    return surface.integral(lambda s: s.A2) if surface.is_compact else 0.0


def interior_curvature_norm(trajectory, center, R, rho):
    """sup of r |A(P)| over balls B_r(P) x B_{r^2}(t0) inside the window."""
    center = np.asarray(center, dtype=float)
    best = -np.inf
    for snap in trajectory.snapshots:
        if abs(snap.t) >= rho or not snap.is_compact:
            continue
        s = snap.samples()
        dist = np.sqrt(sq_dist(s.X, center))
        r_max = np.minimum(R - dist, np.sqrt(max(rho - abs(snap.t), 0.0)))
        ok = r_max > 0
        if np.any(ok):
            best = max(best, float(np.max(r_max[ok] * np.sqrt(s.A2[ok]))))
    if not np.isfinite(best):
        raise FbmcfError("empty-window: no admissible ball in the scan region")
    return best


# ---------------------------------------------------------------------------
# Singular set scan
# ---------------------------------------------------------------------------

@dataclass
class SingularScan:
    epsilon: float
    r_grid: np.ndarray
    t: float
    candidates: np.ndarray   # (K, 3)
    masses: np.ndarray       # (K, len(r_grid))
    flagged: np.ndarray      # (K,) bool
    clusters: np.ndarray     # (n_cluster, 3)
    total_energy: float


def _lattice_masses(axes, spacing, X, wA2, r_grid):
    """masses[k, j] = sum of wA2 over the nodes with |cand[k] - X|^2 < r_grid[j]^2, cand
    the lattice axes[0] x axes[1] x axes[2] in C order.  Each node visits the lattice
    points around its cell (axes padded with inf), looping over x and y offsets, the z
    offsets at once; no partial sum of d2 = (dx^2 + dy^2) + dz^2 exceeds it, so pruning
    on one drops no pair the strict test keeps.  A pair adds its weight at the least
    radius it lies within; cumulative sums over the radii give the masses.  The
    (node, z offset) window of one x and y offset is taken in runs of nodes of at most
    SCAN_WINDOW elements, so its size does not grow with the grid."""
    shape, nr, r2 = [len(a) for a in axes], len(r_grid), r_grid ** 2
    reach = int(np.ceil(r_grid[-1] / spacing)) + 1   # one offset more, for rounding
    ax, ay, az = (np.pad(a, reach, constant_values=np.inf) for a in axes)
    cell = np.floor((X - [a[0] for a in axes]) / spacing).astype(np.intp) + reach
    offsets = np.arange(-reach, reach + 1)
    dz2 = (az[cell[:, 2, None] + offsets] - X[:, 2, None]) ** 2
    sums = np.zeros(np.prod(shape) * nr)   # the pair (k, j) adds to sums[k nr + j]
    for ox in offsets:
        dx2 = (ax[cell[:, 0] + ox] - X[:, 0]) ** 2
        n0 = np.flatnonzero(dx2 < r2[-1])
        dx2 = dx2[n0]
        for oy in offsets:
            iy = cell[n0, 1] + oy
            dxy = dx2 + (ay[iy] - X[n0, 1]) ** 2
            near = np.flatnonzero(dxy < r2[-1])
            if near.size == 0:
                continue
            n1, dxy = n0[near], dxy[near]
            rz = int(np.ceil(np.sqrt(r2[-1] - dxy.min()) / spacing)) + 1
            oz = slice(reach - rz, reach + rz + 1)
            k0 = nr * (((cell[n1, 0] + ox - reach) * shape[1] + iy[near] - reach) * shape[2]
                       + cell[n1, 2] - reach)
            run = max(SCAN_WINDOW // (2 * rz + 1), 1)
            for c in range(0, n1.size, run):
                nodes = slice(c, c + run)
                d2 = dz2[n1[nodes], oz] + dxy[nodes, None]
                pair = np.flatnonzero(d2 < r2[-1])   # flat (node, z offset) window indices
                k = (k0[nodes, None] + nr * offsets[oz]).ravel()[pair]
                d2 = d2.ravel()[pair]
                for j in range(nr - 1):
                    k += d2 >= r2[j]
                np.add.at(sums, k, wA2[n1[nodes]][pair // (2 * rz + 1)])
    return np.cumsum(sums.reshape(-1, nr), axis=1)


def singular_set_scan(trajectory, epsilon, r_grid):
    """Flag candidate centers whose curvature mass exceeds epsilon at all radii."""
    if len(trajectory.snapshots) < 2:
        raise ValueError("scan needs at least two snapshots")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    if r_grid.size == 0 or r_grid[0] <= 0.0:
        raise ValueError("r_grid must hold at least one radius, all positive")
    snap = trajectory.snapshots[-1]
    total = energy(snap)
    if not total >= epsilon:   # also every non-compact surface, whose energy reads 0
        return SingularScan(epsilon, r_grid, snap.t, np.zeros((0, 3)), np.zeros((0, len(r_grid))),
                            np.zeros(0, bool), np.zeros((0, 3)), total)

    s = snap.samples()
    spacing = 0.5 * r_grid[0]
    lo, hi = s.X.min(axis=0) - r_grid[0], s.X.max(axis=0) + r_grid[0]
    axes = [np.arange(lo[d], hi[d] + spacing, spacing) for d in range(3)]
    cand = trailing(np.stack(np.meshgrid(*axes, indexing="ij")).reshape(3, -1), 1)
    masses = _lattice_masses(axes, spacing, s.X, s.w * s.A2, r_grid)
    flagged = np.all(masses >= epsilon, axis=1)
    labels, n = label_components(flagged.reshape([len(a) for a in axes]), full=True)
    clusters = np.array([np.average(cand[sel], axis=0, weights=masses[sel, 0]) for sel in
                         (labels.ravel() == lbl for lbl in range(1, n + 1))]).reshape(-1, 3)
    return SingularScan(epsilon, r_grid, snap.t, cand, masses, flagged,
                        clusters, total)
