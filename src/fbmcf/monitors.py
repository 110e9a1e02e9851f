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
from .support import reflect as patch_reflect
from .support import signed_distance

BOUNDARY_WINDOW = 0.5 * (3.0 / 320.0) ** 5  # times kappa^{-2}


def _reflected(X, patch):
    if patch is None or patch.is_flat:
        return X * np.array([1.0, -1.0, 1.0])
    return patch_reflect(patch, X)


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
        q2 = np.sum((s.X - P) ** 2, axis=-1)
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
        q2 = np.sum((s.X - P) ** 2, axis=-1)
        qr2 = np.sum((_reflected(s.X, patch) - P) ** 2, axis=-1)
        both = q2 + qr2
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


def monotonicity_report(trajectory, query, patch=None):
    """Density series along a trajectory with its monotonicity violation."""
    times, values, offsets = [], [], []
    for t in query.sample_times:
        snap, off = trajectory.snapshot_at(t)
        if query.location == "interior":
            v = interior_density_value(snap, query.P, query.T, query.r,
                                       d_gamma=query.d_gamma)
        else:
            v = boundary_density_value(snap, query.P, query.T, query.kappa,
                                       patch=patch)
        times.append(snap.t)
        values.append(v)
        offsets.append(off)
    values = np.array(values)
    diffs = np.diff(values)
    violation = float(np.max(np.maximum(diffs, 0.0), initial=0.0))
    tail = values[-3:]
    slope_flat = bool(len(tail) >= 2 and np.max(np.abs(np.diff(tail))) < 1e-3)
    return DensityReport(np.array(times), values, violation,
                         float(values[-1]), slope_flat, np.array(offsets))


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
        q2 = np.sum(rel**2, axis=-1)
        if not boundary:
            drift = s.H + np.einsum("mc,mc->m", rel, s.N) / (2.0 * tau)
            w = np.exp(-q2 / (4.0 * tau)) / (4.0 * np.pi * tau)
        else:
            if patch is None or patch.is_flat:
                d = s.X[:, 1]
                gd = np.zeros_like(s.X)
                gd[:, 1] = 1.0
                qr2 = np.sum((_reflected(s.X, patch) - P) ** 2, axis=-1)
            else:
                raise NotImplementedError("boundary residual needs a flat patch")
            core = (np.einsum("mc,mc->m", rel, s.N)
                    - (np.einsum("mc,mc->m", rel, gd) - d)
                    * np.einsum("mc,mc->m", gd, s.N))
            drift = s.H + core / (2.0 * var * tau)
            w = np.exp(-0.5 * (q2 + qr2) / (4.0 * var * tau)) / (4.0 * np.pi * tau)
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
        dist = np.linalg.norm(s.X - center, axis=-1)
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


# Candidate-node pairs held at once: bounds memory however large r_grid[-1] is.
_PAIR_CAP = 1 << 20


def _ball_masses(cand, X, wA2, r_grid):
    """masses[k, j] = sum of wA2 over the nodes with |cand[k] - X|^2 < r_grid[j]^2.

    Only candidate-node pairs within the largest radius are visited. A k-d
    tree finds them within a slightly padded radius; each pair's d2 is then
    recomputed bit for bit as (dx^2 + dy^2) + dz^2, and the strict test
    decides, so the padding never does. Candidates go in blocks of
    _PAIR_CAP // len(X), so a block never holds more than _PAIR_CAP pairs.
    """
    from scipy.spatial import cKDTree

    masses = np.zeros((len(cand), len(r_grid)))
    nodes = cKDTree(X)
    reach = r_grid[-1] * (1.0 + 1e-9)
    block = max(1, _PAIR_CAP // len(X))
    for k0 in range(0, len(cand), block):
        c = cand[k0:k0 + block]
        pairs = cKDTree(c).sparse_distance_matrix(nodes, reach, output_type="ndarray")
        i, j = pairs["i"], pairs["j"]
        d2 = np.zeros(len(pairs))
        for a in range(3):
            d = c[:, a][i] - X[:, a][j]
            d2 += d * d
        w = wA2[j]
        for col, r in enumerate(r_grid):
            inside = d2 < r**2
            masses[k0:k0 + block, col] = np.bincount(i[inside], weights=w[inside],
                                                     minlength=len(c))
    return masses


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
    if total < epsilon:   # also every non-compact surface, whose energy reads 0
        return SingularScan(epsilon, r_grid, snap.t, np.zeros((0, 3)),
                            np.zeros((0, len(r_grid))), np.zeros(0, bool),
                            np.zeros((0, 3)), total)
    s = snap.samples()

    spacing = 0.5 * r_grid[0]
    lo = s.X.min(axis=0) - r_grid[0]
    hi = s.X.max(axis=0) + r_grid[0]
    axes = [np.arange(lo[d], hi[d] + spacing, spacing) for d in range(3)]
    grid = np.meshgrid(*axes, indexing="ij")
    shape = grid[0].shape
    cand = np.stack([g.ravel() for g in grid], axis=-1)

    masses = _ball_masses(cand, s.X, s.w * s.A2, r_grid)

    flagged = np.all(masses >= epsilon, axis=-1)
    flag_grid = flagged.reshape(shape)
    from scipy import ndimage   # on first use: at import time it doubled start-up

    labels, n = ndimage.label(flag_grid, structure=np.ones((3, 3, 3), dtype=int))
    clusters = []
    lab_flat = labels.ravel()
    w0 = masses[:, 0]
    for lbl in range(1, n + 1):
        sel = lab_flat == lbl
        clusters.append(np.average(cand[sel], axis=0, weights=w0[sel]))
    clusters = np.array(clusters) if clusters else np.zeros((0, 3))
    return SingularScan(epsilon, r_grid, snap.t, cand, masses, flagged,
                        clusters, total)
