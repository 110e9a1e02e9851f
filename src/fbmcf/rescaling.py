"""Parabolic rescalings and normalized frames of stored trajectories.

A parabolic frame is the spacetime zoom (Sigma_{T + lam^2 tau} - P)/lam; the
normalized frame at parameter s is e^{s/2}(Sigma_{T - e^{-s}} - P), which
equals the parabolic frame with lam = e^{-s/2} at tau = -1.  Every surface
transforms itself through `translate_scale`: analytic snapshots exactly, grid
snapshots through their point samples with H -> lam H and |A|^2 -> lam^2 |A|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import FieldSample
from .errors import FbmcfError


@dataclass
class FrameSurface:
    """Transformed point samples of a grid snapshot."""

    X: np.ndarray
    w: np.ndarray
    N: np.ndarray
    H: np.ndarray
    A2: np.ndarray
    t: float
    h_frame: float

    is_compact = True
    topology = None   # untagged, like the grid surface it came from

    @property
    def point(self):
        """Centroid of the sample points."""
        return self.X.mean(axis=0)

    def samples(self, m=None, focus=None, extent=None):
        """The stored samples; the arguments only steer analytic sampling."""
        return FieldSample(self.X, self.w, self.N, self.H, self.A2)

    def integral(self, fn, focus=None, extent=None):
        """Sum of fn(samples) times the sample weights."""
        s = self.samples()
        return float(np.sum(np.asarray(fn(s)) * s.w))

    def translate_scale(self, P, lam):
        """The samples of (S - P)/lam, with spacing h_frame/lam."""
        return FrameSurface(
            X=(self.X - P) / lam,
            w=self.w / lam**2,
            N=self.N.copy(),
            H=lam * self.H,
            A2=lam**2 * self.A2,
            t=self.t,
            h_frame=self.h_frame / lam,
        )


@dataclass
class RescalingFrame:
    P: np.ndarray
    T: float
    mode: str              # parabolic | normalized
    lam: float
    tau: float
    surface: object        # AnalyticSurface or FrameSurface
    patch: object          # rescaled support patch (kappa_eff = lam * kappa)
    time_offset: float     # snapshot-time quantization offset (source units)


def parabolic_rescale(trajectory, P, T, lam, tau, patch=None):
    """Frame (Sigma_{T + lam^2 tau} - P)/lam from the nearest stored snapshot."""
    P = np.asarray(P, dtype=float)
    t_req = T + lam**2 * tau
    times = trajectory.times
    if not (times.min() - 1e-12 <= t_req <= times.max() + 1e-12):
        raise FbmcfError(f"requested time {t_req:g} outside the snapshot range")
    snap, offset = trajectory.snapshot_at(t_req)
    surf = snap.translate_scale(P, lam)
    patch_eff = patch.rescale(lam) if patch is not None else None
    return RescalingFrame(P, T, "parabolic", lam, tau, surf, patch_eff, offset)


def normalized_frame(trajectory, P, s, T, patch=None):
    """Frame e^{s/2}(Sigma_{T - e^{-s}} - P); parabolic frame at tau = -1."""
    lam = float(np.exp(-0.5 * s))
    fr = parabolic_rescale(trajectory, P, T, lam, -1.0, patch=patch)
    fr.mode = "normalized"
    return fr


def frame_distance(f1, f2, m=64):
    """Max pointwise distance between two frames sampled identically."""
    s1 = f1.surface.samples(m, focus=np.zeros(3), extent=1.0)
    s2 = f2.surface.samples(m, focus=np.zeros(3), extent=1.0)
    if s1.X.shape != s2.X.shape:
        raise FbmcfError("frames are sampled incompatibly")
    return float(np.max(np.linalg.norm(s1.X - s2.X, axis=-1)))


# ---------------------------------------------------------------------------
# Planarity and multiplicity
# ---------------------------------------------------------------------------

@dataclass
class PlanarityReport:
    base: np.ndarray
    normal: np.ndarray
    deviation: float
    sheet_count: int
    exclusion: tuple


def planarity_multiplicity(frame, region_radius, center=None, exclusion=(),
                           boundary_mode=False):
    """Best-fit (half-)plane with L-inf deviation and normal-line sheet count.

    In boundary mode the fit normal is constrained orthogonal to the support
    normal (0,1,0) and the plane passes through the boundary-trace centroid,
    so the fitted half-plane meets the support surface orthogonally.  The
    sheet tolerance is three frame grid spacings; exact surfaces have none
    and use the spacing region_radius/32 of their quadrature nodes instead.
    """
    center = np.asarray(frame.surface.point if center is None else center, dtype=float)
    s = frame.surface.samples(64, focus=center, extent=1.5 * region_radius)
    pts = s.X[np.linalg.norm(s.X - center, axis=-1) <= region_radius]
    if len(pts) == 0:
        raise FbmcfError("empty-region: no frame samples in the fit region")
    h_frame = frame.surface.h_frame or region_radius / 32.0

    mu = pts.mean(axis=0)
    rel = pts - mu
    if boundary_mode:
        # constrain the normal orthogonal to the support normal (0,1,0)
        _, _, vt = np.linalg.svd(rel[:, [0, 2]], full_matrices=False)
        n = np.array([vt[-1][0], 0.0, vt[-1][1]])
        edge = pts[np.abs(pts[:, 1]) <= 3.0 * h_frame]
        base = edge.mean(axis=0) if len(edge) else mu * np.array([1.0, 0.0, 1.0])
    else:
        _, _, vt = np.linalg.svd(rel, full_matrices=False)
        n = vt[-1]
        base = mu
    deviation = float(np.max(np.abs((pts - base) @ n)))

    # sheet count: cluster normal offsets over each in-plane base point
    tol = 3.0 * h_frame
    offsets = (pts - base) @ n
    inplane = pts - offsets[:, None] * n
    idx = np.arange(len(pts))
    if len(idx) > 200:
        idx = idx[:: len(idx) // 200]
    sheets = 1
    for k in idx:
        b = inplane[k]
        near = np.linalg.norm(inplane - b, axis=-1) < tol
        if exclusion and any(np.linalg.norm(b - np.asarray(c)) < rr
                             for c, rr in exclusion):
            continue
        offs = np.sort(offsets[near])
        count = 1 + int(np.sum(np.diff(offs) > tol)) if len(offs) else 0
        sheets = max(sheets, count)
    return PlanarityReport(base, n, deviation, sheets, tuple(exclusion))
