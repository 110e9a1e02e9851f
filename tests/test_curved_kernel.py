"""The component-first geometry kernel against the einsum implementation it replaced.

The reference below is the earlier trailing-axis code: profile derivatives
stacked on the last axes, `chart_frames` and `pullback_metric_connection`
through `np.einsum`, `np.linalg.inv` on the 3x3 pull-back metric, the 2x2
inverse on trailing axes, and the `Q` triple loop of `fundamental_forms`.
The flat support runs through the same reference with a zero profile.
"""

import json

import numpy as np
import pytest

from fbmcf.cli import main
from fbmcf.errors import SingularMetricError
from fbmcf.flow import FlowConfig, run
from fbmcf.geometry import GraphSurface, _derivative_planes, disk_cell_weights, fundamental_forms
from fbmcf.support import (
    FlatProfile,
    ParaboloidProfile,
    ScaledProfile,
    SphereCapProfile,
    SupportPatch,
    chart_frames,
    metric_connection,
    pullback_metric_connection,
)

_TANGENT_IDX = (0, 2)
FIELDS = ("X", "N", "du", "d2u", "g", "ginv", "A", "H", "A2", "sqrtg", "wcell", "dA",
          "coeff_f")


def ref_derivs(profile, p, q):
    if isinstance(profile, ScaledProfile):
        lam = profile.lam
        phi, d1, d2, d3 = ref_derivs(profile.base, lam * p, lam * q)
        return phi / lam, d1, lam * d2, lam**2 * d3
    shape = p.shape
    if isinstance(profile, FlatProfile):
        return (np.zeros(shape), np.zeros(shape + (2,)), np.zeros(shape + (2, 2)),
                np.zeros(shape + (2, 2, 2)))
    if isinstance(profile, ParaboloidProfile):
        a = profile.a
        d1 = np.zeros(shape + (2,))
        d1[..., 0] = a * p
        d2 = np.zeros(shape + (2, 2))
        d2[..., 0, 0] = a
        return 0.5 * a * p**2, d1, d2, np.zeros(shape + (2, 2, 2))
    assert isinstance(profile, SphereCapProfile)
    R = profile.R
    w = np.sqrt(R**2 - p**2 - q**2)
    y = np.stack([p, q], axis=-1)
    eye = np.eye(2)
    d2 = eye / w[..., None, None] + (
        y[..., :, None] * y[..., None, :] / (w**3)[..., None, None])
    d3 = (
        eye[None, ...][..., :, :, None] * y[..., None, None, :]
        + eye[..., :, None, :] * y[..., None, :, None]
        + eye[..., None, :, :] * y[..., :, None, None]
    ) / (w**3)[..., None, None, None] + 3.0 * (
        y[..., :, None, None] * y[..., None, :, None] * y[..., None, None, :]
    ) / (w**5)[..., None, None, None]
    return R - w, y / w[..., None], d2, d3


def ref_chart_frames(patch, Y):
    p, d, q = Y[..., 0], Y[..., 1], Y[..., 2]
    phi, g1, g2, g3 = ref_derivs(patch.profile, p, q)
    shape = p.shape

    n = np.zeros(shape + (3,))
    n[..., 0] = -g1[..., 0]
    n[..., 1] = 1.0
    n[..., 2] = -g1[..., 1]
    W = np.linalg.norm(n, axis=-1)
    nu = n / W[..., None]
    dn = np.zeros(shape + (3, 2))
    dn[..., 0, :] = -g2[..., 0, :]
    dn[..., 2, :] = -g2[..., 1, :]
    n_dn = np.einsum("...c,...ca->...a", n, dn)
    dW = n_dn / W[..., None]
    dnu = dn / W[..., None, None] - n[..., :, None] * (dW / W[..., None] ** 2)[..., None, :]
    c = np.stack([p, phi, q], axis=-1)
    dc = np.zeros(shape + (3, 2))
    dc[..., 0, 0] = 1.0
    dc[..., 2, 1] = 1.0
    dc[..., 1, :] = g1
    X = c + d[..., None] * nu
    dPhi = np.zeros(shape + (3, 3))
    for a, ia in enumerate(_TANGENT_IDX):
        dPhi[..., :, ia] = dc[..., :, a] + d[..., None] * dnu[..., :, a]
    dPhi[..., :, 1] = nu

    ddn = np.zeros(shape + (3, 2, 2))
    ddn[..., 0, :, :] = -g3[..., 0, :, :]
    ddn[..., 2, :, :] = -g3[..., 1, :, :]
    ddW = (
        np.einsum("...ca,...cb->...ab", dn, dn) + np.einsum("...c,...cab->...ab", n, ddn)
    ) / W[..., None, None] - n_dn[..., :, None] * n_dn[..., None, :] / (W**3)[..., None, None]
    ddnu = (
        ddn / W[..., None, None, None]
        - dn[..., :, None, :] * (dW / W[..., None] ** 2)[..., None, :, None]
        - dn[..., :, :, None] * (dW / W[..., None] ** 2)[..., None, None, :]
        - n[..., :, None, None] * (ddW / W[..., None, None] ** 2)[..., None, :, :]
        + 2.0
        * n[..., :, None, None]
        * (dW[..., :, None] * dW[..., None, :] / (W**3)[..., None, None])[..., None, :, :]
    )
    d2Phi = np.zeros(shape + (3, 3, 3))
    for a, ia in enumerate(_TANGENT_IDX):
        for b, ib in enumerate(_TANGENT_IDX):
            d2Phi[..., :, ia, ib] = d[..., None] * ddnu[..., :, a, b]
            d2Phi[..., 1, ia, ib] += g2[..., a, b]
        d2Phi[..., :, ia, 1] = dnu[..., :, a]
        d2Phi[..., :, 1, ia] = dnu[..., :, a]
    return X, dPhi, d2Phi


def ref_pullback(patch, Y):
    X, dPhi, d2Phi = ref_chart_frames(patch, Y)
    h = np.einsum("...ci,...cj->...ij", dPhi, dPhi)
    hinv = np.linalg.inv(h)
    Gamma = np.einsum("...kl,...cij,...cl->...kij", hinv, d2Phi, dPhi)
    return X, dPhi, h, Gamma


def ref_inv2x2(g):
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    if np.any(det <= 0.0):
        raise SingularMetricError("induced metric is degenerate")
    inv = np.empty_like(g)
    inv[..., 0, 0] = g[..., 1, 1]
    inv[..., 1, 1] = g[..., 0, 0]
    inv[..., 0, 1] = inv[..., 1, 0] = -g[..., 0, 1]
    return inv / det[..., None, None], det


def ref_grad_hess(U, h, half):
    """du and d2u stacked on trailing axes from the difference quotients."""
    (d1, d2), d2c = _derivative_planes(U, h, half)
    du = np.stack([d1, d2], axis=-1)
    d2u = np.empty(d1.shape + (2, 2))
    d2u[..., 0, 0] = d2c[0, 0]
    d2u[..., 0, 1] = d2u[..., 1, 0] = d2c[0, 1]
    d2u[..., 1, 1] = d2c[1, 1]
    return du, d2u


def ref_fundamental_forms(surface):
    U = surface.u
    du, d2u = ref_grad_hess(U, surface.h, surface.half)
    Y1, Y2 = np.meshgrid(surface.y1, surface.y2, indexing="ij")
    X, dPhi, hm, Gam = ref_pullback(surface.patch, np.stack([Y1, Y2, U], axis=-1))
    g = np.empty(U.shape + (2, 2))
    for i in range(2):
        for j in range(2):
            g[..., i, j] = (hm[..., i, j] + hm[..., i, 2] * du[..., j]
                            + hm[..., j, 2] * du[..., i]
                            + hm[..., 2, 2] * du[..., i] * du[..., j])
    Q = np.empty(U.shape + (2, 2))
    for i in range(2):
        for j in range(2):
            q = (Gam[..., 2, i, 2] * du[..., j] + Gam[..., 2, j, 2] * du[..., i]
                 + Gam[..., 2, 2, 2] * du[..., i] * du[..., j])
            for k in range(2):
                q = q - (Gam[..., k, i, j] * du[..., k]
                         + Gam[..., k, i, 2] * du[..., j] * du[..., k]
                         + Gam[..., k, j, 2] * du[..., i] * du[..., k]
                         + Gam[..., k, 2, 2] * du[..., i] * du[..., j] * du[..., k])
            Q[..., i, j] = q
    low = Gam[..., 2, :2, :2] + Q
    Tan = dPhi[..., :, :2] + dPhi[..., :, 2:3] * du[..., None, :]
    cross = np.cross(Tan[..., :, 0], Tan[..., :, 1])
    N = -cross / np.linalg.norm(cross, axis=-1, keepdims=True)
    A = np.einsum("...c,...c->...", dPhi[..., :, 2], N)[..., None, None] * (low + d2u)
    ginv, det = ref_inv2x2(g)
    GA = np.einsum("...ik,...kj->...ij", ginv, A)
    wcell = disk_cell_weights(surface.y1, surface.y2, surface.h, surface.r_dom, surface.half)
    return {"X": X, "N": N, "du": du, "d2u": d2u, "g": g, "ginv": ginv, "A": A,
            "H": np.einsum("...ij,...ij->...", ginv, A),
            "A2": np.einsum("...ij,...ji->...", GA, GA), "sqrtg": np.sqrt(det),
            "wcell": wcell, "dA": np.sqrt(det) * wcell,
            "coeff_f": np.einsum("...ij,...ij->...", ginv, low)}


def rel_err(got, want):
    # a field that is 0 in the reference (flat Gamma and f) must be 0 here too
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), np.finfo(float).tiny))


PATCHES = {
    "flat": SupportPatch.flat(),
    "paraboloid:0.5": SupportPatch.paraboloid(0.5, kappa=0.5, chart_radius=2.0),
    "sphere_cap:2": SupportPatch.sphere_cap(2.0),
    "paraboloid:0.5 rescaled by 0.5": SupportPatch.paraboloid(
        0.5, kappa=0.5, chart_radius=2.0).rescale(0.5),
}


def curved_surface(patch, half=True):
    return GraphSurface.from_height(lambda a, b: 0.1 * a + 0.05 * a**2 - 0.03 * b**2,
                                    patch, 1 / 32, 0.5, half=half)


# the half-disk cases keep the bare patch name as their id
@pytest.mark.parametrize("name, half", [
    pytest.param(name, half, id=name if half else f"{name} full disk")
    for half in (True, False) for name in sorted(PATCHES)])
def test_fundamental_forms_match_einsum_reference(name, half):
    s = curved_surface(PATCHES[name], half)
    got, want = fundamental_forms(s), ref_fundamental_forms(s)
    for f in FIELDS:
        assert getattr(got, f).shape == want[f].shape, f
        assert rel_err(getattr(got, f), want[f]) <= 1e-12, f
    assert np.array_equal(got.mask, want["wcell"] > 0)
    if name == "flat":
        assert np.all(got.coeff_f == 0.0)
    else:
        assert np.max(np.abs(got.coeff_f)) > 1e-3   # the lower-order term is exercised


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_pullback_metric_connection_matches_einsum_reference(name):
    patch = PATCHES[name]
    s = curved_surface(patch)
    Y = np.stack([*np.meshgrid(s.y1, s.y2, indexing="ij"), s.u], axis=-1)
    h, Gamma = pullback_metric_connection(patch, Y)
    _, _, h_ref, Gamma_ref = ref_pullback(patch, Y)
    assert h.shape == h_ref.shape and Gamma.shape == Gamma_ref.shape
    assert rel_err(h, h_ref) <= 1e-12
    assert rel_err(Gamma, Gamma_ref) <= 1e-12


def test_single_point_pullback_shapes():
    h, Gamma = pullback_metric_connection(PATCHES["sphere_cap:2"], np.array([0.1, 0.2, -0.3]))
    assert h.shape == (3, 3) and Gamma.shape == (3, 3, 3)
    assert np.allclose(h, h.T)


# A paraboloid of curvature a = 2 declared with kappa = 1/4: its focal line,
# distance 1/a = 0.5 above the axis, lies inside the declared chart radius 4.
OVERREACH = SupportPatch.paraboloid(2.0, kappa=0.25, chart_radius=4.0)


def test_metric_connection_singular_at_focal_point():
    frames = chart_frames(OVERREACH, np.array([0.0, 0.5, 0.0]))
    with pytest.raises(SingularMetricError):
        metric_connection(frames)


def test_fundamental_forms_singular_metric_raises():
    s = GraphSurface.zero(OVERREACH, 1 / 32, 0.5)   # node (0, 0.5) is the focal point
    with pytest.raises(SingularMetricError):
        fundamental_forms(s)


def test_cli_singular_metric_is_numerical_abort(tmp_path, capsys):
    path = tmp_path / "overreach.yaml"
    path.write_text(
        "name: overreach\n"
        "patch:\n  phi: paraboloid:2\n  kappa: 0.25\n  chart_radius: 4.0\n"
        "initial:\n  kind: zero\n"
        "grid:\n  h: 0.03125\n  r_dom: 0.5\n"
        "flow:\n  t_end: 0.001\n  outer_bc: frozen\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numerical abort" in capsys.readouterr().err


def test_singular_metric_at_start_keeps_cause(tmp_path):
    traj = run(GraphSurface.zero(OVERREACH, 1 / 32, 0.5), FlowConfig(t_end=0.001, outer_bc="frozen"))
    assert isinstance(traj.error, SingularMetricError)
    assert traj.stop_reason == f"SingularMetricError: {traj.error}"
    assert traj.snapshots == []   # the initial surface has no geometry to write out

    path = tmp_path / "overreach.yaml"
    path.write_text(
        "patch:\n  phi: paraboloid:2\n  kappa: 0.25\n  chart_radius: 4.0\n"
        "grid:\n  h: 0.03125\n  r_dom: 0.5\n"
        "flow:\n  t_end: 0.001\n  outer_bc: frozen\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 3
    for name in ("manifest.json", "trajectory.json"):
        with open(out / name) as fh:
            assert json.load(fh)["stop_reason"] == traj.stop_reason, name
    # nothing to rescale: a validation error, not a crash
    assert main(["rescale", str(out), "--terminal-time", "0.01"]) == 2
