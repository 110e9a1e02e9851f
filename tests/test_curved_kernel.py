"""The component-first geometry kernel against the einsum implementation it replaced.

The reference below is the earlier trailing-axis code: profile derivatives up
to D^3 phi stacked on the last axes, the generic `chart_frames` that builds nu
and its derivatives from them, the pull-back metric and its connection through
`np.einsum`, `np.linalg.inv` on the 3x3 pull-back metric, the 2x2 inverse on
trailing axes, and the `Q` triple loop of `fundamental_forms`.  The flat
support runs through the same reference with a zero profile.  The same
derivatives, sampled on a lattice, are the oracle of each profile's
closed-form kappa-graph bounds.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from fbmcf import geometry
from fbmcf.cli import main
from fbmcf.errors import ChartRangeError, SingularMetricError
from fbmcf.flow import FlowConfig, run
from fbmcf.geometry import (
    GraphSurface,
    _contract,
    _derivative_planes,
    disk_cell_weights,
    fundamental_forms,
)
from fbmcf.support import (
    FlatProfile,
    ParaboloidProfile,
    SphereCapProfile,
    SupportPatch,
    chart_frames,
    components,
)

_TANGENT_IDX = (0, 2)
FIELDS = ("X", "N", "du", "d2u", "g", "ginv", "A", "H", "A2", "sqrtg", "dA", "coeff_f")


def ref_derivs(profile, p, q):
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


def ref_grad_hess(U, h):
    """du and d2u stacked on trailing axes from the difference quotients."""
    (d1, d2), d2c = _derivative_planes(U, h)
    du = np.stack([d1, d2], axis=-1)
    d2u = np.empty(d1.shape + (2, 2))
    d2u[..., 0, 0] = d2c[0, 0]
    d2u[..., 0, 1] = d2u[..., 1, 0] = d2c[0, 1]
    d2u[..., 1, 1] = d2c[1, 1]
    return du, d2u


def ref_fundamental_forms(surface):
    U = surface.u
    du, d2u = ref_grad_hess(U, surface.h)
    Y1, Y2 = surface.grid.nodes
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
    wcell = disk_cell_weights(Y1[:, 0], Y2[0], surface.h, surface.r_dom)
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
    "sphere_cap:2 rescaled by 0.5": SupportPatch.sphere_cap(2.0).rescale(0.5),
}


def curved_surface(patch, h=1 / 32):
    return GraphSurface.from_height(lambda a, b: 0.1 * a + 0.05 * a**2 - 0.03 * b**2,
                                    patch, h, 0.5)


def grid_coords(s):
    """Chart coordinates (y1, y2, y3) of every node, each of the full (n1, n2) shape."""
    return (*s.grid.nodes, s.u)


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_profile_chart_matches_generic_reference(name):
    # each profile's closed-form chart, on the grid's axes as the kernel calls it,
    # against the generic chart built from D^3 phi; only the paraboloid, whose cylinder
    # chart's cross section reads it, has d2Phi, with the pairs (0, 0) and (0, 1) only
    s = curved_surface(PATCHES[name])
    X, dPhi, d2Phi = ref_chart_frames(s.patch, np.stack(grid_coords(s), axis=-1))
    fr = chart_frames(s.patch, s.grid.y1[:, None], s.grid.y2[None, :], s.u)
    assert rel_err(fr["X"], X) <= 1e-15
    assert rel_err(fr["dPhi"], dPhi) <= 1e-15
    assert rel_err(np.broadcast_to(fr["nu"], X.shape), dPhi[..., 1]) <= 1e-15
    pairs = fr.get("d2Phi", {})
    assert sorted(pairs) == ([(0, 0), (0, 1)] if name.startswith("paraboloid") else [])
    for (i, j), pair in pairs.items():
        got = np.stack([np.broadcast_to(c, s.u.shape) for c in pair], axis=-1)
        assert rel_err(got, d2Phi[..., i, j]) <= 1e-15, (i, j)


def derivative_samples(profile, p, q):
    """|D^2 phi|, |D^3 phi|, D^3 phi and H from ref_derivs at the points (p, q).

    |D^2 phi| is the Hessian's spectral norm, |D^3 phi| the largest entry of
    D^3 phi, and H the graph's mean curvature with respect to the inward normal.
    """
    _, g1, g2, g3 = ref_derivs(profile, p, q)
    third = g3.reshape(len(p), -1)
    W2 = 1.0 + np.sum(g1**2, axis=-1)
    H = ((1.0 + g1[:, 1] ** 2) * g2[:, 0, 0] - 2.0 * g1[:, 0] * g1[:, 1] * g2[:, 0, 1]
         + (1.0 + g1[:, 0] ** 2) * g2[:, 1, 1]) / W2**1.5
    return np.linalg.norm(g2, ord=2, axis=(-2, -1)), np.max(np.abs(third), axis=-1), third, H


def lattice_samples(profile, rho, n=33):
    """derivative_samples at the points of an n x n lattice strictly inside the
    disk of radius rho, with the Lipschitz quotients of D^3 phi in place of D^3 phi.

    Each point is paired with a strided subset of the points, and a quotient
    is the largest entry of the change of D^3 phi over the distance.
    """
    ax = np.linspace(-rho, rho, n)
    P, Q = np.meshgrid(ax, ax, indexing="ij")
    inside = P**2 + Q**2 < rho**2 * (1.0 - 1e-12)
    p, q = P[inside], Q[inside]
    hess, third, D3, H = derivative_samples(profile, p, q)
    sub = slice(None, None, max(1, len(p) // 200))
    pts = np.stack([p, q], axis=-1)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, sub, :], axis=-1)
    change = np.max(np.abs(D3[:, None, :] - D3[None, sub, :]), axis=-1)
    return hess, third, change[dist > 0] / dist[dist > 0], H


BASES = st.one_of(st.just(FlatProfile()),
                  st.builds(ParaboloidProfile, st.floats(-4.0, 4.0)),
                  st.builds(SphereCapProfile, st.floats(0.25, 20.0)))


@settings(max_examples=40, deadline=None)
@given(base=BASES, lam=st.none() | st.floats(0.25, 4.0), frac=st.floats(0.02, 0.95))
def test_closed_form_bounds_hold_on_the_lattice(base, lam, frac):
    # rho reaches a fraction of the way to a sphere cap's equator
    profile = base if lam is None else base.rescale(lam)
    rho = frac * getattr(base, "R", 4.0) / (lam or 1.0)
    b2, b3, b4, inf_H = profile.bounds(rho)
    hess, third, lip, H = lattice_samples(profile, rho)
    tol = 1.0 + 1e-12
    assert np.max(hess) <= b2 * tol and np.max(third) <= b3 * tol and np.max(lip) <= b4 * tol
    assert inf_H <= np.min(H) + 1e-12 * np.max(np.abs(H))
    # each bound is reached: |D^2 phi| and |D^3 phi| at the rim point (rho, 0),
    # Lip D^3 phi as the radial difference quotient there, H there or at the base point
    p = np.array([rho, rho * (1.0 - 1e-7), 0.0])
    hess, third, D3, H = derivative_samples(profile, p, np.zeros(3))
    assert np.isclose(hess[0], b2, rtol=1e-12, atol=0.0)
    assert np.isclose(third[0], b3, rtol=1e-12, atol=0.0)
    assert np.isclose(np.max(np.abs(D3[0] - D3[1])) / (p[0] - p[1]), b4, rtol=1e-4, atol=0.0)
    assert np.isclose(min(H[0], H[2]), inf_H, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(PATCHES))
def test_fundamental_forms_match_einsum_reference(name):
    s = curved_surface(PATCHES[name])
    got, want = fundamental_forms(s), ref_fundamental_forms(s)
    for f in FIELDS:
        assert getattr(got, f).shape == want[f].shape, f
        assert rel_err(getattr(got, f), want[f]) <= 1e-12, f
    assert np.array_equal(got.mask, want["wcell"] > 0)
    if name == "flat":
        assert np.all(got.coeff_f == 0.0)
    else:
        assert np.max(np.abs(got.coeff_f)) > 1e-3   # the lower-order term is exercised


OPERATOR_PATCHES = ["flat", "paraboloid:0.5", "sphere_cap:2", "sphere_cap:2 rescaled by 0.5"]


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("name", OPERATOR_PATCHES)
def test_operator_is_the_kernels_right_hand_side(name, n):
    # the operator half gives L = g^ij D2_ij u + f and max eig(g^ij) bit for bit as the
    # whole kernel does, on a surface without a geometry and on one that holds it
    s = curved_surface(fresh(PATCHES[name]), 1 / n)
    L, ginv_max = s.operator()
    g = fundamental_forms(s)
    want = _contract(components(g.ginv, 2), components(g.d2u, 2)) + g.coeff_f
    assert np.array_equal(L, want) and ginv_max == g.ginv_max
    s.geometry()
    held, held_max = s.operator()
    assert np.array_equal(held, want) and held_max == g.ginv_max
    ref = ref_fundamental_forms(s)
    assert rel_err(L, np.einsum("...ij,...ij->...", ref["ginv"], ref["d2u"]) + ref["coeff_f"]) <= 1e-12


def raised(fn, *args):
    """The exception fn(*args) raises, or None."""
    try:
        fn(*args)
    except Exception as err:   # noqa: BLE001 -- compared by class and message below
        return err
    return None


@pytest.mark.parametrize("case", ["trough memo", "sphere cap", "flat corners", "degenerate",
                                  "folded"])
def test_operator_raises_what_the_kernel_raises(case):
    # the operator half keeps every check of the kernel: the chart range, with its
    # message, a degenerate metric and a folded cylinder chart
    if case == "trough memo":
        s = GraphSurface.zero(fresh(PATCHES["paraboloid:0.5"]), 1 / 32, 0.5)
        fundamental_forms(s)   # the section is kept; the range is checked on every call
        s, kind = s.with_height(np.full(s.u.shape, 1.9)), ChartRangeError
    elif case == "sphere cap":
        s = GraphSurface.from_height(lambda a, b: np.full(a.shape, 1.7),
                                     fresh(PATCHES["sphere_cap:2"]), 1 / 32, 0.5)
        kind = ChartRangeError
    elif case == "flat corners":
        s, kind = GraphSurface.zero(SupportPatch.flat(chart_radius=0.6), 1 / 16, 0.5), ChartRangeError
    else:
        s = (GraphSurface.zero(OVERREACH, 1 / 32, 0.5) if case == "degenerate"
             else GraphSurface.zero(OVERREACH, 0.03, 0.75))
        kind = SingularMetricError
    err, kernel_err = raised(GraphSurface.operator, s), raised(fundamental_forms, s)
    assert type(err) is type(kernel_err) is kind
    assert str(err) == str(kernel_err)
    if kind is SingularMetricError:
        assert ("degenerate" if case == "degenerate" else "folded") in str(err)


@pytest.mark.parametrize("R", [2.0, 4.0])
def test_sphere_cap_fold_check_cannot_fire(R):
    # det dPhi = t^2 R / w > 0 on the sphere cap's chart, so N . dPhi_2 =
    # -t^2 R / (w |T_0 x T_1|) < 0 at every node of random admissible heights: the
    # kernel's fold check guards a sign that the chart never takes
    patch = SupportPatch.from_spec(f"sphere_cap:{R:g}")
    rng = np.random.default_rng(int(R))
    for _ in range(6):
        c = rng.uniform(-1.0, 1.0, 6) * (0.5, 0.4, 0.4, 0.5, 0.5, 0.5)
        s = GraphSurface.from_height(
            lambda a, b: (c[0] + c[1] * a + c[2] * b + c[3] * a * a + c[4] * a * b + c[5] * b * b
                          + 0.01 * rng.uniform(-1.0, 1.0, a.shape)), patch, 1 / 32, 0.5)
        block = np.empty((29,) + s.u.shape)
        det, _, normal = geometry._operator(s, block)
        phi3N, _ = normal(*np.split(block[geometry._OPERATOR_PLANES:][:6], 2))
        y1, y2 = s.grid.nodes
        t, w = 1.0 - y2 / R, np.sqrt(R * R - y1 * y1 - s.u * s.u)
        assert np.all(phi3N < 0.0)
        assert rel_err(phi3N, -t * t * R / (w * np.sqrt(det))) <= 1e-14


@pytest.mark.parametrize("name", [name for name in sorted(PATCHES) if name.startswith("paraboloid")])
def test_grid_axes_chart_matches_point_cloud_chart(name, monkeypatch):
    # fundamental_forms hands the chart the static axes as (n1, 1) and (1, n2)
    # arrays; the same kernel fed a chart evaluated at the full (n1, n2, 3)
    # node cloud must give every field bit for bit
    s = curved_surface(fresh(PATCHES[name]))
    got = fundamental_forms(s)
    Y = np.stack(grid_coords(s), axis=-1)
    calls = []

    def point_cloud(patch, y1, y2, y3, order=2):
        assert np.array_equal(np.broadcast_to(y3, Y.shape[:-1]), Y[..., 2])
        calls.append(patch)
        return chart_frames(patch, Y[..., 0], Y[..., 1], Y[..., 2], order=order)

    monkeypatch.setattr(geometry, "chart_frames", point_cloud)
    want = fundamental_forms(with_patch(s, fresh(s.patch)))   # no memo to read
    assert len(calls) == 1
    for f in FIELDS:
        assert getattr(got, f).shape == getattr(want, f).shape, f
        assert np.array_equal(getattr(got, f), getattr(want, f)), f


def fresh(patch):
    """A copy of patch with the same profile and an empty chart memo."""
    return dataclasses.replace(patch)


def with_patch(s, patch):
    return GraphSurface(patch, s.h, s.r_dom, s.u, s.t)


def bit_equal(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def counting_chart(monkeypatch):
    """Record each chart evaluation of fundamental_forms."""
    calls = []

    def chart(patch, y1, y2, y3, order=2):
        calls.append(patch)
        return chart_frames(patch, y1, y2, y3, order=order)

    monkeypatch.setattr(geometry, "chart_frames", chart)
    return calls


RUN_PATCHES = {**PATCHES,
               "paraboloid:1": SupportPatch.paraboloid(1.0, kappa=1.0, chart_radius=1.0),
               "paraboloid:0.5 tilted plane": PATCHES["paraboloid:0.5"]}


@pytest.mark.parametrize("name", ["paraboloid:0.5", "paraboloid:0.5 rescaled by 0.5",
                                  "flat", "paraboloid:1", "paraboloid:0.5 tilted plane",
                                  "sphere_cap:2", "sphere_cap:2 rescaled by 0.5"])
def test_chart_memo_matches_fresh_chart_over_a_run(name):
    # the section kept per grid, or the flat grid's own, against a section built
    # afresh on a fresh patch for each snapshot, bit for bit, and against the einsum
    # reference; the tilted plane starts with D2 u = 0, and the sphere cap keeps nothing
    patch = fresh(RUN_PATCHES[name])
    initial = curved_surface(patch)
    if name.endswith("tilted plane"):
        initial = initial.with_height(0.1 * initial.grid.nodes[0])
    traj = run(initial, FlowConfig(t_end=0.005))
    assert traj.stop_reason == "completed" and len(traj.snapshots) > 5
    kept = name.startswith("paraboloid")
    assert list(patch.chart_memo) == ([(1 / 32, 0.5)] if kept else [])
    for s in traj.snapshots:
        reference = fresh(patch)
        got, want = s.geometry(), fundamental_forms(with_patch(s, reference))
        assert list(reference.chart_memo) == list(patch.chart_memo)
        for f in FIELDS + ("mask",):
            assert bit_equal(getattr(got, f), getattr(want, f)), (s.t, f)
        ref = ref_fundamental_forms(s)
        for f in FIELDS:
            assert rel_err(getattr(got, f), ref[f]) <= 1e-12, (s.t, f)


CYLINDER_CASES = {phi: (phi, 1.0) for phi in ("flat", "paraboloid:0.5", "paraboloid:2",
                                               "sphere_cap:2")}
CYLINDER_CASES.update({f"{phi} rescaled by {lam:g}": (phi, lam) for phi, lam in (
    ("flat", 2.0), ("paraboloid:0.5", 0.25), ("sphere_cap:2", 0.5))})


@pytest.mark.parametrize("name", list(CYLINDER_CASES))
def test_cylinder_charts_are_the_profiles_that_ignore_y3(name):
    # a profile whose nu lies on the y1 axis has dPhi_2 = e3 on the grid's axes: the
    # section's chart Phi = (psi(y1, y2), y3); the sphere cap has its own front half
    phi, lam = CYLINDER_CASES[name]
    s = GraphSurface.from_height(lambda a, b: 0.1 * a - 0.2 * b**2,
                                 SupportPatch.from_spec(phi).rescale(lam), 1 / 32, 0.25)
    fr = chart_frames(s.patch, s.grid.y1[:, None], s.grid.y2[None, :], s.u)
    on_y1_axis = fr["nu"].shape == (len(s.grid.y1), 1, 3)
    e3 = np.array_equal(fr["dPhi"][..., :, 2], np.broadcast_to([0.0, 0.0, 1.0], s.u.shape + (3,)))
    assert on_y1_axis is e3 is (not phi.startswith("sphere_cap"))


@pytest.mark.parametrize("name", ["paraboloid:0.5", "sphere_cap:2"])
def test_chart_frames_calls_per_run(name, monkeypatch):
    # the trough's chart is evaluated once per run and kept; the sphere cap's kernel
    # is in closed form, so its chart is never evaluated and nothing is kept
    calls = counting_chart(monkeypatch)
    patch = fresh(PATCHES[name])
    traj = run(curved_surface(patch), FlowConfig(t_end=0.005))
    steps = len(traj.monitors["t"]) - 1
    assert traj.stop_reason == "completed" and steps > 5
    kept = 0 if name == "sphere_cap:2" else 1
    assert len(calls) == kept and len(patch.chart_memo) == kept


def test_chart_memo_keeps_the_range_check():
    patch = fresh(PATCHES["paraboloid:0.5"])   # chart radius 2
    s = GraphSurface.zero(patch, 1 / 32, 0.5)
    fundamental_forms(s)
    assert len(patch.chart_memo) == 1
    high = s.with_height(np.full(s.u.shape, 1.9))   # the corner nodes lie at |Y| = 2.03
    r = np.max(np.linalg.norm(np.stack(grid_coords(high), axis=-1), axis=-1))
    with pytest.raises(ChartRangeError, match=re.escape(f"chart point |Y| = {r:g} outside radius 2")):
        fundamental_forms(high)


def test_sphere_cap_kernel_keeps_the_range_check():
    patch = fresh(PATCHES["sphere_cap:2"])   # chart radius 1.8
    high = GraphSurface.from_height(lambda a, b: np.full(a.shape, 1.7), patch, 1 / 32, 0.5)
    r = np.max(np.linalg.norm(np.stack(grid_coords(high), axis=-1), axis=-1))   # 1.84
    with pytest.raises(ChartRangeError, match=re.escape(f"chart point |Y| = {r:g} outside radius 1.8")):
        fundamental_forms(high)


def orthogonal_cap(R, r, h, r_dom):
    """The sphere of radius r about c = (0, R - D, 0), D = sqrt(R^2 + r^2), which meets the
    support `sphere_cap:R` orthogonally, as heights in its chart, and c.  With
    X = C + t (S - C), t = 1 - y2/R and S = (y1, R - w, u), |X - c| = r reduces to
    w = R^2 (1 + t^2) / (2 t D), and the height is u = sqrt(R^2 - y1^2 - w^2)."""
    D = np.hypot(R, r)

    def height(y1, y2):
        t = 1.0 - y2 / R
        w = R * R * (1.0 + t * t) / (2.0 * t * D)
        return np.sqrt(R * R - y1 * y1 - w * w)

    return (GraphSurface.from_height(height, SupportPatch.sphere_cap(R), h, r_dom),
            np.array([0.0, R - D, 0.0]))


@pytest.mark.parametrize("r, r_dom", [(0.5, 0.25), (1.0, 0.5)])
def test_orthogonal_cap_on_a_sphere_support(r, r_dom):
    # H = 2/r and |A|^2 = 2/r^2 converge at second order off the free edge, whose row
    # is first order, and off the rim
    errors = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        s, c = orthogonal_cap(2.0, r, h, r_dom)
        g = s.geometry()
        assert np.max(np.abs(np.linalg.norm(g.X - c, axis=-1) - r)) <= 1e-14
        Y1, Y2 = s.grid.nodes
        inner = (Y2 > 0.0) & (np.hypot(Y1, Y2) <= 0.5 * r_dom)
        errors.append([np.max(np.abs(g.H[inner] - 2.0 / r)),
                       np.max(np.abs(g.A2[inner] - 2.0 / r**2))])
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.0 <= ratios) & (ratios <= 5.0)), ratios


def test_trough_profile_evaluated_on_the_y1_axis(monkeypatch):
    # the trough's profile depends on y1 alone, so one step costs O(n1) profile work
    patch = SupportPatch.paraboloid(0.5, kappa=0.5, chart_radius=2.0)
    s = curved_surface(patch)
    chart, shapes = patch.profile.chart, []

    def recording(p, d, q, order=2):
        shapes.append(np.shape(p))
        return chart(p, d, q, order)

    monkeypatch.setattr(patch.profile, "chart", recording)
    fundamental_forms(s)
    assert shapes == [(s.u.shape[0], 1)]


def test_broadcast_chart_point_out_of_range():
    patch = PATCHES["paraboloid:0.5"]   # chart radius 2
    y1, y2 = np.linspace(-1.5, 1.5, 7)[:, None], np.linspace(0.0, 1.5, 4)[None, :]
    y3 = np.full((7, 4), 0.3)
    r = np.max(np.linalg.norm(np.stack(np.broadcast_arrays(y1, y2, y3), axis=-1), axis=-1))
    message = f"chart point |Y| = {r:g} outside radius 2"
    with pytest.raises(ChartRangeError, match=re.escape(message)):
        chart_frames(patch, y1, y2, y3)
    s = GraphSurface.zero(patch, 0.25, 1.5)   # the corner nodes lie at |Y| = 2.12
    Y = np.stack(grid_coords(s), axis=-1)
    r = np.max(np.linalg.norm(Y, axis=-1))
    with pytest.raises(ChartRangeError, match=re.escape(f"|Y| = {r:g} outside radius 2")):
        fundamental_forms(s)


class UncheckedPatch(SupportPatch):
    """A patch that skips the construction checks, to reach past a focal line."""

    def __post_init__(self):
        pass


# A paraboloid of curvature a = 2 declared with kappa = 1/4, which SupportPatch
# refuses: its focal line, distance 1/a = 0.5 above the axis, lies inside the
# declared chart radius 4.
OVERREACH = UncheckedPatch.paraboloid(2.0, kappa=0.25, chart_radius=4.0)


def test_fundamental_forms_singular_metric_raises():
    s = GraphSurface.zero(OVERREACH, 1 / 32, 0.5)   # node (0, 0.5) is the focal point
    with pytest.raises(SingularMetricError):
        fundamental_forms(s)


def test_chart_past_focal_line_raises():
    # nodes at y2 > 0.5 lie past the focal line and none sits on it, so det g > 0
    # everywhere and only the sign of N . dPhi_2 shows that the chart is folded
    s = GraphSurface.zero(OVERREACH, 0.03, 0.75)
    det = np.linalg.det(chart_frames(OVERREACH, *grid_coords(s))["dPhi"])
    assert np.min(det) < 0.0 and np.min(np.abs(det)) > 1e-4
    with pytest.raises(SingularMetricError):
        fundamental_forms(s)
    traj = run(s, FlowConfig(t_end=0.001, outer_bc="frozen"))
    assert isinstance(traj.error, SingularMetricError)
    assert traj.stop_reason == f"SingularMetricError: {traj.error}"


@pytest.mark.parametrize("name", sorted(n for n in PATCHES if n != "flat"))
def test_chart_determinant_identity(name):
    # det dPhi = -|T_0 x T_1| (N . dPhi_2), on which the folded-chart test rests
    s = curved_surface(PATCHES[name])
    g = fundamental_forms(s)
    dPhi = chart_frames(s.patch, *grid_coords(s))["dPhi"]
    want = -g.sqrtg * np.einsum("...c,...c->...", dPhi[..., :, 2], g.N)
    assert rel_err(np.linalg.det(dPhi), want) <= 1e-12


# A paraboloid of curvature 2 with chart radius 1/2 under r_dom = 1/2: the grid
# nodes at |Y| >= 0.5 lie on or past the chart radius, so the chart refuses them.
SHORT_CHART = ("patch:\n  phi: paraboloid:2\n  chart_radius: 0.5\n"
               "grid:\n  h: 0.03125\n  r_dom: 0.5\n"
               "flow:\n  t_end: 0.001\n  outer_bc: frozen\n")


def test_cli_singular_metric_is_numerical_abort(tmp_path, capsys):
    # a scenario cannot declare OVERREACH's kappa (SupportPatch refuses it), so the
    # CLI half checks that a chart-range abort is a numerical abort too
    path = tmp_path / "short_chart.yaml"
    path.write_text("name: short-chart\n" + SHORT_CHART)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err and "outside radius 0.5" in err


def test_singular_metric_at_start_keeps_cause(tmp_path):
    traj = run(GraphSurface.zero(OVERREACH, 1 / 32, 0.5), FlowConfig(t_end=0.001, outer_bc="frozen"))
    assert isinstance(traj.error, SingularMetricError)
    assert traj.stop_reason == f"SingularMetricError: {traj.error}"
    assert traj.snapshots == []   # the initial surface has no geometry to write out

    # the CLI half: a chart-range abort at the start keeps its cause on disk
    short = run(GraphSurface.zero(SupportPatch.from_spec("paraboloid:2", chart_radius=0.5),
                                  1 / 32, 0.5), FlowConfig(t_end=0.001, outer_bc="frozen"))
    assert isinstance(short.error, ChartRangeError) and short.snapshots == []
    path = tmp_path / "short_chart.yaml"
    path.write_text(SHORT_CHART)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 3
    for name in ("manifest.json", "trajectory.json"):
        with open(out / name) as fh:
            assert json.load(fh)["stop_reason"] == short.stop_reason, name
    # nothing to rescale: a validation error, not a crash
    assert main(["rescale", str(out), "--terminal-time", "0.01"]) == 2
