import numpy as np
import pytest

from fbmcf.errors import ChartRangeError, PatchFieldError
from fbmcf.support import (
    SupportPatch,
    chart_coords,
    chart_frames,
    components,
    in_complementary_ball,
    project_and_distance,
    reflect,
    signed_distance,
    tubular_map,
    verify_kappa_condition,
)


@pytest.fixture(scope="module")
def flat():
    return SupportPatch.flat()


@pytest.fixture(scope="module")
def parab():
    return SupportPatch.paraboloid(1.0)


@pytest.fixture(scope="module")
def cap():
    return SupportPatch.sphere_cap(2.0, kappa=1.0, chart_radius=0.5)


def test_tubular_map_flat_identity(flat):
    Y = np.array([0.3, 0.2, -0.1])
    assert np.allclose(tubular_map(flat, Y), Y)


def test_flat_chart_is_the_identity_bit_for_bit(flat):
    # the flat patch runs through the generic chart, whose Newton inversion returns
    # at its first evaluation
    X = np.random.default_rng(3).uniform(-5.0, 5.0, size=(40, 3))
    for got, want in ((tubular_map(flat, X), X), (chart_coords(flat, X), X),
                      (signed_distance(flat, X), X[:, 1]),
                      (reflect(flat, X), X * np.array([1.0, -1.0, 1.0]))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fn", [chart_coords, signed_distance, reflect])
def test_flat_chart_refuses_a_point_at_its_radius(flat, fn):
    # tubular_map's own case is test_tubular_map_range_error
    with pytest.raises(ChartRangeError, match="outside radius 10"):
        fn(flat, np.array([[1.0, 0.5, 0.0], [6.0, 8.0, 0.0]]))   # |X| = 10


def test_tubular_map_paraboloid_vertex(parab):
    # phi = y1^2/2 lifts (1, 0, 0) onto the surface point (1, 0.5, 0)
    X = tubular_map(parab, [1.0 - 1e-9, 0.0, 0.0])
    assert np.allclose(X, [1.0, 0.5, 0.0], atol=1e-6)


def test_tubular_map_base_normal(parab):
    assert np.allclose(tubular_map(parab, [0.0, 0.5, 0.0]), [0.0, 0.5, 0.0])


def test_tubular_map_range_error(flat):
    with pytest.raises(ChartRangeError):
        tubular_map(flat, [11.0, 0.0, 0.0])


def test_project_flat(flat):
    proj, d, grad = project_and_distance(flat, np.array([1.0, 0.7, 2.0]))
    assert np.allclose(proj, [1.0, 0.0, 2.0])
    assert abs(d - 0.7) < 1e-12
    assert np.allclose(grad, [0.0, 1.0, 0.0])


def test_project_round_trip(parab):
    X = tubular_map(parab, [0.4, 0.3, 0.0])
    _, d, _ = project_and_distance(parab, X)
    assert abs(d - 0.3) < 1e-10


def test_project_fixed_point(parab):
    X = tubular_map(parab, [0.4, 0.0, 0.1])
    proj, d, _ = project_and_distance(parab, X)
    assert np.allclose(proj, X, atol=1e-10)
    assert abs(d) < 1e-10


def test_reflect_flat(flat):
    assert np.allclose(reflect(flat, np.array([1.0, 0.7, 2.0])), [1.0, -0.7, 2.0])


def test_reflect_chart_commutation(parab):
    X = tubular_map(parab, [0.4, 0.3, 0.0])
    assert np.allclose(reflect(parab, X), tubular_map(parab, [0.4, -0.3, 0.0]),
                       atol=1e-9)


def test_reflect_involution(parab):
    rng = np.random.default_rng(1)
    Y = rng.uniform(-0.3, 0.3, size=(20, 3))
    X = tubular_map(parab, Y)
    assert np.max(np.abs(reflect(parab, reflect(parab, X)) - X)) < 1e-9


def test_reflect_surface_fixed(parab):
    X = tubular_map(parab, [0.3, 0.0, -0.2])
    assert np.allclose(reflect(parab, X), X, atol=1e-10)


def test_complementary_ball_contained(flat):
    # B_r(P) inside the domain: the complementary ball is empty
    P = np.array([0.0, 0.5, 0.0])
    X = np.array([[0.0, 0.4, 0.0], [0.0, 0.6, 0.0], [0.1, 0.5, 0.0]])
    assert not np.any(in_complementary_ball(flat, P, 0.3, X))


def test_complementary_ball_hit(flat):
    P = np.array([0.0, 0.2, 0.0])
    assert in_complementary_ball(flat, P, 0.5, np.array([0.0, 0.1, 0.0]))


def test_complementary_ball_outside_domain(flat):
    P = np.array([0.0, 0.2, 0.0])
    assert not in_complementary_ball(flat, P, 0.5, np.array([0.0, -0.1, 0.0]))


def pullback(patch, Y):
    """The pull-back metric h_ij = dPhi_i . dPhi_j at the chart points Y (..., 3)."""
    dPhi = chart_frames(patch, *components(np.asarray(Y, dtype=float), 1), order=1)["dPhi"]
    return np.einsum("...ci,...cj->...ij", dPhi, dPhi)


def test_pullback_flat(flat):
    assert np.array_equal(pullback(flat, np.array([0.3, 0.2, -0.1])), np.eye(3))


def test_pullback_paraboloid_h11(parab):
    h = pullback(parab, np.array([0.2, 0.0, 0.0]))
    assert abs(h[0, 0] - 1.04) < 1e-12


def test_metric_normalization(cap):
    # h_22 = 1 and h_12 = h_32 = 0: the distance direction is orthonormal
    rng = np.random.default_rng(2)
    Y = rng.uniform(-0.2, 0.2, size=(30, 3))
    h = pullback(cap, Y)
    assert np.max(np.abs(h[:, 1, 1] - 1.0)) < 1e-9
    assert np.max(np.abs(h[:, 0, 1])) < 1e-9
    assert np.max(np.abs(h[:, 2, 1])) < 1e-9


def test_scaling_commutes(cap):
    lam = 2.5
    scaled = cap.rescale(lam)
    assert abs(scaled.kappa - lam * cap.kappa) < 1e-14
    Y = np.array([0.2, 0.1, -0.1])
    X = tubular_map(cap, Y)
    assert np.allclose(tubular_map(scaled, Y / lam), X / lam, atol=1e-9)


def test_chart_coords_inverse(cap):
    Y = np.array([0.15, 0.1, 0.2])
    X = tubular_map(cap, Y)
    assert np.allclose(chart_coords(cap, X), Y, atol=1e-10)


def test_kappa_condition_flat(flat):
    assert verify_kappa_condition(flat).passed


class UncheckedPatch(SupportPatch):
    """A patch that skips the construction checks, to declare too small a kappa."""

    def __post_init__(self):
        pass


def test_kappa_condition_fail():
    # |Hess phi| = 1 exceeds the declared kappa = 0.5, which SupportPatch refuses
    patch = UncheckedPatch.paraboloid(1.0, kappa=0.5, chart_radius=1.0)
    rep = verify_kappa_condition(patch)
    assert not rep.passed
    assert rep.max_hess > 0.5


def test_kappa_condition_sphere_cap(cap):
    rep = verify_kappa_condition(cap)
    assert rep.passed
    assert rep.min_mean_curvature > 0.0


def test_sphere_cap_defaults_fail_the_kappa_condition():
    # kappa 0.5 and chart radius 1.8: the exact sups at the rim, w = sqrt(4 - 1.8^2)
    rep = verify_kappa_condition(SupportPatch.sphere_cap(2.0))
    assert (round(rep.max_hess, 2), round(rep.max_third, 1), round(rep.lipschitz_third)) == (
        6.04, 42.9, 532)
    assert rep.min_mean_curvature == 1.0 and not rep.passed


def test_sphere_cap_chart_disk_reaching_the_equator_fails():
    # chart radius R = 1/kappa: the cap's graph ends at the rim, where D^2 phi blows up
    rep = verify_kappa_condition(SupportPatch.sphere_cap(2.0, kappa=0.5, chart_radius=2.0))
    assert rep.max_hess == rep.max_third == rep.lipschitz_third == np.inf
    assert not rep.passed


@pytest.mark.parametrize("kappa_R, passed", [(2.2195, False), (2.2574, True)])
@pytest.mark.parametrize("R", [0.5, 2.0, 20.0])
def test_sphere_cap_passes_from_kappa_R_2_2574(R, kappa_R, passed):
    # with chart radius 1/kappa the bounds depend on kappa R alone; Lip D^3 phi binds
    rep = verify_kappa_condition(SupportPatch.sphere_cap(R, kappa=kappa_R / R,
                                                         chart_radius=R / kappa_R))
    assert rep.passed is passed
    assert (rep.lipschitz_third <= rep.kappa**3) is passed
    assert rep.max_hess < rep.kappa and rep.max_third < rep.kappa**2


@pytest.mark.parametrize("phi", ["paraboloid:0.5", "sphere_cap:2"])
def test_curved_patch_refuses_kappa_zero(phi):
    # a scenario's `kappa: 0` reaches from_spec as it is; no default radius 1/0
    with pytest.raises(ValueError, match="only admitted for flat"):
        SupportPatch.from_spec(phi, kappa=0.0)


@pytest.mark.parametrize("phi,kappa,curvature", [("paraboloid:2", 0.25, 2.0),
                                                 ("sphere_cap:2", 0.4, 0.5)])
def test_from_spec_refuses_kappa_below_curvature(phi, kappa, curvature):
    # the support's focal line, at distance 1/curvature, would lie inside 1/kappa
    with pytest.raises(PatchFieldError, match="kappa must be >=") as exc:
        SupportPatch.from_spec(phi, kappa=kappa)
    assert exc.value.field == "kappa"
    assert SupportPatch.from_spec(phi, kappa=curvature).kappa == curvature
    assert SupportPatch.from_spec(phi).kappa == curvature


@pytest.mark.parametrize("build", [
    lambda: SupportPatch.paraboloid(2.0, kappa=0.25, chart_radius=0.45),
    lambda: SupportPatch.sphere_cap(2.0, kappa=0.4),
], ids=["paraboloid", "sphere_cap"])
def test_patch_refuses_kappa_below_curvature(build):
    # not only from_spec: any patch whose chart radius 1/kappa could reach the focal line
    with pytest.raises(PatchFieldError, match="kappa must be >=") as exc:
        build()
    assert exc.value.field == "kappa"


@pytest.mark.parametrize("build", [
    lambda: SupportPatch.from_spec("paraboloid:-2"),
    lambda: SupportPatch.from_spec("paraboloid:-2", kappa=2.0),
    lambda: SupportPatch.paraboloid(-0.5),
], ids=["paraboloid:-2", "paraboloid:-2 kappa=2", "paraboloid(-0.5)"])
def test_patch_refuses_a_support_that_is_not_mean_convex(build):
    # the paper's support is mean-convex: inf H >= 0 over the chart disk, to
    # KappaReport's tolerance; a trough that opens outward has H = a < 0 on its axis
    with pytest.raises(PatchFieldError, match="not mean-convex") as exc:
        build()
    assert exc.value.field == "phi"


ADMITTED = {
    "flat": SupportPatch.flat(),
    "flat r=3": SupportPatch.flat(chart_radius=3.0),
    "paraboloid:0.5": SupportPatch.paraboloid(0.5),
    "sphere_cap:2": SupportPatch.sphere_cap(2.0),
    "paraboloid:2 kappa=curvature": SupportPatch.paraboloid(2.0, kappa=2.0, chart_radius=0.45),
    "paraboloid:0.5 kappa=1": SupportPatch.paraboloid(0.5, kappa=1.0, chart_radius=1.0),
    "sphere_cap:2 kappa=1": SupportPatch.sphere_cap(2.0, kappa=1.0, chart_radius=0.5),
}


@pytest.mark.parametrize("rescaled", [False, True], ids=["as built", "rescaled by 0.5"])
@pytest.mark.parametrize("name", sorted(ADMITTED))
def test_admitted_patch_rebuilds_from_its_spec(name, rescaled):
    patch = ADMITTED[name].rescale(0.5) if rescaled else ADMITTED[name]
    back = SupportPatch.from_spec(**patch.spec())
    assert back.is_flat == patch.is_flat
    assert back.spec() == patch.spec()
    assert back.profile.curvature == patch.profile.curvature <= patch.kappa
