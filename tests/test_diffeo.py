"""Tests for circle/disc/ball diffeomorphisms.

The load-bearing checks here compare every analytic jet path against the
FD4 finite-difference plan — the two derivative pipelines are fully
independent, so agreement validates both.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from virbott import diffeo
from virbott._jets import Jet, compose, det_batched, polar_chart_jet
from virbott.diffeo import (
    ANALYTIC,
    FD4,
    AlexanderRadial,
    AngleDisplacement,
    AngularLink,
    BallDiffeo,
    BallLayerLink,
    BumpProfile,
    CutoffFn,
    CutoffProfile,
    DiscDiffeo,
    FlowMap,
    PoweredCutoffProfile,
    RadialTwist,
    Rotation,
    ball_extend,
    conjugated_extension,
    cutoff_make,
    disc_compose,
    disc_invert,
    require_boundary_trivial,
    solve_increasing,
)
from virbott.errors import (
    ConvergenceError,
    DomainError,
    NotBoundaryTrivialError,
    UnsupportedError,
)
from virbott.forms import DiscGrid
from virbott.liealg import SeparableDiscField
from virbott.trigpoly import TrigPoly

RNG = np.random.default_rng(7)


def fd_scalar(f, x, h=1e-5):
    """4th-order FD oracle for scalar functions of one variable."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def disc_points(n, rmin=0.05, rmax=0.98, seed=3):
    rng = np.random.default_rng(seed)
    r = rng.uniform(rmin, rmax, n)
    th = rng.uniform(0, 2 * math.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)])


# ----------------------------------------------------------------------
# cutoff and profiles
# ----------------------------------------------------------------------

def test_cutoff_flat_ends():
    xi = cutoff_make(0.2, 0.1)
    r_low = np.array([0.0, 0.1, 0.2])
    r_high = np.array([0.9, 0.95, 1.0, 1.1])
    assert np.all(xi.value(r_low) == 0.0)
    assert np.all(xi.value(r_high) == 1.0)
    assert np.all(xi.jets(r_low)[1] == 0.0)
    assert np.all(xi.jets(r_high)[1] == 0.0)
    assert np.all(xi.jets(r_low)[2] == 0.0)
    assert np.all(xi.jets(r_high)[2] == 0.0)


def test_cutoff_monotone_and_smooth():
    xi = cutoff_make(0.15, 0.2)
    r = np.linspace(0.0, 1.0, 400)
    v = xi.value(r)
    assert np.all(np.diff(v) >= -1e-15)
    assert np.all((v >= 0) & (v <= 1))
    # FD oracle for the derivatives on the open window
    rs = np.linspace(0.2, 0.75, 40)
    d1_fd = fd_scalar(xi.value, rs)
    d2_fd = fd_scalar(lambda r: xi.jets(r)[1], rs)
    assert np.max(np.abs(xi.jets(rs)[1] - d1_fd)) < 1e-8
    assert np.max(np.abs(xi.jets(rs)[2] - d2_fd)) < 1e-7


def test_cutoff_domain_errors():
    with pytest.raises(DomainError):
        cutoff_make(0.0, 0.1)
    with pytest.raises(DomainError):
        cutoff_make(0.6, 0.5)
    with pytest.raises(DomainError):
        cutoff_make(-0.1, 0.2)


@pytest.mark.parametrize("profile", [
    BumpProfile(0.3, 0.7, 0.8),
    CutoffProfile(cutoff_make(0.2, 0.15)),
    PoweredCutoffProfile(cutoff_make(0.2, 0.15), 3),
])
def test_profile_derivatives_vs_fd(profile):
    rs = np.linspace(0.25, 0.8, 37)
    def d1(r):
        return profile.jets(r)[1]

    assert np.max(np.abs(d1(rs) - fd_scalar(profile.value, rs))) < 1e-7
    assert np.max(np.abs(profile.jets(rs)[2] - fd_scalar(d1, rs))) < 1e-6


def test_bump_profile_support():
    b = BumpProfile(0.3, 0.7, 1.0)
    outside = np.array([0.0, 0.29, 0.71, 1.0])
    assert np.all(b.value(outside) == 0.0)
    assert np.all(b.jets(outside)[1] == 0.0)
    mid = b.value(np.array([0.5]))[0]
    assert abs(mid - 1.0) < 1e-12      # peak value = amp at the midpoint


@pytest.mark.parametrize("a, b, amp, named", [
    (math.nan, 0.8, 0.5, "a=nan"),
    (0.2, math.inf, 0.5, "b=inf"),
    (0.2, 0.8, math.nan, "amp=nan"),
    (0.2, 0.8, math.inf, "amp=inf"),
    (0.2, 0.8, -math.inf, "amp=-inf"),
])
def test_bump_profile_refuses_non_finite_parameters(a, b, amp, named):
    with pytest.raises(DomainError, match=rf"must be finite, got {named}$"):
        BumpProfile(a, b, amp)


@pytest.mark.parametrize("alpha, named", [
    (math.nan, "alpha=nan"), (math.inf, "alpha=inf"),
    (-math.inf, "alpha=-inf")])
def test_rotation_refuses_a_non_finite_angle(alpha, named):
    with pytest.raises(DomainError, match=rf"must be finite, got {named}$"):
        Rotation(alpha)


@pytest.mark.parametrize("time, steps, message", [
    (math.nan, 4, "must be finite, got time=nan$"),
    (math.inf, 4, "must be finite, got time=inf$"),
    (-math.inf, 4, "must be finite, got time=-inf$"),
    (0.5, 2.5, "must be an integer, got steps=2.5$"),
])
def test_flow_refuses_a_non_finite_time_and_a_non_integral_step_count(
        time, steps, message):
    field = SeparableDiscField(
        v3_terms=[(CutoffProfile(cutoff_make(0.2, 0.15)),
                   TrigPoly(0.0, [0.3]))])
    with pytest.raises(DomainError, match=message):
        FlowMap(field, time, steps)


# every profile class, with the edges of its support
EVERY_PROFILE = {
    "cutoff": (cutoff_make(0.2, 0.15), (0.2, 0.85)),
    "cutoff-profile": (CutoffProfile(cutoff_make(0.2, 0.15)), (0.2, 0.85)),
    "powered": (PoweredCutoffProfile(cutoff_make(0.15, 0.1), 3), (0.15, 0.9)),
    "bump": (BumpProfile(0.3, 0.75, -0.7), (0.3, 0.75)),
}


@pytest.mark.parametrize("name", sorted(EVERY_PROFILE))
def test_profile_value_and_derivatives_read_off_one_jets_call(name):
    profile, edges = EVERY_PROFILE[name]
    radii = list(np.linspace(0.0, 1.3, 53))
    for e in edges:
        radii += [e * (1 - 1e-12), e, e * (1 + 1e-12), e - 1e-6, e + 1e-6,
                  e - 0.01, e + 0.01]
    # a 0-d input too, as SeparableDiscField passes one
    for r in (np.array(radii), np.float64(1.0), np.float64(0.5)):
        f0, f1, f2 = profile.jets(r)
        assert np.shape(f0) == np.shape(r)
        assert np.array_equal(profile.value(r), f0)
        assert np.array_equal(profile.jets(r)[1], f1)
        assert np.array_equal(profile.jets(r)[2], f2)


@pytest.mark.parametrize("name", sorted(set(EVERY_PROFILE) - {"cutoff"}))
def test_profile_bounds_are_its_exact_value_range(name):
    profile, edges = EVERY_PROFILE[name]
    # the support's midpoint is where a bump peaks
    radii = np.concatenate([np.linspace(0.0, 1.3, 1301), [sum(edges) / 2]])
    values = profile.value(radii)
    lo, hi = profile.bounds
    assert lo <= np.min(values) and np.max(values) <= hi
    assert np.min(values) == pytest.approx(lo, abs=1e-12)
    assert np.max(values) == pytest.approx(hi, abs=1e-12)


# ----------------------------------------------------------------------
# circle maps
# ----------------------------------------------------------------------

def boundary_angle(link, th):
    """The link's image angle phi on the circle r = 1, with phi_theta and
    phi_thetatheta: the circle map it extends."""
    phi, (_, phi_t), (_, (_, phi_tt)) = link.angle_jet(np.ones_like(th), th)
    return phi, phi_t, phi_tt


def test_circle_lift_value_and_derivatives():
    # theta -> theta + 2 pi + p(theta) is the r = 1 restriction of its
    # Alexander extension
    p = TrigPoly(0.1, [0.3], [0.2])
    link = AlexanderRadial(p + 2 * math.pi, cutoff_make(0.2, 0.1))
    th = np.linspace(0, 2 * math.pi, 50)
    phi, phi_t, phi_tt = boundary_angle(link, th)
    assert np.allclose(phi, th + 2 * math.pi + p(th), atol=1e-14)
    assert np.max(np.abs(
        phi_t - fd_scalar(lambda x: boundary_angle(link, x)[0], th))) < 1e-9
    assert np.max(np.abs(
        phi_tt - fd_scalar(lambda x: boundary_angle(link, x)[1], th))) < 1e-8


def test_circle_lift_orientation_error():
    with pytest.raises(DomainError, match="N=1"):
        # 1 + 1.5 cos < 0
        AlexanderRadial(TrigPoly(0.0, [0.0], [1.5]), cutoff_make(0.2, 0.1))


def test_circle_invert_round_trip():
    # the inverse link inverts the circle map on r = 1, winding included
    disp = TrigPoly(0.2, [0.4, 0.1], [0.3]) + 2 * math.pi
    link = AlexanderRadial(disp, cutoff_make(0.2, 0.1))
    th = RNG.uniform(-5, 15, 64)
    psi, _, _ = link.inverse_link()._solve(np.ones_like(th), th)
    assert np.max(np.abs(psi + disp(psi) - th)) < 1e-12


def _no_root_in_bracket(x):
    """x + 5 and its slope: increasing, with no root in [-1, 1]."""
    return x + 5.0, np.ones_like(x)


def test_circle_invert_convergence_error():
    with pytest.raises(ConvergenceError, match="angle inversion stalled"):
        solve_increasing(_no_root_in_bracket, np.zeros(1), np.full(1, -1.0),
                         np.ones(1))


def test_convergence_error_counts_nodes_and_iterations():
    with pytest.raises(ConvergenceError,
                       match=r"2 of 2 nodes above tol 1\.0e-12 after 200 "
                             r"Newton iterations"):
        solve_increasing(_no_root_in_bracket, np.zeros(2), np.full(2, -1.0),
                         np.ones(2))


def test_nonlinear_alexander_inverse_uses_the_bisection_fallback():
    # A = xi(r) (0.95 / 3) cos 3 theta: min(1 + A_theta) = 0.05 on xi = 1,
    # where a plain Newton step from psi0 = t - A(r, t) overshoots the bracket
    link = AlexanderRadial(TrigPoly(0.0, [0.0, 0.0, 0.95 / 3]),
                           cutoff_make(0.2, 0.2))
    # the certificate accepts it below its true margin 0.05
    bound, M = link.displacement.certify_orientation()
    assert 0.0 < bound < 0.05 and M > 8 * 3
    t = np.linspace(-math.pi, math.pi, 4097)
    r = np.full_like(t, 0.9)
    _, _, At, *_ = link.displacement.jets(r, t)
    assert np.min(1.0 + At) == pytest.approx(0.05, abs=1e-6)
    psi, iters, bisected = link.inverse_link()._solve(r, t)
    assert bisected > 0
    assert iters <= 10
    assert np.max(np.abs(psi + link.displacement.value(r, psi) - t)) <= 1e-12
    pts = disc_points(500)
    back = DiscDiffeo.from_link(link.inverse_link()).apply(link.apply(pts))
    assert np.max(np.abs(back - pts)) <= 1e-12


def test_twist_inverse_needs_no_newton_step():
    # amplitude 2.5 exceeds ||poly||_1 + 1 = 2: the bracket scales with it
    twist = RadialTwist(BumpProfile(0.2, 0.8, 2.5))
    pts = disc_points(400)
    moved = twist.apply(pts)
    r = np.hypot(*moved)
    t = np.arctan2(moved[1], moved[0])
    psi, iters, bisected = twist.inverse_link()._solve(r, t)
    assert (iters, bisected) == (0, 0)
    back = twist.inverse_link().apply(moved)
    assert np.max(np.abs(back - pts)) <= 1e-12


def test_isotopy_path_endpoints():
    # at time t the link is theta -> theta + t (2 pi k + p(theta)) on r = 1
    disp = TrigPoly(0.0, [0.5]) + 2 * math.pi
    th = np.linspace(0, 2 * math.pi, 33)
    for t in (0.0, 0.4, 1.0):
        link = AlexanderRadial(disp, cutoff_make(0.2, 0.1), t)
        phi = boundary_angle(link, th)[0]
        assert np.allclose(phi, th + t * disp(th), atol=1e-14)
    assert np.array_equal(
        boundary_angle(AlexanderRadial(disp, cutoff_make(0.2, 0.1), 0.0),
                       th)[0], th)


# ----------------------------------------------------------------------
# elementary links: values
# ----------------------------------------------------------------------

def test_alexander_boundary_and_core():
    disp = TrigPoly(0.0, [0.4], [0.2])
    xi = cutoff_make(0.2, 0.1)
    g = DiscDiffeo.from_link(AlexanderRadial(disp, xi, 0.7))
    th = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    # on the boundary annulus the map is theta -> theta + t disp(theta)
    for r in (0.92, 1.0):
        pts = np.stack([r * np.cos(th), r * np.sin(th)])
        out = g.apply(pts)
        phi = th + 0.7 * disp(th)
        assert np.max(np.abs(out[0] - r * np.cos(phi))) < 1e-13
        assert np.max(np.abs(out[1] - r * np.sin(phi))) < 1e-13
    # identity below the window
    pts = disc_points(30, 0.01, 0.19, seed=5)
    assert np.max(np.abs(g.apply(pts) - pts)) == 0.0
    # radius preserved everywhere
    pts = disc_points(50)
    out = g.apply(pts)
    assert np.max(np.abs(np.hypot(*out) - np.hypot(*pts))) < 1e-13


def test_twist_compact_support():
    tw = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.3, 0.7, 0.9)))
    inside = disc_points(40, 0.31, 0.69, seed=11)
    outside = np.concatenate([disc_points(20, 0.05, 0.29, seed=2),
                              disc_points(20, 0.71, 1.2, seed=4)], axis=1)
    assert np.max(np.abs(tw.apply(outside) - outside)) == 0.0
    moved = np.max(np.abs(tw.apply(inside) - inside))
    assert moved > 1e-3


def test_twist_rejects_support_touching_boundary():
    with pytest.raises(DomainError):
        RadialTwist(BumpProfile(0.5, 1.0, 0.5))
    with pytest.raises(DomainError):
        RadialTwist(CutoffProfile(cutoff_make(0.2, 0.1)))


def test_scaled_alexander_link_is_the_alexander_link_at_that_time():
    disp = TrigPoly(0.0, [0.4], [0.2])
    xi = cutoff_make(0.2, 0.1)
    scaled = AlexanderRadial(disp, xi, 1.0).scaled(0.5).displacement
    direct = AlexanderRadial(disp, xi, 0.5).displacement
    assert [poly for _, poly in scaled.terms] == \
        [poly for _, poly in direct.terms]
    pts = disc_points(50)
    r, th = np.hypot(*pts), np.arctan2(pts[1], pts[0])
    for got, want in zip(scaled.jets(r, th), direct.jets(r, th)):
        assert np.array_equal(got, want)


def test_rotation_flow_agrees_with_rigid_rotation():
    class SpinField:
        def cartesian_value(self, pts):
            return np.stack([-pts[1], pts[0]])

        def cartesian_jet2(self, pts):
            n = pts.shape[1]
            dv = np.zeros((2, 2, n))
            dv[0, 1] = -1.0
            dv[1, 0] = 1.0
            return self.cartesian_value(pts), dv, np.zeros((2, 2, 2, n))

    alpha = 0.83
    flow = DiscDiffeo.from_link(FlowMap(SpinField(), alpha, steps=96))
    rot = DiscDiffeo.from_link(Rotation(alpha))
    pts = disc_points(60)
    assert np.max(np.abs(flow.apply(pts) - rot.apply(pts))) < 1e-10
    jf = flow.jet(pts)
    jr = rot.jet(pts)
    assert np.max(np.abs(jf.j - jr.j)) < 1e-10
    assert np.max(np.abs(jf.h - jr.h)) < 1e-10
    # reversing time undoes the flow
    back = DiscDiffeo(flow.links + (FlowMap(SpinField(), -alpha, 96),))
    assert np.max(np.abs(back.apply(pts) - pts)) < 1e-12


# ----------------------------------------------------------------------
# jets: analytic vs FD4 (the two independent derivative paths)
# ----------------------------------------------------------------------

def sample_links():
    disp = TrigPoly(0.1, [0.35], [0.15])
    xi = cutoff_make(0.2, 0.1)
    alexander = AlexanderRadial(disp, xi, 0.8)
    twist = RadialTwist(BumpProfile(0.3, 0.75, 0.7))
    return {
        "alexander": DiscDiffeo.from_link(alexander),
        "twist": DiscDiffeo.from_link(twist),
        "rotation": DiscDiffeo.from_link(Rotation(0.6)),
        "inverse": DiscDiffeo.from_link(alexander.inverse_link()),
        "chain": DiscDiffeo((twist, alexander, Rotation(-0.4))),
    }


@pytest.mark.parametrize("name", ["alexander", "twist", "rotation",
                                  "inverse", "chain"])
def test_analytic_jet_matches_fd4(name):
    g = sample_links()[name]
    pts = disc_points(40, 0.25, 0.85, seed=13)
    ja = g.jet(pts, ANALYTIC)
    jf = g.jet(pts, FD4)
    assert np.max(np.abs(ja.x - jf.x)) < 1e-14
    assert np.max(np.abs(ja.j - jf.j)) < 1e-8
    assert np.max(np.abs(ja.h - jf.h)) < 2e-5


def every_disc_link():
    """One link of every kind a disc chain can hold."""
    disp = TrigPoly(0.1, [0.35], [0.15])
    alexander = AlexanderRadial(disp, cutoff_make(0.2, 0.1), 0.8)
    field = SeparableDiscField(
        v3_terms=[(BumpProfile(0.2, 0.8, 1.0), TrigPoly(0.0, [0.2]))],
        v4_terms=[(CutoffProfile(cutoff_make(0.2, 0.15)),
                   TrigPoly(0.0, [0.35], [0.0, -0.15]))])
    return {
        "rotation": Rotation(0.6),
        "alexander": alexander,
        "twist": RadialTwist(BumpProfile(0.3, 0.75, 0.7)),
        "inverse": alexander.inverse_link(),
        "displacement": alexander.scaled(0.5),
        "flow": FlowMap(field, 0.4, steps=16),
    }


@pytest.mark.parametrize("name", ["rotation", "alexander", "twist",
                                  "inverse", "displacement", "flow"])
def test_every_link_kind_through_a_one_link_chain(name):
    link = every_disc_link()[name]
    chain = DiscDiffeo.from_link(link)
    pts = disc_points(40, 0.25, 0.85, seed=67)
    own = link.jet(pts)
    ja = chain.jet(pts, ANALYTIC)
    # a one-link chain's jet is the link's own jet
    assert np.array_equal(ja.x, own.x)
    assert np.array_equal(ja.j, own.j)
    assert np.array_equal(ja.h, own.h)
    jf = chain.jet(pts, FD4)
    assert np.max(np.abs(ja.x - jf.x)) < 1e-14
    assert np.max(np.abs(ja.j - jf.j)) < 1e-8
    assert np.max(np.abs(ja.h - jf.h)) < 2e-5


def test_ball_extension_through_a_rotation_layer():
    # Rotation yields the ParamRotation layer; the Alexander link undoes
    # the rotation on the boundary annulus
    disc = DiscDiffeo((Rotation(0.6), AlexanderRadial(
        TrigPoly(-0.6), cutoff_make(0.2, 0.15))))
    B = ball_extend(disc, cutoff_make(0.2, 0.1))
    pts = ball_points(30, seed=71)
    ja = B.jet(pts, ANALYTIC)
    jf = B.jet(pts, FD4)
    assert np.max(np.abs(ja.x - jf.x)) < 1e-14
    assert np.max(np.abs(ja.j - jf.j)) < 1e-9
    assert np.max(np.abs(ja.h - jf.h)) < 1e-6
    pts2 = disc_points(50, seed=73)
    assert np.max(np.abs(B.boundary_map().apply(pts2)
                         - disc.apply(pts2))) < 1e-15


def test_jet_composition_consistency():
    links = sample_links()
    g = links["alexander"]
    h = links["twist"]
    gh = disc_compose(g, h)
    pts = disc_points(30, 0.3, 0.8, seed=17)
    direct = gh.jet(pts)
    manual = compose(g.jet(h.apply(pts)), h.jet(pts))
    assert np.max(np.abs(direct.x - manual.x)) < 1e-14
    assert np.max(np.abs(direct.j - manual.j)) < 1e-13
    assert np.max(np.abs(direct.h - manual.h)) < 1e-12


def test_inverse_round_trip_and_jets():
    g = sample_links()["chain"]
    ginv = disc_invert(g)
    pts = disc_points(50, 0.1, 0.95, seed=23)
    assert np.max(np.abs(ginv.apply(g.apply(pts)) - pts)) < 1e-11
    assert np.max(np.abs(g.apply(ginv.apply(pts)) - pts)) < 1e-11
    # jet of g^{-1} o g is the identity jet
    full = disc_compose(ginv, g)
    jet = full.jet(pts)
    ident = Jet.identity(pts)
    assert np.max(np.abs(jet.x - ident.x)) < 1e-11
    assert np.max(np.abs(jet.j - ident.j)) < 1e-9
    assert np.max(np.abs(jet.h - ident.h)) < 1e-8


def test_flow_has_no_closed_form_inverse():
    class StillField:
        def cartesian_value(self, pts):
            return np.zeros_like(pts)

    g = DiscDiffeo.from_link(FlowMap(StillField(), 1.0))
    with pytest.raises(UnsupportedError):
        disc_invert(g)


# ----------------------------------------------------------------------
# sphere maps: disc maps that are the identity near the boundary circle
# ----------------------------------------------------------------------

def test_sphere_extend_accepts_twists_rejects_alexander():
    tw = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.3, 0.7, 0.8)))
    require_boundary_trivial(tw, 0.1, "twist")
    pts = disc_points(20, 1.0, 1.3, seed=37)   # outside the unit disc
    assert np.max(np.abs(tw.apply(pts) - pts)) == 0.0

    disp = TrigPoly(0.0, [0.4])
    alex = DiscDiffeo.from_link(AlexanderRadial(disp, cutoff_make(0.2, 0.1)))
    with pytest.raises(NotBoundaryTrivialError):
        require_boundary_trivial(alex, 0.1, "Alexander map")


# ----------------------------------------------------------------------
# ball maps
# ----------------------------------------------------------------------

def ball_points(n, seed=41):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.05, 0.98, n)
    r = rng.uniform(0.05, 1.2, n)
    th = rng.uniform(0, 2 * math.pi, n)
    return np.stack([rho, r * np.cos(th), r * np.sin(th)])


def sample_sphere_map():
    return DiscDiffeo((RadialTwist(BumpProfile(0.3, 0.7, 0.8)),
                       RadialTwist(BumpProfile(0.45, 0.9, -0.5))))


def test_ball_extend_boundary_and_core():
    h = sample_sphere_map()
    xi = cutoff_make(0.2, 0.1)
    B = ball_extend(h, xi)
    # at rho = 1 the planar action equals h
    pts2 = disc_points(50, seed=43)
    top = np.concatenate([np.ones((1, 50)), pts2])
    out = B.apply(top)
    assert np.max(np.abs(out[1:] - h.apply(pts2))) < 1e-13
    assert np.max(np.abs(out[0] - 1.0)) == 0.0
    # identity below the cutoff window
    low = np.concatenate([np.full((1, 50), 0.1), pts2])
    assert np.max(np.abs(B.apply(low) - low)) == 0.0
    # boundary_map returns the planar chain
    bm = B.boundary_map()
    assert np.max(np.abs(bm.apply(pts2) - h.apply(pts2))) < 1e-13


def test_ball_jet_matches_fd4():
    h = sample_sphere_map()
    B = ball_extend(h, cutoff_make(0.2, 0.1))
    pts = ball_points(30)
    ja = B.jet(pts, ANALYTIC)
    jf = B.jet(pts, FD4)
    assert np.max(np.abs(ja.j - jf.j)) < 1e-7
    assert np.max(np.abs(ja.h - jf.h)) < 2e-4


def test_ball_jacobian_top_row():
    B = ball_extend(sample_sphere_map(), cutoff_make(0.2, 0.1))
    pts = ball_points(40, seed=47)
    J = B.jet(pts).j
    assert np.max(np.abs(J[0, 0] - 1.0)) == 0.0
    assert np.max(np.abs(J[0, 1])) == 0.0
    assert np.max(np.abs(J[0, 2])) == 0.0
    assert np.all(det_batched(J) > 0)


def test_conjugated_extension_boundary_value():
    disp = TrigPoly(0.05, [0.3], [0.1])
    g = DiscDiffeo.from_link(AlexanderRadial(disp, cutoff_make(0.2, 0.1), 0.9))
    h = sample_sphere_map()
    xi = cutoff_make(0.2, 0.1)
    B = conjugated_extension(g, h, xi)
    conj = disc_compose(disc_compose(g, h), disc_invert(g))
    pts2 = disc_points(40, seed=53)
    top = np.concatenate([np.ones((1, 40)), pts2])
    out = B.apply(top)
    assert np.max(np.abs(out[1:] - conj.apply(pts2))) < 1e-10
    # jets on the conjugated extension still match FD4
    pts = ball_points(15, seed=59)
    ja = B.jet(pts, ANALYTIC)
    jf = B.jet(pts, FD4)
    assert np.max(np.abs(ja.j - jf.j)) < 1e-7
    assert np.max(np.abs(ja.h - jf.h)) < 5e-4


def test_ball_extend_rejects_noncancelling_frozen_layers():
    disp = TrigPoly(0.0, [0.4])
    alex = AlexanderRadial(disp, cutoff_make(0.2, 0.1), 1.0)
    # a lone inverse link freezes to a non-identity parameter-zero map
    bad = DiscDiffeo.from_link(alex.inverse_link())
    with pytest.raises(DomainError):
        ball_extend(bad, cutoff_make(0.2, 0.1))


def test_ball_extend_rejects_flow_links():
    class StillField:
        def cartesian_value(self, pts):
            return np.zeros_like(pts)

    g = DiscDiffeo.from_link(FlowMap(StillField(), 1.0))
    with pytest.raises(UnsupportedError):
        ball_extend(g, cutoff_make(0.2, 0.1))


def test_frozen_layers_refuse_links_that_move_the_radius():
    with pytest.raises(UnsupportedError):
        BallLayerLink(every_disc_link()["flow"])


def test_alternative_profiles_give_same_boundary():
    h = sample_sphere_map()
    xi = cutoff_make(0.2, 0.1)
    B1 = ball_extend(h, xi)
    B2 = ball_extend(h, xi, profile=PoweredCutoffProfile(xi, 2))
    pts2 = disc_points(30, seed=61)
    top = np.concatenate([np.ones((1, 30)), pts2])
    assert np.max(np.abs(B1.apply(top) - B2.apply(top))) < 1e-13
    mid = np.concatenate([np.full((1, 30), 0.5), pts2])
    assert np.max(np.abs(B1.apply(mid) - B2.apply(mid))) > 1e-4


# ----------------------------------------------------------------------
# moves masks: False only where the analytic jet is exactly the identity
# ----------------------------------------------------------------------

def straddling_points(edges, n_theta=12):
    """Plane points on circles at, just inside and just outside each radius
    of ``edges``, plus the origin, a sub-guard radius and a coarse sweep."""
    radii = [0.0, 1e-10] + list(np.linspace(0.0, 1.3, 27))
    for e in edges:
        radii += [e * (1 - 1e-12), e, e * (1 + 1e-12), e * (1 - 1e-6),
                  e * (1 + 1e-6), e - 0.01, e + 0.01]
    th = np.arange(n_theta) * (2 * math.pi / n_theta) + 0.1
    return np.concatenate([np.stack([r * np.cos(th), r * np.sin(th)])
                           for r in radii], axis=1)


def assert_identity_outside_mask(m, moves, pts):
    """Bitwise identity jet of the map ``m`` at every node that ``moves``
    leaves out, where ``m.apply`` fixes the node too."""
    still = ~moves
    d = pts.shape[0]
    assert np.array_equal(m.apply(pts)[:, still], pts[:, still])
    jet = m.jet(pts)
    assert np.array_equal(jet.x[:, still], pts[:, still])
    assert np.array_equal(jet.j[:, :, still],
                          np.broadcast_to(np.eye(d)[:, :, None],
                                          (d, d, int(still.sum()))))
    assert np.all(jet.h[:, :, :, still] == 0.0)


# edges of the links of every_disc_link(): the Alexander cutoff window is
# [0.2, 0.9], the twist bump lives on [0.3, 0.75]
MASK_EDGES = (0.2, 0.3, 0.75, 0.9)


@pytest.mark.parametrize("name", ["rotation", "alexander", "twist",
                                  "inverse", "displacement", "flow"])
def test_disc_link_masks_are_exact(name):
    link = every_disc_link()[name]
    pts = straddling_points(MASK_EDGES)
    if name == "flow":
        # a flow moves every node, and its field's jet refuses the origin
        pts = pts[:, np.hypot(pts[0], pts[1]) > 0.0]
    moves = link.moves(pts)
    assert moves.dtype == bool and moves.shape == (pts.shape[1],)
    if name in ("rotation", "flow"):
        assert moves.all()
    else:
        # the grid sees both sides of the support edge
        assert moves.any() and not moves.all()
    assert_identity_outside_mask(link, moves, pts)
    if hasattr(link, "displacement"):
        # the true map is the identity there, not only the masked jet
        r = np.hypot(pts[0], pts[1])[~moves]
        th = np.arctan2(pts[1], pts[0])[~moves]
        off = r >= 1e-9
        for part in link.displacement.jets(r[off], th[off]):
            assert np.all(part == 0.0)


def test_chain_mask_is_the_or_of_its_links():
    links = every_disc_link()
    twist, alexander = links["twist"], links["alexander"]
    pts = straddling_points(MASK_EDGES)
    chain = DiscDiffeo((twist, alexander.inverse_link(), twist))
    moves = chain.moves(pts)
    assert np.array_equal(moves, twist.moves(pts) | alexander.moves(pts))
    assert_identity_outside_mask(chain, moves, pts)
    assert not DiscDiffeo.identity().moves(pts).any()
    with_rotation = DiscDiffeo((twist, links["rotation"]))
    assert with_rotation.moves(pts).all()


def ball_mask_points():
    """(rho, x, y) nodes: the straddling plane points on layers where the
    cutoff profile below is zero, rising and one."""
    plane = straddling_points(MASK_EDGES, n_theta=8)
    n = plane.shape[1]
    return np.concatenate([
        np.concatenate([np.full((1, n), rho), plane])
        for rho in (0.0, 0.1, 0.2, 0.5, 0.95, 1.0)], axis=1)


@pytest.mark.parametrize("kind", ["angular", "rotation", "frozen"])
def test_ball_layer_masks_are_exact(kind):
    alexander = every_disc_link()["alexander"]
    profile = CutoffProfile(cutoff_make(0.15, 0.1))
    link = {"angular": alexander, "rotation": Rotation(0.6),
            "frozen": alexander}[kind]
    layer = BallLayerLink(link, None if kind == "frozen" else profile)
    pts3 = ball_mask_points()
    moves = layer.moves(pts3)
    assert np.array_equal(moves, link.moves(pts3[1:]))
    if kind == "rotation":
        assert moves.all()
    else:
        assert moves.any() and not moves.all()
    assert_identity_outside_mask(layer, moves, pts3)
    B = BallDiffeo((layer, layer))
    assert np.array_equal(B.moves(pts3), moves)
    assert_identity_outside_mask(B, moves, pts3)


def test_conjugated_extension_mask_is_exact():
    alexander = every_disc_link()["alexander"]
    B = conjugated_extension(DiscDiffeo.from_link(alexander),
                             sample_sphere_map(), cutoff_make(0.2, 0.1))
    pts3 = ball_mask_points()
    moves = B.moves(pts3)
    assert moves.any() and not moves.all()
    assert_identity_outside_mask(B, moves, pts3)


# ----------------------------------------------------------------------
# apply of the radius-preserving links, derived from their angle hooks
# ----------------------------------------------------------------------

def assert_apply_matches_the_jet(link, pts):
    """``apply`` agrees with the jet's value, and every node whose angle
    the link keeps (unmoved, or turned by exactly 0) stays bit for bit."""
    out = link.apply(pts)
    assert np.max(np.abs(out - link.jet(pts).x)) <= 1e-14
    r = np.hypot(pts[-2], pts[-1])
    th = np.arctan2(pts[-1], pts[-2])
    base = (pts[0], r) if pts.shape[0] == 3 else (r,)
    moved = link.moves(pts)
    kept = ~moved
    kept[moved] = link.angle_jet(*(b[moved] for b in base),
                                 th[moved])[0] == th[moved]
    assert np.array_equal(out[:, kept], pts[:, kept])
    return out


@pytest.mark.parametrize("name", ["rotation", "alexander", "twist",
                                  "inverse", "displacement"])
def test_disc_link_apply_matches_its_jet(name):
    link = every_disc_link()[name]
    assert_apply_matches_the_jet(link, straddling_points(MASK_EDGES))


@pytest.mark.parametrize("kind", ["angular", "rotation", "frozen"])
def test_ball_layer_apply_matches_its_jet(kind):
    alexander = every_disc_link()["alexander"]
    link = {"angular": alexander, "rotation": Rotation(0.6),
            "frozen": alexander}[kind]
    profile = CutoffProfile(cutoff_make(0.15, 0.1))
    layer = BallLayerLink(link, None if kind == "frozen" else profile)
    pts3 = ball_mask_points()
    out = assert_apply_matches_the_jet(layer, pts3)
    assert np.array_equal(out[0], pts3[0])
    if kind != "frozen":
        # where the profile is 0 the layer is the identity, bit for bit,
        # on nodes its mask counts as moved too
        still = profile.value(pts3[0]) == 0.0
        assert (still & layer.moves(pts3)).any()
        assert np.array_equal(out[:, still], pts3[:, still])


def angle_hook_links():
    """Every radius-preserving disc link, two-term ones included, and the
    graded and frozen ball layers of each."""
    disc = {name: link for name, link in every_disc_link().items()
            if name != "flow"}
    two = AngularLink(AngleDisplacement([
        (CutoffProfile(cutoff_make(0.2, 0.15)), TrigPoly(0.0, [0.3], [0.1])),
        (BumpProfile(0.3, 0.75, 0.7), TrigPoly(0.2))]))
    disc["two-term"], disc["two-term-inverse"] = two, two.inverse_link()
    profile = CutoffProfile(cutoff_make(0.15, 0.1))
    ball = {"graded-" + name: BallLayerLink(link, profile)
            for name, link in disc.items() if hasattr(link, "turn")}
    ball.update({"frozen-" + name: BallLayerLink(link)
                 for name, link in disc.items()})
    return disc, ball


@pytest.mark.parametrize("n", [1, 2, 7, 3000])
def test_angle_hook_is_the_angle_of_the_jet_hook_bit_for_bit(n):
    # apply reads the value hook alone, so the FD4 plan, which
    # differentiates apply, moves the points the analytic jet moves
    rng = np.random.default_rng(n)
    r = rng.uniform(0.0, 1.1, n)
    th = rng.uniform(-math.pi, math.pi, n)
    rho = rng.uniform(0.0, 1.0, n)
    disc, ball = angle_hook_links()
    for name, link in disc.items():
        assert np.array_equal(link.angle(r, th),
                              link.angle_jet(r, th)[0]), name
    for name, layer in ball.items():
        assert np.array_equal(layer.angle(rho, r, th),
                              layer.angle_jet(rho, r, th)[0]), name


def random_displacement(rng):
    """One or two terms, each a random profile times a random polynomial
    of degree 0 to 4."""
    terms = []
    for _ in range(rng.integers(1, 3)):
        kind = rng.integers(3)
        if kind == 0:
            prof = CutoffProfile(cutoff_make(rng.uniform(0.05, 0.4),
                                             rng.uniform(0.05, 0.4)))
        elif kind == 1:
            a = rng.uniform(0.05, 0.5)
            prof = BumpProfile(a, rng.uniform(a + 0.1, 0.95),
                               rng.uniform(-1.0, 1.0))
        else:
            prof = PoweredCutoffProfile(cutoff_make(0.2, 0.1),
                                        int(rng.integers(1, 4)))
        deg = int(rng.integers(0, 5))
        terms.append((prof, TrigPoly(rng.normal(), list(rng.normal(size=deg)),
                                     list(rng.normal(size=deg)))))
    return AngleDisplacement(terms)


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_displacement_value_is_the_value_of_its_jets_bit_for_bit(n):
    # a one-row table product rounds apart from the rows jets() reads, so
    # value, the inverse link's Newton seed and the turn all read A off
    # the same rows as jets
    for seed in range(40):
        rng = np.random.default_rng([n, seed])
        disp = random_displacement(rng)
        r = rng.uniform(0.0, 1.1, n)
        th = rng.uniform(-math.pi, math.pi, n)
        want = disp.jets(r, th)[0]
        assert np.array_equal(disp.value(r, th), want), seed
        assert np.array_equal(disp.value(r, th, disp.weights(r)), want), seed
        assert np.array_equal(disp.value(r[0], th),
                              disp.jets(r[0], th)[0]), seed
        assert disp.value(r, th[0]).shape == r.shape


# ----------------------------------------------------------------------
# the angle-jet engine against a Cartesian fold of the links' own jets
# ----------------------------------------------------------------------

def fold_of_link_jets(links, pts):
    """The chain rule link by link in Cartesian coordinates."""
    jet = links[0].jet(pts)
    for link in links[1:]:
        jet = compose(link.jet(jet.x), jet)
    return jet


def assert_jets_close(a, b, tol_x=1e-14, tol_j=1e-13, tol_h=1e-11):
    assert np.max(np.abs(a.x - b.x)) <= tol_x
    assert np.max(np.abs(a.j - b.j)) <= tol_j
    assert np.max(np.abs(a.h - b.h)) <= tol_h


def engine_disc_chains():
    disp = TrigPoly(0.0, [0.35, 0.0], [0.0, -0.15])
    alex = AlexanderRadial(disp, cutoff_make(0.2, 0.15))
    alex_b = AlexanderRadial(TrigPoly(0.0, [-0.2], [0.25]),
                             cutoff_make(0.1, 0.1), 0.8)
    tw_a = RadialTwist(BumpProfile(0.10, 0.90, 0.12))
    tw_b = RadialTwist(BumpProfile(0.30, 0.75, -0.7))
    forward = DiscDiffeo((alex, tw_a, alex_b, Rotation(0.7)))
    return {
        "alexander-twist-alexander-rotation": forward,
        "its-inverse": disc_invert(forward),
        "twist-inverse-alexander-twist": DiscDiffeo(
            (tw_a, alex.inverse_link(), tw_b)),
    }


@pytest.mark.parametrize("name", ["alexander-twist-alexander-rotation",
                                  "its-inverse",
                                  "twist-inverse-alexander-twist"])
def test_disc_angle_engine_matches_the_cartesian_fold(name):
    g = engine_disc_chains()[name]
    # h entries grow like 1 / r toward the origin
    pts = disc_points(400, 0.05, 1.2, seed=79)
    assert_jets_close(g.jet(pts), fold_of_link_jets(g.links, pts))


def engine_ball_chains():
    disp = TrigPoly(0.0, [0.35, 0.0], [0.0, -0.15])
    alex = DiscDiffeo.from_link(AlexanderRadial(disp, cutoff_make(0.2, 0.15)))
    rot = DiscDiffeo.from_link(Rotation(0.7))
    tw1 = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.10, 0.90, 0.12)))
    xi = cutoff_make(0.10, 0.10)
    rotation_layer = DiscDiffeo((Rotation(0.6), AlexanderRadial(
        TrigPoly(-0.6), cutoff_make(0.2, 0.15))))
    return {
        "conjugated-around-rotation": conjugated_extension(rot, tw1, xi),
        "conjugated-around-alexander": conjugated_extension(alex, tw1, xi),
        "two-twists": ball_extend(sample_sphere_map(), xi),
        "rotation-layer": ball_extend(rotation_layer, xi),
    }


@pytest.mark.parametrize("name", ["conjugated-around-rotation",
                                  "conjugated-around-alexander",
                                  "two-twists", "rotation-layer"])
def test_ball_angle_engine_matches_the_cartesian_fold(name):
    B = engine_ball_chains()[name]
    pts = ball_points(400, seed=83)
    ja = B.jet(pts)
    assert_jets_close(ja, fold_of_link_jets(B.links, pts))
    # the rho row stays exact
    assert np.array_equal(ja.x[0], pts[0])
    assert np.all(ja.j[0, 0] == 1.0) and np.all(ja.j[0, 1:] == 0.0)
    assert np.all(ja.h[0] == 0.0)


def test_theta_dependent_ball_layers_match_fd4():
    # ParamAngular layers whose displacement depends on theta, around a
    # ParamRotation layer: every partial of the layers' angle hooks counts
    alex = every_disc_link()["alexander"]
    alex_b = AlexanderRadial(TrigPoly(0.0, [-0.2], [0.25]),
                             cutoff_make(0.1, 0.1), 0.8)
    B = ball_extend(DiscDiffeo((alex, Rotation(0.6), alex_b)),
                    cutoff_make(0.2, 0.1))
    pts = ball_points(30, seed=97)
    ja = B.jet(pts, ANALYTIC)
    jf = B.jet(pts, FD4)
    assert np.max(np.abs(ja.x - jf.x)) < 1e-14
    assert np.max(np.abs(ja.j - jf.j)) < 1e-8
    assert np.max(np.abs(ja.h - jf.h)) < 1e-5


def test_flow_link_splits_a_chain_into_two_angle_runs():
    links = every_disc_link()
    g = DiscDiffeo((links["twist"], links["alexander"], links["flow"],
                    links["inverse"], links["rotation"]))
    assert [len(run) for run in g._runs()] == [2, 1, 2]
    pts = disc_points(40, 0.25, 0.85, seed=89)
    ja = g.jet(pts)
    assert_jets_close(ja, fold_of_link_jets(g.links, pts))
    jf = g.jet(pts, FD4)
    assert np.max(np.abs(ja.x - jf.x)) < 1e-14
    assert np.max(np.abs(ja.j - jf.j)) < 1e-8
    assert np.max(np.abs(ja.h - jf.h)) < 2e-5


def rotation_jet(alpha, pts):
    c, s = math.cos(alpha), math.sin(alpha)
    R = np.array([[c, -s], [s, c]])
    n = pts.shape[1]
    return R @ pts, np.repeat(R[:, :, None], n, axis=2)


def test_rotation_runs_keep_the_exact_jet_at_the_origin():
    links = every_disc_link()
    g = DiscDiffeo((Rotation(0.6), links["twist"], links["alexander"],
                    Rotation(-0.25)))
    pts = np.array([[0.0, 1e-10, 0.0, -3e-10], [0.0, 0.0, 1e-10, 2e-10]])
    jet = g.jet(pts)
    x, j = rotation_jet(0.35, pts)
    assert np.max(np.abs(jet.x - x)) <= 1e-25
    assert np.max(np.abs(jet.j - j)) <= 1e-15
    assert np.all(jet.h == 0.0)
    # in the ball the angle u(rho) * 0.6 moves with rho
    prof = CutoffProfile(cutoff_make(0.2, 0.1))
    B = ball_extend(DiscDiffeo((Rotation(0.6), AlexanderRadial(
        TrigPoly(-0.6), cutoff_make(0.2, 0.15)))),
        cutoff_make(0.2, 0.1))
    rho = np.array([0.1, 0.35, 0.5, 0.8])
    jet = B.jet(np.concatenate([rho[None], pts]))
    u0, u1, u2 = prof.value(rho), prof.jets(rho)[1], prof.jets(rho)[2]
    for k in range(4):
        x, j = rotation_jet(0.6 * u0[k], pts[:, k:k + 1])
        X, Y = x[:, 0]
        assert np.max(np.abs(jet.x[1:, k] - x[:, 0])) <= 1e-25
        assert np.max(np.abs(jet.j[1:, 1:, k] - j[:, :, 0])) <= 1e-15
        a1, a2 = 0.6 * u1[k], 0.6 * u2[k]
        assert np.allclose(jet.j[1:, 0, k], [-a1 * Y, a1 * X],
                           rtol=1e-14, atol=1e-30)
        assert np.allclose(jet.h[1:, 0, 0, k],
                           [-a2 * Y - a1 ** 2 * X, a2 * X - a1 ** 2 * Y],
                           rtol=1e-14, atol=1e-30)
        c, s = math.cos(0.6 * u0[k]), math.sin(0.6 * u0[k])
        mixed = np.array([[-a1 * s, -a1 * c], [a1 * c, -a1 * s]])
        assert np.allclose(jet.h[1:, 0, 1:, k], mixed, rtol=1e-14)
        assert np.array_equal(jet.h[1:, 1:, 0, k], jet.h[1:, 0, 1:, k])
        assert np.all(jet.h[1:, 1:, 1:, k] == 0.0)
    assert np.all(jet.j[0] == np.array([1.0, 0.0, 0.0])[:, None])


# ----------------------------------------------------------------------
# the orientation certificate of angular links
# ----------------------------------------------------------------------

def test_orientation_refusals_state_the_bound_and_samples():
    disp = TrigPoly(0.0, [0.0], [0.6])
    # at t = 3 the slope 1 + 1.8 cos theta dips to -0.8 at the sample pi
    # of the first M = 8N = 8; the slack (pi / 8) 1.8 lowers the bound
    with pytest.raises(DomainError,
                       match=r"not certified orientation-preserving: "
                             r"min 1 \+ A_theta >= -1\.507e\+00 "
                             r"\(-8\.000e-01 without the sampling slack\) "
                             r"from M=8 samples at degree N=1"):
        AlexanderRadial(disp, cutoff_make(0.2, 0.1), 3.0)


XI_FOLD = cutoff_make(0.2, 0.15)
COS_256 = TrigPoly(0.0, [0.0] * 255 + [1.2 / 256])
SIN_128 = TrigPoly(0.0, [], [0.0] * 127 + [1.2 / 128])


@pytest.mark.parametrize("make, N", [
    # at 256 harmonics p' vanishes on 512 samples, yet min 1 + p' = -0.2
    (lambda: AlexanderRadial(COS_256, XI_FOLD), 256),
    (lambda: AngularLink(AngleDisplacement(
        [(PoweredCutoffProfile(XI_FOLD, 2), COS_256)])), 256),
    # folded between the nodes of a 64 x 128 grid, at r = 0.99
    (lambda: AngularLink(AngleDisplacement([(CutoffProfile(XI_FOLD),
                                             SIN_128)])), 128),
])
def test_folds_between_samples_are_refused_at_8n_samples(make, N):
    # min 1 + p' = -0.2 lies on the first 8N samples, so no doubling runs
    with pytest.raises(DomainError,
                       match=rf"min 1 \+ A_theta >= -[0-9.]+e-01 "
                             rf"\(-2\.000e-01 without the sampling slack\) "
                             rf"from M={8 * N} samples at degree N={N}$"):
        make()


@pytest.mark.parametrize("terms", [
    [(CutoffProfile(XI_FOLD), TrigPoly(math.nan))],
    [(CutoffProfile(XI_FOLD), TrigPoly(0.0, [0.1, math.nan]))],
    [(BumpProfile(0.2, 0.8, 0.5), TrigPoly(0.0, [], [0.1, math.nan]))],
    [(BumpProfile(0.2, 0.8, 0.5), TrigPoly(1.0)),
     (CutoffProfile(XI_FOLD), TrigPoly(0.0, [], [math.nan]))],
])
def test_nan_displacements_are_refused(terms):
    with pytest.raises(DomainError, match=r">= nan "):
        AngularLink(AngleDisplacement(terms))


def test_only_a_certified_angular_link_can_be_inverted():
    folded = AngleDisplacement([(CutoffProfile(XI_FOLD), SIN_128)])
    with pytest.raises(DomainError, match="got AngleDisplacement$"):
        diffeo.InverseAngular(folded)
    with pytest.raises(DomainError, match="got Rotation$"):
        diffeo.InverseAngular(Rotation(0.3))


def test_a_twice_inverted_chain_keeps_its_link_objects():
    g = DiscDiffeo((RadialTwist(BumpProfile(0.2, 0.8, 0.7)),
                    AlexanderRadial(TrigPoly(0.1, [0.2], [0.1]),
                                    cutoff_make(0.2, 0.1))))
    inverse = disc_invert(g)
    assert all(isinstance(link, diffeo.InverseAngular)
               for link in inverse.links)
    back = disc_invert(inverse).links
    assert len(back) == len(g.links)
    assert all(b is a for a, b in zip(g.links, back))


def test_twists_are_certified_from_no_sample():
    for link in (RadialTwist(BumpProfile(0.2, 0.8, -2.5)),
                 RadialTwist(BumpProfile(0.3, 0.7, 0.9)).scaled(0.5)):
        assert link.displacement.certify_orientation() == (1.0, 0)


def slope_on_a_dense_grid(disp):
    """1 + A_theta on 131 radii x 1024 angles, the profile edges included."""
    radii = np.linspace(0.0, 1.3, 131)
    th = np.arange(1024) * (2 * math.pi / 1024)
    R, T = (g.ravel() for g in np.meshgrid(radii, th, indexing="ij"))
    return disp.value_and_slope(disp.weights(R), T)[1]


random_profiles = st.one_of(
    st.builds(lambda e1, e2: CutoffProfile(cutoff_make(e1, e2)),
              st.floats(0.05, 0.45), st.floats(0.05, 0.45)),
    st.builds(lambda a, w, amp: BumpProfile(a, a + w, amp),
              st.floats(0.05, 0.5), st.floats(0.1, 0.45),
              st.floats(-2.0, 2.0)))
random_polys = st.builds(
    lambda c, a, b: TrigPoly(c, a, b), st.floats(-1.0, 1.0),
    st.lists(st.floats(-0.4, 0.4), max_size=3),
    st.lists(st.floats(-0.4, 0.4), max_size=3))


@given(st.lists(st.tuples(random_profiles, random_polys),
                min_size=1, max_size=2))
@settings(max_examples=80, deadline=None)
def test_every_certified_link_keeps_a_positive_slope(terms):
    disp = AngleDisplacement(terms)
    try:
        bound, _ = disp.certify_orientation()
    except DomainError:
        return
    slope = slope_on_a_dense_grid(disp)
    assert np.min(slope) > 0.0
    assert np.min(slope) >= bound - 1e-12


# ----------------------------------------------------------------------
# the turn p -> R(delta) p against the polar route: an independent oracle
# ----------------------------------------------------------------------

def polar_route_jet(pts, theta, grad, hess):
    """Reference conversion: X = r cos Theta, Y = r sin Theta as a jet in
    the angle-jet variables ((rho,) r, t), composed with the polar chart;
    the rho row is exact.  ``grad[v]`` and ``hess[v][w]`` are arrays."""
    d, n = pts.shape
    r = np.hypot(pts[-2], pts[-1])
    c, s = np.cos(theta), np.sin(theta)
    X, Y = r * c, r * s
    dr = [1.0 if v == d - 2 else 0.0 for v in range(d)]
    j = np.zeros((d, d, n))
    h = np.zeros((d, d, d, n))
    for v in range(d):
        j[-2, v] = dr[v] * c - Y * grad[v]
        j[-1, v] = dr[v] * s + X * grad[v]
        for w in range(d):
            sym = dr[v] * grad[w] + dr[w] * grad[v]
            both = grad[v] * grad[w]
            h[-2, v, w] = -s * sym - X * both - Y * hess[v][w]
            h[-1, v, w] = c * sym - Y * both + X * hess[v][w]
    polar = polar_chart_jet(pts[-2], pts[-1], r, np.arctan2(pts[-1], pts[-2]))
    cj = np.zeros((d, d, n))
    ch = np.zeros((d, d, d, n))
    cj[-2:, -2:] = polar.j
    ch[-2:, -2:, -2:] = polar.h
    if d == 3:
        j[0, 0] = cj[0, 0] = 1.0
    chart = Jet(np.concatenate([pts[:-2], polar.x]), cj, ch)
    outer_x = np.concatenate([pts[:-2], np.stack([X, Y])])
    return compose(Jet(outer_x, j, h), chart)


def random_angle_jet(d, n, seed):
    """Points with 1e-8 <= r <= 1.2 (and rho in [0, 1] for d = 3), their
    start angles and a random angle jet with every partial filled in."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(math.log(1e-8), math.log(1.2), n))
    t = rng.uniform(-math.pi, math.pi, n)
    plane = np.stack([r * np.cos(t), r * np.sin(t)])
    pts = np.concatenate([rng.uniform(0.0, 1.0, (1, n)), plane]) \
        if d == 3 else plane
    start = np.arctan2(pts[-1], pts[-2])
    theta = start + rng.uniform(-3.0, 3.0, n)
    grad = list(rng.normal(size=(d, n)))
    half = rng.normal(size=(d, d, n))
    hess = list(half + half.transpose(1, 0, 2))
    return pts, r, start, theta, grad, hess


@pytest.mark.parametrize("d", [2, 3])
def test_turn_conversion_matches_the_polar_route(d):
    pts, r, start, theta, grad, hess = random_angle_jet(d, 4000, seed=101 + d)
    jet = diffeo._turn_jet(pts, r, start, theta, grad,
                           {(a, b): hess[a][b]
                            for a in range(d) for b in range(a, d)})
    ref = polar_route_jet(pts, theta, grad, hess)
    # entries grow like 1 / r toward the origin: compare node by node
    # against the size of the node's largest entry (measured: j to 5e-16,
    # h to 2.5e-14 of it over five seeds)
    scale = np.maximum(1.0, np.max(np.abs(ref.h.reshape(-1, r.size)), axis=0))
    assert np.max(np.abs(jet.x - ref.x)) <= 1e-15
    assert np.max(np.abs(jet.j - ref.j) / scale) <= 2e-15
    assert np.max(np.abs(jet.h - ref.h) / scale) <= 1e-13
    if d == 3:
        assert np.array_equal(jet.x[0], pts[0])
        assert np.all(jet.j[0] == np.array([1.0, 0.0, 0.0])[:, None])
        assert np.all(jet.h[0] == 0.0)


@pytest.mark.parametrize("alpha", [0.6, -2.5, 3.0])
def test_rotation_link_jet_is_the_exact_rotation_jet(alpha):
    link = Rotation(alpha)
    origin = np.array([[0.0, 1e-10, -3e-10], [0.0, 0.0, 2e-10]])
    for pts in (DiscGrid().xy, origin):
        jet = link.jet(pts)
        x, j = rotation_jet(alpha, pts)
        assert np.all(jet.h == 0.0)
        assert np.max(np.abs(jet.j - j)) <= 4.5e-16
        assert np.max(np.abs(jet.x - x)) <= 1e-15
    assert np.array_equal(jet.x[:, 0], [0.0, 0.0])      # the origin stays


def test_turn_jet_takes_the_chart_at_the_run_radius_and_start_angle(
        monkeypatch):
    pts = np.concatenate([DiscGrid(8, 16).xy, [[0.0], [0.0]]], axis=1)
    g = DiscDiffeo((Rotation(0.6), every_disc_link()["alexander"]))
    seen = []

    def given(x, y, r, th):
        seen.append((r, th))
        return polar_chart_jet(x, y, r, th)

    monkeypatch.setattr(diffeo, "polar_chart_jet", given)
    jet = g.jet(pts)
    (r, th), = seen
    assert np.array_equal(r[:-1], np.hypot(pts[0, :-1], pts[1, :-1]))
    assert np.array_equal(th[:-1], np.arctan2(pts[1, :-1], pts[0, :-1]))
    assert (r[-1], th[-1]) == (1.0, 0.0)       # the origin guard
    monkeypatch.setattr(diffeo, "polar_chart_jet",
                        lambda x, y, r, th: polar_chart_jet(
                            x, y, np.hypot(x, y), np.arctan2(y, x)))
    again = g.jet(pts)
    for a, b in ((jet.x, again.x), (jet.j, again.j), (jet.h, again.h)):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# sampled boundary guards name what they sampled
# ----------------------------------------------------------------------

def test_parameter_zero_error_names_the_worst_sample():
    disp = TrigPoly(0.0, [0.4])
    alex = AlexanderRadial(disp, cutoff_make(0.2, 0.1), 1.0)
    bad = DiscDiffeo.from_link(alex.inverse_link())
    # the inverse link turns most where the cutoff is 1: the r = 0.95 ring
    with pytest.raises(DomainError,
                       match=r"a coordinate moves by \d\.\d{3}e-01 at r=0\.95, "
                             r"theta=[0-9.]+; worst of 256 samples"):
        ball_extend(bad, cutoff_make(0.2, 0.1))


def test_sphere_extend_error_names_the_worst_sample():
    alex = DiscDiffeo.from_link(AlexanderRadial(
        TrigPoly(0.0, [0.4]), cutoff_make(0.2, 0.1)))
    with pytest.raises(NotBoundaryTrivialError,
                       match=r"boundary circle \(a coordinate moves by "
                             r"\d\.\d{3}e-01 at r=0\.975; worst of 512 "
                             r"samples\)"):
        require_boundary_trivial(
            alex, 0.1, "disc map is not the identity near the boundary circle")
