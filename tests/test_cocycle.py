"""Tests for the group 2-cocycle, the Wess-Zumino term and its coboundary.

Oracles: the gamma pin comes from a disc-grid refinement ladder (n_r, n_theta
doubled twice; the two finest values agree to 6e-13); omega0 pins come from a
ball-grid ladder (56x144 reference).  Exact-zero cases (identity factors,
rotations, equal arguments) must come out exactly zero because the integrands
vanish pointwise.  Everything else asserts the algebraic identities the
extension construction lives on, at default grids with refinement decay.
"""

import concurrent.futures
import ctypes
import gc
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from virbott import cocycle
from virbott.cocycle import (
    CheckResult,
    CocycleConfig,
    ExtElement,
    delta_g_residual,
    ext_mul,
    gamma,
    gamma_m,
    omega0,
    w_coboundary_residual,
    wz_term,
)
from virbott.diffeo import (
    FD4,
    AlexanderRadial,
    AngleDisplacement,
    AngularLink,
    BallDiffeo,
    BumpProfile,
    CutoffProfile,
    DiscDiffeo,
    Jet,
    PoweredCutoffProfile,
    RadialTwist,
    Rotation,
    ball_compose,
    ball_extend,
    conjugated_extension,
    cutoff_make,
    disc_compose,
    disc_invert,
)
from virbott.errors import (
    DomainError,
    NotBoundaryTrivialError,
    NumericError,
    SupportError,
)
from virbott.forms import (
    BallGrid,
    DiscGrid,
    mc_components,
    wedge_trace_2form,
    wedge_trace_cube,
)
from virbott.trigpoly import TrigPoly

# refined-ladder pin for gamma(ALEX, TW_SHARP) at c0 = 1 (see module docstring)
GAMMA_PIN = 11.96882803405974
# ball-ladder pin for omega0(TW1) with XI grading
OMEGA0_TW1_PIN = 0.191908622860

XI = cutoff_make(0.05, 0.05)
XI_B = cutoff_make(0.10, 0.10)

# gentle wide-window twists: quadrature-converged at the default ball grid
TW1 = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.10, 0.90, 0.12)))
TW2 = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.12, 0.88, -0.10)))
TW3 = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.15, 0.85, 0.08)))
TW_SHARP = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.25, 0.85, 0.8)))

DISP = TrigPoly(0.0, [0.35, 0.0], [0.0, -0.15])
ALEX = DiscDiffeo.from_link(AlexanderRadial(DISP, cutoff_make(0.2, 0.15), 1.0))
ROT = DiscDiffeo.from_link(Rotation(0.7))

CFG = CocycleConfig()
CFG_SMALL = CocycleConfig(1.0, DiscGrid(32, 96), BallGrid(10, 24))
CFG_BALL_REFINED = CocycleConfig(1.0, DiscGrid(96, 256), BallGrid(48, 128))


# ----------------------------------------------------------------------
# configuration and result records
# ----------------------------------------------------------------------

def test_config_defaults_and_refined():
    cfg = CocycleConfig()
    assert (cfg.disc_grid.n_r, cfg.disc_grid.n_theta) == (96, 256)
    assert (cfg.ball_grid.n_rho, cfg.ball_grid.n_plane) == (24, 64)
    with pytest.raises(DomainError):
        CocycleConfig(float("nan"))


def test_check_result_boundary_and_serialization():
    ok = CheckResult("x", "lhs = rhs", 1e-9, 1e-9)
    assert ok.passed                      # equality counts as a pass
    bad = CheckResult("x", "lhs = rhs", 2e-9, 1e-9, {"seed": 3})
    assert not bad.passed and "FAIL" in repr(bad)
    blob = json.dumps(bad.as_dict())
    assert json.loads(blob)["pass"] is False


# ----------------------------------------------------------------------
# gamma: pins, exact zeros, algebraic identities
# ----------------------------------------------------------------------

def test_gamma_refined_ladder_pin():
    assert abs(gamma(ALEX, TW_SHARP, CFG) - GAMMA_PIN) < 5e-9


def test_gamma_identity_factors_are_exactly_zero():
    eye = DiscDiffeo.identity()
    assert gamma_m(eye, ALEX, CFG_SMALL) == 0.0
    assert gamma_m(ALEX, eye, CFG_SMALL) == 0.0


def test_gamma_rotation_pair_is_exactly_zero():
    r1 = DiscDiffeo.from_link(Rotation(0.3))
    r2 = DiscDiffeo.from_link(Rotation(1.1))
    assert gamma(r1, r2, CFG_SMALL) == 0.0


def test_gamma_normalization_and_antisymmetry():
    g = disc_compose(ALEX, ROT)
    assert abs(gamma(g, disc_invert(g), CFG)) <= 1e-8
    anti = gamma(g, TW_SHARP, CFG) + gamma(disc_invert(TW_SHARP),
                                           disc_invert(g), CFG)
    assert abs(anti) <= 1e-8


@pytest.mark.parametrize("triple", [
    ("alex,tw,alex2"),
    ("chain,tw2,alex2"),
])
def test_gamma_two_cocycle_identity(triple):
    disp2 = TrigPoly(0.0, [-0.2], [0.25])
    alex2 = DiscDiffeo.from_link(AlexanderRadial(disp2, cutoff_make(0.2, 0.15),
                                                 0.8))
    a, b, c = {
        "alex,tw,alex2": (ALEX, TW_SHARP, alex2),
        "chain,tw2,alex2": (disc_compose(ALEX, ROT), TW2, alex2),
    }[triple]
    res = (gamma(a, b, CFG) + gamma(disc_compose(a, b), c, CFG)
           - gamma(b, c, CFG) - gamma(a, disc_compose(b, c), CFG))
    assert abs(res) <= 1e-7


def test_gamma_scales_linearly_in_c0():
    base = gamma(ALEX, TW1, CFG_SMALL)
    scaled = gamma(ALEX, TW1, CocycleConfig(2.5, CFG_SMALL.disc_grid,
                                            CFG_SMALL.ball_grid))
    assert abs(scaled - 2.5 * base) <= 1e-15 * max(1.0, abs(base))


def test_gamma_cache_is_deterministic_and_thread_safe():
    first = gamma_m(ALEX, TW1, CFG_SMALL)
    assert gamma_m(ALEX, TW1, CFG_SMALL) == first
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        vals = list(pool.map(
            lambda _: gamma_m(ALEX, TW1, CFG_SMALL), range(16)))
    assert set(vals) == {first}


@pytest.fixture
def gamma_integrals(monkeypatch):
    """An empty gamma cache, and the grids of the gamma integrals computed
    (the cache misses)."""
    monkeypatch.setattr(cocycle, "_GAMMA_CACHE", OrderedDict())
    computed = []
    integrate = cocycle.integrate_disc

    def counting(vals, grid):
        computed.append(grid)
        return integrate(vals, grid)

    monkeypatch.setattr(cocycle, "integrate_disc", counting)
    return computed


def test_gamma_cache_evicts_the_least_recently_used_entry(monkeypatch,
                                                          gamma_integrals):
    monkeypatch.setattr(cocycle, "_GAMMA_CACHE_SIZE", 2)
    computed = gamma_integrals
    gamma_m(TW1, ALEX, CFG_SMALL)
    gamma_m(TW2, ALEX, CFG_SMALL)
    gamma_m(TW1, ALEX, CFG_SMALL)        # a hit refreshes (TW1, ALEX)
    assert len(computed) == 2
    gamma_m(TW3, ALEX, CFG_SMALL)        # evicts the oldest, (TW2, ALEX)
    assert len(cocycle._GAMMA_CACHE) == 2
    gamma_m(TW1, ALEX, CFG_SMALL)
    assert len(computed) == 3
    gamma_m(TW2, ALEX, CFG_SMALL)
    assert len(computed) == 4


def test_gamma_cache_stays_bounded_under_concurrent_eviction(monkeypatch):
    monkeypatch.setattr(cocycle, "_GAMMA_CACHE", OrderedDict())
    monkeypatch.setattr(cocycle, "_GAMMA_CACHE_SIZE", 2)
    cfg = CocycleConfig(1.0, DiscGrid(8, 16), BallGrid(4, 8))
    pairs = [(TW1, ALEX), (TW2, ALEX), (TW3, ALEX)]
    want = [full_gamma_m(g, h, cfg) for g, h in pairs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda i: gamma_m(*pairs[i % 3], cfg),
                                range(240), timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert got == [want[i % 3] for i in range(240)]
    assert len(cocycle._GAMMA_CACHE) <= 2


def test_gamma_cache_keeps_its_links_alive_until_cleared(gamma_integrals):
    # a key holds its link objects, so no new link can take a cached
    # link's id; clearing the cache lets them go.  Links declare
    # __slots__ without __weakref__, so the test tracks a subclass
    class Tracked(AngularLink):
        pass

    link = Tracked(AngleDisplacement([(BumpProfile(0.2, 0.8, 0.3),
                                       TrigPoly(1.0))]))
    ref = weakref.ref(link)
    gamma_m(DiscDiffeo.from_link(link), ALEX,
            CocycleConfig(1.0, DiscGrid(8, 16)))
    del link
    gc.collect()
    assert ref() is not None
    cocycle._GAMMA_CACHE.clear()
    gc.collect()
    assert ref() is None


def test_gamma_cache_keys_on_grid_sizes_and_plan_kind(gamma_integrals):
    first = gamma_m(TW1, ALEX, CocycleConfig(1.0, DiscGrid(8, 16)))
    # another grid object of the same sizes shares the value
    assert gamma_m(TW1, ALEX, CocycleConfig(2.0, DiscGrid(8, 16))) == first
    assert len(gamma_integrals) == 1
    for cfg in (CocycleConfig(1.0, DiscGrid(8, 32)),
                CocycleConfig(1.0, DiscGrid(12, 16)),
                CocycleConfig(1.0, DiscGrid(8, 16), plan=FD4)):
        gamma_m(TW1, ALEX, cfg)
    assert len(gamma_integrals) == 4
    # the cache holds no grid, and so none of a grid's arrays
    assert not any(isinstance(part, DiscGrid)
                   for key in cocycle._GAMMA_CACHE for part in key)


def test_equal_but_distinct_links_are_computed_apart(gamma_integrals):
    cfg = CocycleConfig(1.0, DiscGrid(8, 16))
    twists = [DiscDiffeo.from_link(RadialTwist(BumpProfile(0.2, 0.8, 0.3)))
              for _ in range(2)]
    values = [gamma_m(tw, ALEX, cfg) for tw in twists]
    assert len(gamma_integrals) == 2
    assert values[0] == values[1]
    # a composition and a double inverse reuse their link objects
    composed = gamma_m(disc_compose(twists[0], ALEX), ALEX, cfg)
    computed = len(gamma_integrals)
    assert gamma_m(disc_compose(twists[0], ALEX), ALEX, cfg) == composed
    assert gamma_m(disc_invert(disc_invert(twists[0])), ALEX, cfg) \
        == values[0]
    assert len(gamma_integrals) == computed


# ----------------------------------------------------------------------
# extension multiplication and the section h -> (h, omega0(h))
# ----------------------------------------------------------------------

def test_ext_mul_central_coordinate_law():
    e1 = ExtElement(ALEX, 0.25)
    e2 = ExtElement(TW1, -1.5)
    prod = ext_mul(e1, e2, CFG_SMALL)
    assert prod.a == 0.25 - 1.5 + gamma(ALEX, TW1, CFG_SMALL)
    assert len(prod.g.links) == len(ALEX.links) + len(TW1.links)


def test_ext_mul_is_associative():
    e1, e2, e3 = ExtElement(ALEX, 0.1), ExtElement(TW1, 0.2), \
        ExtElement(ROT, -0.3)
    left = ext_mul(ext_mul(e1, e2, CFG), e3, CFG)
    right = ext_mul(e1, ext_mul(e2, e3, CFG), CFG)
    assert abs(left.a - right.a) <= 1e-7


def section(h, cfg):
    """The section h -> (h, omega0(h)) over the boundary-trivial subgroup."""
    return ExtElement(h, omega0(h, cfg, xi=XI))


def test_iota_of_identity_is_zero():
    assert section(DiscDiffeo.identity(), CFG_SMALL).a == 0.0


def test_iota_central_coordinate_is_c0_times_wz():
    cfg = CocycleConfig(1.7, CFG_SMALL.disc_grid, CFG_SMALL.ball_grid)
    assert section(TW1, cfg).a == 1.7 * wz_term(ball_extend(TW1, XI), cfg)


def test_iota_is_a_homomorphism_on_gentle_pairs():
    prod = ext_mul(section(TW1, CFG), section(TW2, CFG), CFG)
    direct = section(disc_compose(TW1, TW2), CFG)
    assert abs(prod.a - direct.a) <= 1e-5


def test_iota_rejects_non_boundary_trivial_elements():
    with pytest.raises(NotBoundaryTrivialError):
        omega0(ROT, CFG_SMALL)
    with pytest.raises(NotBoundaryTrivialError):
        omega0(ALEX, CFG_SMALL)


# ----------------------------------------------------------------------
# the Wess-Zumino term
# ----------------------------------------------------------------------

def test_wz_of_identity_is_exactly_zero():
    assert wz_term(BallDiffeo.identity(), CFG_SMALL) == 0.0


def test_wz_rejects_disc_maps():
    with pytest.raises(DomainError):
        wz_term(TW1, CFG_SMALL)


class _LeakyBall(BallDiffeo):
    """Jet double with non-commuting curvature all the way to the box edge.

    Radius-preserving links always kill the cube on the flat tails, so the
    support guard needs a synthetic jet to be exercised at all.
    """

    def __init__(self):
        super().__init__([])

    def jet(self, pts3, plan=None):
        out = Jet.identity(pts3)
        out.h[0, 1, 0, :] = 1.0      # a_rho = E01
        out.h[1, 2, 1, :] = 1.0      # a_x   = E12
        out.h[2, 0, 2, :] = 1.0      # a_y   = E20
        return out


def test_wz_raises_when_integrand_reaches_the_box_edge():
    with pytest.raises(SupportError):
        wz_term(_LeakyBall(), CFG_SMALL)


def test_box_edge_error_names_the_samples_and_the_worst_one():
    # every sample reads tr(a^3) = 3; the first is the worst one named
    count = CFG_SMALL.ball_grid.edge_points.shape[1]
    with pytest.raises(SupportError, match=re.escape(
            "reaches the box edge (3.000e+00 at rho=0.05, x=1.25, y=-1.25; "
            f"worst of {count} edge samples)")):
        wz_term(_LeakyBall(), CFG_SMALL)


def test_omega0_matches_ball_ladder_pin():
    assert abs(omega0(TW1, CFG, xi=XI) - OMEGA0_TW1_PIN) <= 2e-6


def test_wz_vanishes_on_boundary_trivial_layerings():
    # grading returns to zero at rho = 1, so the boundary layer is the
    # identity and W must vanish with it
    ball = ball_extend(TW_SHARP, cutoff_make(0.2, 0.15),
                       profile=BumpProfile(0.2, 0.8, 0.9))
    assert abs(wz_term(ball, CFG)) <= 1e-9


def test_wz_depends_only_on_the_boundary_value():
    w_a = wz_term(ball_extend(TW1, XI), CFG)
    w_b = wz_term(ball_extend(TW1, XI_B), CFG)
    w_c = wz_term(ball_extend(TW1, XI, profile=PoweredCutoffProfile(XI, 2)),
                  CFG)
    assert abs(w_a - w_b) <= 1e-6
    assert abs(w_a - w_c) <= 1e-6


# ----------------------------------------------------------------------
# coboundary identities
# ----------------------------------------------------------------------

def test_omega0_coboundary_equals_gamma_with_decay():
    def residual(cfg):
        return abs(omega0(disc_compose(TW1, TW2), cfg, xi=XI)
                   - omega0(TW1, cfg, xi=XI) - omega0(TW2, cfg, xi=XI)
                   - gamma(TW1, TW2, cfg))
    at_default = residual(CFG)
    assert at_default <= 1e-5
    assert residual(CFG_BALL_REFINED) <= at_default / 4.0


def test_delta_g_identity_conjugator_is_exactly_zero():
    assert delta_g_residual(DiscDiffeo.identity(), TW1, CFG_SMALL) == 0.0


def test_delta_g_rotation_conjugator():
    assert delta_g_residual(ROT, TW1, CFG) <= 1e-5


def test_delta_g_alexander_conjugator_with_decay():
    at_default = delta_g_residual(ALEX, TW1, CFG, xi=XI)
    assert at_default <= 1e-4
    assert delta_g_residual(ALEX, TW1, CFG_BALL_REFINED, xi=XI) \
        <= at_default / 4.0


def test_delta_g_rejects_non_boundary_trivial_h():
    with pytest.raises(NotBoundaryTrivialError):
        delta_g_residual(ROT, ALEX, CFG_SMALL)


class _SelfInverseRotation(Rotation):
    """A rotation that claims to be its own inverse: conjugating by it turns
    the boundary circle by twice its angle."""

    def inverse_link(self):
        return Rotation(self.alpha)


def test_boundary_triviality_errors_name_the_worst_sample():
    # a rotation moves the outer sampled ring, r = 1 - eps / 4, the most
    worst = r"a coordinate moves by \d\.\d{3}e-01 at r=0\.9875; worst of 512 " \
        r"samples\)"
    with pytest.raises(NotBoundaryTrivialError,
                       match=r"subgroup only \(" + worst):
        omega0(ROT, CFG_SMALL)
    with pytest.raises(NotBoundaryTrivialError,
                       match=r"boundary-trivial h only \(" + worst):
        delta_g_residual(ALEX, ROT, CFG_SMALL)
    with pytest.raises(NotBoundaryTrivialError,
                       match=r"boundary-triviality check \(" + worst):
        delta_g_residual(DiscDiffeo.from_link(_SelfInverseRotation(0.3)),
                         TW1, CFG_SMALL)


def test_w_coboundary_against_identity_is_exactly_zero():
    ball = ball_extend(TW1, XI)
    assert w_coboundary_residual(ball, BallDiffeo.identity(),
                                 CFG_SMALL) == 0.0


def test_w_coboundary_identity_boundary_layer_specialization():
    # g's grading returns to zero at rho = 1: theta(g|_{S^2}) = 0 and the
    # surface term drops out
    g_inner = ball_extend(TW1, XI, profile=BumpProfile(0.10, 0.90, 1.0))
    h = ball_extend(TW2, XI)
    assert w_coboundary_residual(g_inner, h, CFG) <= 1e-5


def test_w_coboundary_generic_pair_with_decay():
    ba = ball_extend(TW1, XI)
    bb = ball_extend(TW2, XI)
    at_default = w_coboundary_residual(ba, bb, CFG)
    assert at_default <= 1e-4
    assert w_coboundary_residual(ba, bb, CFG_BALL_REFINED) \
        <= at_default / 4.0


def test_plane_edge_error_names_the_samples_and_the_worst_one(monkeypatch):
    # a surface density of 1 everywhere reaches the plane-box edge
    monkeypatch.setattr(
        cocycle, "_wedge_2form",
        lambda g, hinv, plan: lambda pts: np.ones(pts.shape[1]))
    ba = ball_extend(TW1, XI)
    with pytest.raises(SupportError,
                       match=r"boundary surface term reaches the "
                             r"plane-box edge \(\S+ at x=\S+, y=\S+; "
                             r"worst of 260 edge samples\)"):
        w_coboundary_residual(ba, ba, CFG_SMALL)


# ----------------------------------------------------------------------
# integrals over moved nodes only equal full-grid integrals bit for bit
# ----------------------------------------------------------------------

@pytest.fixture
def cold_gamma(monkeypatch):
    monkeypatch.setattr(cocycle, "_GAMMA_CACHE", OrderedDict())


@pytest.fixture
def jet_nodes(monkeypatch):
    """Node counts of every disc and ball chain jet evaluated."""
    seen = {"disc": [], "ball": []}
    for key, cls in (("disc", DiscDiffeo), ("ball", BallDiffeo)):
        def recording(self, pts, plan=cocycle.ANALYTIC, _orig=cls.jet,
                      _seen=seen[key]):
            _seen.append(pts.shape[1])
            return _orig(self, pts, plan)
        monkeypatch.setattr(cls, "jet", recording)
    return seen


def full_sum(vals, weights):
    """Every weighted node, zero or not, in one exactly rounded sum."""
    return math.fsum((vals * weights).tolist())


def full_gamma_m(g, h, cfg):
    grid = cfg.disc_grid
    vals = wedge_trace_2form(
        mc_components(g.jet(grid.xy, cfg.plan)),
        mc_components(disc_invert(h).jet(grid.xy, cfg.plan)))
    return full_sum(vals, grid.weights)


def full_wz(B, cfg):
    grid = cfg.ball_grid
    vals = wedge_trace_cube(mc_components(B.jet(grid.nodes, cfg.plan)))
    return full_sum(vals, grid.weights)


def full_w_coboundary(g, h, cfg):
    pts, w, _ = cocycle._plane_quad(cfg.ball_grid)
    vals = wedge_trace_2form(
        mc_components(g.boundary_map().jet(pts, cfg.plan)),
        mc_components(disc_invert(h.boundary_map()).jet(pts, cfg.plan)))
    return abs(full_wz(ball_compose(g, h), cfg) - full_wz(g, cfg)
               - full_wz(h, cfg) - 3.0 * full_sum(vals, w))


# TW1, ROT and ALEX are the verify suite's _TW_A, _ROT and _ALEX
GAMMA_PAIRS = {
    "twist-alexander": (TW1, ALEX),
    "alexander-twist": (ALEX, TW_SHARP),
    "rotation-twist": (ROT, TW1),
    "alexander-rotation": (ALEX, ROT),
    "identity-alexander": (DiscDiffeo.identity(), ALEX),
    "chain-twist": (disc_compose(ALEX, TW1), TW2),
}


@pytest.mark.parametrize("name", sorted(GAMMA_PAIRS))
def test_masked_gamma_equals_the_full_grid_sum(name, cold_gamma, jet_nodes):
    g, h = GAMMA_PAIRS[name]
    assert gamma_m(g, h, CFG_SMALL) == full_gamma_m(g, h, CFG_SMALL)


def test_masked_gamma_skips_the_fixed_nodes(cold_gamma, jet_nodes):
    gamma_m(TW1, ALEX, CFG_SMALL)
    npts = CFG_SMALL.disc_grid.npts
    assert jet_nodes["disc"] and max(jet_nodes["disc"]) < npts


def ball_maps():
    return {
        "twist": ball_extend(TW1, XI),
        "alexander": ball_extend(ALEX, XI),
        "rotation": ball_extend(ROT, XI),
        "identity": ball_extend(DiscDiffeo.identity(), XI),
        "conj-rotation": conjugated_extension(ROT, TW1, XI),
        "conj-alexander": conjugated_extension(ALEX, TW1, XI),
    }


def w_support(B, grid):
    """(rho layers, plane points) where W's integrand may be nonzero, read
    off B's graded layers: the layers where a profile has c' or c'' != 0,
    and the plane points a graded layer moves."""
    n2 = grid.n_plane ** 2
    rho = grid.nodes[0].reshape(grid.n_rho, n2)[:, 0]
    r = np.hypot(grid.nodes[1, :n2], grid.nodes[2, :n2])
    layers = np.zeros(grid.n_rho, dtype=bool)
    plane = np.zeros(n2, dtype=bool)
    for layer in B.links:
        if layer.profile is not None:
            _, c1, c2 = layer.profile.jets(rho)
            layers |= (c1 != 0.0) | (c2 != 0.0)
            plane |= layer.radial_moves(r)
    return layers, plane


# flat for rho <= 0.3 and rho >= 0.7, so on 8 of CFG_SMALL's 10 rho layers
FLAT_ENDS = CutoffProfile(cutoff_make(0.3, 0.3))


def w_support_maps():
    """ball_maps() with a frozen-only map (every layer a conjugator, so W
    does not depend on rho anywhere) and twists graded by FLAT_ENDS."""
    return {**ball_maps(),
            "frozen": conjugated_extension(ALEX, DiscDiffeo.identity(), XI),
            "flat-layers": ball_extend(TW1, XI, profile=FLAT_ENDS),
            "conj-flat-layers": conjugated_extension(ALEX, TW1, XI,
                                                     profile=FLAT_ENDS)}


@pytest.mark.parametrize("name", ["twist", "alexander", "rotation",
                                  "identity", "conj-rotation",
                                  "conj-alexander", "frozen", "flat-layers",
                                  "conj-flat-layers"])
def test_masked_wz_equals_the_full_grid_sum(name):
    B = w_support_maps()[name]
    assert wz_term(B, CFG_SMALL) == full_wz(B, CFG_SMALL)


@pytest.mark.parametrize("name", sorted(w_support_maps()))
def test_w_density_is_exactly_zero_off_its_support(name):
    # W's integrand is 3 tr(theta_rho [theta_x, theta_y]), and theta_rho is
    # an exact +-0 wherever the map does not depend on rho
    B = w_support_maps()[name]
    grid = CFG_SMALL.ball_grid
    vals = wedge_trace_cube(mc_components(B.jet(grid.nodes)))
    layers, plane = w_support(B, grid)
    skipped = ~np.outer(layers, plane).ravel()
    assert np.count_nonzero(skipped) >= 2 * plane.size
    assert np.all(vals[skipped] == 0.0)


def test_wz_takes_its_integrand_on_varying_layers_only(jet_nodes):
    B = w_support_maps()["flat-layers"]
    grid = CFG_SMALL.ball_grid
    layers, plane = w_support(B, grid)
    assert np.count_nonzero(layers) == 2
    assert wz_term(B, CFG_SMALL) != 0.0
    _, *interior = jet_nodes["ball"]            # after the edge samples
    assert interior == [2 * np.count_nonzero(plane)]


def test_frozen_only_map_evaluates_no_interior_node(jet_nodes):
    B = w_support_maps()["frozen"]
    grid = CFG_SMALL.ball_grid
    assert B.moves(grid.nodes[:, :grid.n_plane ** 2]).any()
    assert wz_term(B, CFG_SMALL) == 0.0
    assert jet_nodes["ball"] == [grid.edge_points.shape[1]]


class _NaNCurvatureProfile(CutoffProfile):
    """XI with c'' = NaN above rho = 0.96, where XI is flat: on CFG_SMALL
    that is the top rho layer, which W skips when c'' is 0."""

    __slots__ = ()

    def jets(self, r):
        c0, c1, c2 = super().jets(r)
        return c0, c1, np.where(r > 0.96, np.nan, c2)


def test_a_nan_profile_curvature_keeps_its_layer():
    # NaN != 0, so the layer stays in W and the quadrature refuses it
    B = ball_extend(TW1, XI, profile=_NaNCurvatureProfile(XI))
    assert w_support(B, CFG_SMALL.ball_grid)[0][-1]
    with pytest.raises(NumericError, match="non-finite"):
        wz_term(B, CFG_SMALL)


def test_masked_wz_skips_the_fixed_nodes(jet_nodes):
    wz_term(ball_extend(TW1, XI), CFG_SMALL)
    # the last call is the interior; the first the box-edge samples
    assert jet_nodes["ball"][0] == CFG_SMALL.ball_grid.edge_points.shape[1]
    assert 0 < jet_nodes["ball"][-1] < CFG_SMALL.ball_grid.npts


@pytest.mark.parametrize("pair", [("twist", "identity"),
                                  ("twist", "conj-rotation"),
                                  ("conj-alexander", "twist"),
                                  ("alexander", "rotation")])
def test_masked_w_coboundary_equals_the_full_grid_sums(pair):
    maps = ball_maps()
    g, h = maps[pair[0]], maps[pair[1]]
    assert w_coboundary_residual(g, h, CFG_SMALL) \
        == full_w_coboundary(g, h, CFG_SMALL)


def test_fd4_plan_integrates_every_node(cold_gamma, jet_nodes):
    # a stencil at a fixed node can reach into the support
    cfg = CocycleConfig(1.0, DiscGrid(16, 32), BallGrid(6, 12), plan=FD4)
    val = gamma_m(TW1, ALEX, cfg)
    assert jet_nodes["disc"] == [cfg.disc_grid.npts] * 2
    assert val == full_gamma_m(TW1, ALEX, cfg)


# ----------------------------------------------------------------------
# integrands go in node blocks of at most cocycle._BLOCK
# ----------------------------------------------------------------------

@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(cocycle, "_BLOCK", 256)


# pairs whose inverse factor needs no Newton step: twists are inverted by
# their exact seed, rotations in closed form
EXACT_GAMMA_PAIRS = ["alexander-twist", "rotation-twist",
                     "alexander-rotation", "chain-twist"]


@pytest.mark.parametrize("name", EXACT_GAMMA_PAIRS)
def test_blocked_gamma_equals_the_full_grid_sum(name, cold_gamma,
                                                small_blocks):
    g, h = GAMMA_PAIRS[name]
    assert gamma_m(g, h, CFG_SMALL) == full_gamma_m(g, h, CFG_SMALL)


@pytest.mark.parametrize("name", ["twist-alexander", "identity-alexander"])
def test_blocked_gamma_with_a_newton_inverse_agrees_to_rounding(
        name, cold_gamma, small_blocks):
    # solve_increasing steps a whole batch until its slowest node
    # converges, so a block split can move a node's root by a rounding
    # (measured: twist-alexander moves by 4.4e-15 of 0.037, 1.2e-13 of it)
    g, h = GAMMA_PAIRS[name]
    full = full_gamma_m(g, h, CFG_SMALL)
    assert abs(gamma_m(g, h, CFG_SMALL) - full) <= 2e-13 * abs(full)


@pytest.mark.parametrize("name", ["twist", "alexander", "rotation",
                                  "identity", "conj-rotation"])
def test_blocked_wz_equals_the_full_grid_sum(name, small_blocks):
    B = ball_maps()[name]
    assert wz_term(B, CFG_SMALL) == full_wz(B, CFG_SMALL)


def test_blocked_wz_with_a_newton_inverse_agrees_to_rounding(small_blocks):
    B = ball_maps()["conj-alexander"]
    full = full_wz(B, CFG_SMALL)
    assert abs(wz_term(B, CFG_SMALL) - full) <= 2e-13 * abs(full)


@pytest.mark.parametrize("pair", [("twist", "identity"),
                                  ("twist", "conj-rotation"),
                                  ("alexander", "rotation")])
def test_blocked_w_coboundary_equals_the_full_grid_sums(pair, small_blocks):
    maps = ball_maps()
    g, h = maps[pair[0]], maps[pair[1]]
    assert w_coboundary_residual(g, h, CFG_SMALL) \
        == full_w_coboundary(g, h, CFG_SMALL)


def test_no_density_call_sees_more_than_a_block(cold_gamma, jet_nodes,
                                                small_blocks):
    gamma_m(TW1, ALEX, CFG_SMALL)
    assert jet_nodes["disc"] and max(jet_nodes["disc"]) <= 256
    B = ball_extend(TW1, XI)
    wz_term(B, CFG_SMALL)
    # the first ball call is the box-edge samples, checked unmasked
    edge, *interior = jet_nodes["ball"]
    assert edge == CFG_SMALL.ball_grid.edge_points.shape[1]
    assert interior and max(interior) <= 256
    layers, plane = w_support(B, CFG_SMALL.ball_grid)
    assert sum(interior) == np.count_nonzero(layers) * np.count_nonzero(plane)


def test_wz_masks_each_plane_point_once(monkeypatch):
    # a layered map's mask depends on the plane point only, so W takes it
    # on one layer's plane points, not on every node of the grid
    seen = []

    def recording(self, pts, _orig=BallDiffeo.moves):
        seen.append(pts.shape[1])
        return _orig(self, pts)

    monkeypatch.setattr(BallDiffeo, "moves", recording)
    for name in ("twist", "conj-alexander"):
        seen.clear()
        wz_term(ball_maps()[name], CFG_SMALL)
        assert seen == [CFG_SMALL.ball_grid.n_plane ** 2]


def test_wz_refuses_a_box_whose_plane_nodes_the_map_misses(monkeypatch):
    # on [-100, 100]^2 no plane node of a 24^2 grid lands in the unit disc,
    # so W would read 0 unchecked; under either plan that raises
    for plan in (CFG_SMALL.plan, FD4):
        far = CocycleConfig(1.0, DiscGrid(32, 96), BallGrid(4, 24, 100.0),
                            plan)
        with pytest.raises(DomainError, match=r"moves no plane node of the "
                                              r"box L = 100\.0"):
            wz_term(ball_extend(TW1, XI), far)
    # a ball map with no links, and one whose W is exactly 0 although it
    # moves every node (rigid rotations graded in rho), read 0 and pass
    assert wz_term(BallDiffeo(()), CFG_SMALL) == 0.0
    seen = []

    def recording(self, pts, _orig=BallDiffeo.moves):
        seen.append(pts.shape[1])
        return _orig(self, pts)

    monkeypatch.setattr(BallDiffeo, "moves", recording)
    assert wz_term(ball_extend(ROT, XI), CFG_SMALL) == 0.0
    assert seen == [CFG_SMALL.ball_grid.n_plane ** 2] * 2


def test_gamma_masks_each_factor_once_over_the_grid(cold_gamma, monkeypatch,
                                                   small_blocks):
    # the disc grid is one layer, so its 3072 nodes are masked in one call
    # per factor however many blocks the density takes
    seen = []

    def recording(self, pts, _orig=DiscDiffeo.moves):
        seen.append(pts.shape[1])
        return _orig(self, pts)

    monkeypatch.setattr(DiscDiffeo, "moves", recording)
    gamma_m(TW1, ALEX, CFG_SMALL)
    assert seen == [CFG_SMALL.disc_grid.npts] * 2


# CFG_SMALL's layers hold 24^2 = 576 nodes: 256 splits each in three
# pieces, 576 and 1000 take one layer per call, 1729 three, of the 8 rho
# layers where XI varies
@pytest.mark.parametrize("block", [256, 576, 1000, 1729])
def test_ball_groups_hold_whole_layers_or_layer_pieces(block, jet_nodes,
                                                       monkeypatch):
    monkeypatch.setattr(cocycle, "_BLOCK", block)
    grid = CFG_SMALL.ball_grid
    n2 = grid.n_plane ** 2
    B = ball_extend(TW1, XI)
    val = wz_term(B, CFG_SMALL)
    layers, plane = w_support(B, grid)
    varying = np.count_nonzero(layers)
    assert varying == 8
    span, per = min(block, n2), max(1, block // n2)
    pieces = [np.count_nonzero(plane[lo:lo + span])
              for lo in range(0, n2, span)]
    groups = [min(per, varying - lo) for lo in range(0, varying, per)]
    _, *interior = jet_nodes["ball"]            # after the edge samples
    assert interior == [m * k for m in groups for k in pieces if k]
    assert max(interior) <= block
    assert val == full_wz(B, CFG_SMALL)


def test_fd4_wz_counts_every_node_in_layer_pieces(jet_nodes, monkeypatch):
    # a 12^2 = 144-node layer goes in pieces of 100 and 44 plane points
    monkeypatch.setattr(cocycle, "_BLOCK", 100)
    cfg = CocycleConfig(1.0, DiscGrid(16, 32), BallGrid(6, 12), plan=FD4)
    B = ball_extend(TW1, XI)
    val = wz_term(B, cfg)
    assert jet_nodes["ball"][1:] == [100, 44] * 6
    assert val == full_wz(B, cfg)


def test_fd4_plan_integrates_every_node_in_blocks(cold_gamma, jet_nodes,
                                                  monkeypatch):
    # the twist's inverse needs no Newton step: FD4 would magnify one
    monkeypatch.setattr(cocycle, "_BLOCK", 200)
    cfg = CocycleConfig(1.0, DiscGrid(16, 32), BallGrid(6, 12), plan=FD4)
    val = gamma_m(ALEX, TW1, cfg)
    assert jet_nodes["disc"] == [200, 200, 200, 200, 112, 112]
    assert val == full_gamma_m(ALEX, TW1, cfg)


def test_wz_working_set_does_not_grow_with_the_grid():
    B = ball_extend(TW1, XI)
    grid = CFG_BALL_REFINED.ball_grid
    assert grid.npts == 48 * 128 * 128
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        wz_term(B, CFG_BALL_REFINED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one batch over the 150,912 moved nodes peaked at 118.6 MB, contiguous
    # 2^15-node blocks with a full-grid mask and value array at 16.7 MB,
    # and the moved nodes of two-layer groups, gathered, at 4.7 MB
    assert peak <= 10e6


# ----------------------------------------------------------------------
# malloc: a warm integral reuses its blocks' pages
# ----------------------------------------------------------------------

# a warm gamma, W and beta at the default grids, each counted from the
# thread's minor page faults in a fresh process, whose malloc has no
# history a test before it could leave
_WARM_FAULTS_SCRIPT = """
import resource
from virbott import cocycle
from virbott.cocycle import CocycleConfig, gamma_m, wz_term
from virbott.diffeo import (AlexanderRadial, BumpProfile, CutoffProfile,
                            DiscDiffeo, RadialTwist, ball_extend, cutoff_make)
from virbott.liealg import SeparableDiscField, beta_integral
from virbott.trigpoly import TrigPoly

cfg = CocycleConfig()
alex = DiscDiffeo.from_link(AlexanderRadial(
    TrigPoly(0.0, [0.35, 0.0], [0.0, -0.15]), cutoff_make(0.2, 0.15), 1.0))
sharp = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.25, 0.85, 0.8)))
ball = ball_extend(DiscDiffeo.from_link(
    RadialTwist(BumpProfile(0.10, 0.90, 0.12))), cutoff_make(0.05, 0.05))
v = SeparableDiscField(v4_terms=[(CutoffProfile(cutoff_make(0.2, 0.15)),
                                  TrigPoly(0.0, [0.35], [0.0, -0.15]))])
w = SeparableDiscField(v4_terms=[(CutoffProfile(cutoff_make(0.25, 0.2)),
                                  TrigPoly(0.0, [0.0, -0.2], [0.3]))])


def cold_gamma():
    cocycle._GAMMA_CACHE.clear()
    gamma_m(alex, sharp, cfg)


def warm_faults(run):
    run()
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before


print(warm_faults(cold_gamma), warm_faults(lambda: wz_term(ball, cfg)),
      warm_faults(lambda: beta_integral(v, w, cfg)))
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="the malloc thresholds pinned are glibc's, and "
                           "per-thread fault counts are Linux's")
def test_warm_integrals_reuse_their_pages():
    src = str(Path(cocycle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _WARM_FAULTS_SCRIPT],
                         env=env, check=True, capture_output=True,
                         text=True).stdout.split()
    faults = dict(zip(("gamma", "W", "beta"), map(int, out)))
    # under glibc's dynamic thresholds the heap is trimmed after every
    # block and the next block faults its pages in again: unpinned, these
    # read 2002, 2396 and 3324 on Linux with glibc 2.36
    assert all(n < 256 for n in faults.values()), faults


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("libc", [lambda name: object(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_pinning_malloc_is_a_no_op_without_mallopt(monkeypatch, libc):
    monkeypatch.setattr(ctypes, "CDLL", libc)
    assert cocycle._pin_malloc() is None


def test_malloc_pins_the_mmap_and_trim_thresholds(monkeypatch):
    calls = []

    class Libc:
        def __init__(self, name):
            self.mallopt = lambda param, value: calls.append((param, value))

    monkeypatch.setattr(ctypes, "CDLL", Libc)
    cocycle._pin_malloc()
    assert calls == [(-3, 32 * 2 ** 20), (-1, 64 * 2 ** 20)]
