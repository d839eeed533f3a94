"""Tests for disc vector fields, the cocycles beta / G(beta), and the
boundary structure constants.

Oracles: every pinned number below was derived twice.  The G(beta) examples,
the generic mixed pair (3 pi), the Heisenberg-orthogonal family (18 pi with
vanishing pairing), the generator central table, and the cyclic identity were
computed with a symbolic trig-integral oracle; the polynomial-field beta pin
(-12 pi) comes from expanding tr(dJ(V) ^ dJ(W)) of two polynomial fields in
closed form.  The mixed L/J central term comes out real in both derivations
(the factor i printed next to it in the usual display does not survive the
boundary integral), so the tests assert the real value.  Exact-zero cases
(diagonals, rotation pairs, zero-tail arguments) must come out exactly zero.

Arbitrary callable fields, their FD4 polar jets, the conversion from
Cartesian components and the disc bracket live here as an oracle
(``CallableField``) for the exact separable fields of ``virbott.liealg``.
"""

import concurrent.futures
import gc
import hashlib
import itertools
import math

import numpy as np
import pytest

from virbott import cocycle, liealg
from virbott._jets import FD4_D1, FD4_D2, FD4_OFFSETS
from virbott.cocycle import CocycleConfig, gamma, gamma_m
from virbott.diffeo import (
    AlexanderRadial,
    AngleDisplacement,
    AngularLink,
    BumpProfile,
    CutoffProfile,
    DiscDiffeo,
    FlowMap,
    PoweredCutoffProfile,
    RadialTwist,
    Rotation,
    cutoff_make,
    disc_invert,
)
from virbott.errors import (DegenerateError, DomainError, FlagError,
                            HarmonicCapError, StepError, UnsupportedError)
from virbott.forms import DiscGrid, integrate_disc, mc_components, wedge_trace_2form
from virbott.liealg import (
    GeneratorIndexPair,
    SemidirectElement,
    SeparableDiscField,
    ar_split,
    beta_from_gamma_fd,
    beta_integral,
    default_curve_builder,
    gbeta_boundary,
    gbeta_cyclic_residual,
    generator_bracket,
    generator_table_rows,
    restrict_to_circle,
    semidirect_bracket,
    theta_variation_residual,
    wf_field,
)
from virbott.trigpoly import (
    TrigPoly,
    circle_bracket,
    tp_derivative,
    tp_integrate_period,
    tp_multiply,
)

PI = math.pi

# ---------------------------------------------------------------------------
# the callable-field oracle
# ---------------------------------------------------------------------------

_FD_STEP = 1e-3


class CallableField:
    """A field V3 d/dr + V4 d/dtheta given by vectorized callables of
    (r, theta), which must tolerate an FD4 stencil beyond r = 1 and
    reflection through r = 0.  Its polar 2-jets are FD4, it moves at every
    node, and it has neither flags nor boundary polys."""

    def __init__(self, v3, v4):
        self.v3 = v3
        self.v4 = v4

    def polar_jet2(self, r, theta):
        h = _FD_STEP
        jets = []
        for fn in (self.v3, self.v4):
            grid = np.stack([
                np.stack([np.broadcast_to(
                    np.asarray(fn(r + a * h, theta + b * h), dtype=np.float64),
                    r.shape) for b in FD4_OFFSETS])
                for a in FD4_OFFSETS])  # (5 radial, 5 angular, N)
            f = grid[2, 2]
            fr = np.tensordot(FD4_D1, grid[:, 2], axes=(0, 0)) / h
            ft = np.tensordot(FD4_D1, grid[2], axes=(0, 0)) / h
            frr = np.tensordot(FD4_D2, grid[:, 2], axes=(0, 0)) / h ** 2
            ftt = np.tensordot(FD4_D2, grid[2], axes=(0, 0)) / h ** 2
            frt = np.einsum("a,b,abn->n", FD4_D1, FD4_D1, grid) / h ** 2
            jets.append((f, fr, ft, frr, frt, ftt))
        return jets[0], jets[1]

    def cartesian_jet2(self, pts):
        # liealg's chart composition reads a field only through polar_jet2
        return SeparableDiscField.cartesian_jet2(self, pts)

    def moves(self, pts):
        return np.ones(np.shape(pts)[1], dtype=bool)


def polar_components(v1, v2):
    """The polar components V3 = v1 cos + v2 sin and
    V4 = r^{-1} (-v1 sin + v2 cos) of Cartesian components (v1, v2)(x, y)."""

    def v3(r, theta):
        c, s = np.cos(theta), np.sin(theta)
        return v1(r * c, r * s) * c + v2(r * c, r * s) * s

    def v4(r, theta):
        c, s = np.cos(theta), np.sin(theta)
        rs = np.where(np.abs(r) < 1e-30, 1e-30, r)
        return (-v1(r * c, r * s) * s + v2(r * c, r * s) * c) / rs

    return CallableField(v3, v4)


def disc_bracket(V, W):
    """Commutator field: [V, W]_j = V3 d_r W_j + V4 d_t W_j - (V <-> W)."""

    def component(idx):
        def comp(r, theta):
            r = np.asarray(r, dtype=np.float64)
            theta = np.asarray(theta, dtype=np.float64)
            a3, a4 = V.polar_jet2(r, theta)
            b3, b4 = W.polar_jet2(r, theta)
            tb = (b3, b4)[idx]
            ta = (a3, a4)[idx]
            # antisymmetrized pairwise so the diagonal cancels exactly
            return ((a3[0] * tb[1] - b3[0] * ta[1])
                    + (a4[0] * tb[2] - b4[0] * ta[2]))
        return comp

    return CallableField(component(0), component(1))


# frozen oracle values
POLY_BETA = -12.0 * PI            # -37.699111843077519
GBETA_PURE_V4 = 6.0 * PI          # v4 = cos, w4 = sin
GBETA_PURE_V3 = -18.0 * PI        # v3 = cos, w3 = sin
GBETA_GENERIC = 3.0 * PI          # the mixed pair below
ORTHO_VALUE = 18.0 * PI           # full and restricted display agree

XI = cutoff_make(0.2, 0.2)
CFG = CocycleConfig()
CFG_SMALL = CocycleConfig(disc_grid=DiscGrid(32, 96))

# generic mixed boundary pair (frozen with the symbolic oracle)
V3G = TrigPoly(0.0, [], [0.0, 0.25])
V4G = TrigPoly(0.0, [1.0], [0.0, 0.0, -1.0 / 3.0])
W3G = TrigPoly(0.0, [0.5])
W4G = TrigPoly(0.0, [0.0, 0.0, 0.0, 0.2], [0.0, 1.0])


def separable(v3_poly=None, v4_poly=None, profile=None):
    profile = profile if profile is not None else CutoffProfile(XI)
    t3 = [(profile, v3_poly)] if v3_poly is not None else []
    t4 = [(profile, v4_poly)] if v4_poly is not None else []
    return SeparableDiscField(v3_terms=t3, v4_terms=t4)


FIELD_V = separable(V3G, V4G)
FIELD_W = separable(W3G, W4G)


class UnitProfile:
    """Constant-1 radial profile: a V4 term with it is a rotation field."""

    support = (0.0, np.inf)
    flat_from = 0.0
    bounds = (1.0, 1.0)

    def value(self, r):
        return np.ones_like(np.asarray(r, dtype=np.float64))

    def jets(self, r):
        one = self.value(r)
        return one, np.zeros_like(one), np.zeros_like(one)


ROT_FIELD = SeparableDiscField(v4_terms=[(UnitProfile(), TrigPoly.const(0.7))])
ROT_FIELD_B = SeparableDiscField(v4_terms=[(UnitProfile(),
                                            TrigPoly.const(-0.3))])
TWIST_FIELD = SeparableDiscField(
    v4_terms=[(BumpProfile(0.15, 0.85, 1.0), TrigPoly.const(0.5))])
ALEX_FIELD = SeparableDiscField(
    v4_terms=[(CutoffProfile(cutoff_make(0.2, 0.15)),
               TrigPoly(0.0, [0.35], [0.0, -0.15]))])
ALEX_FIELD_B = SeparableDiscField(
    v4_terms=[(CutoffProfile(cutoff_make(0.25, 0.2)),
               TrigPoly(0.0, [0.0, -0.2], [0.3]))])
# two V4 terms: no single rotation, twist or Alexander map has this shape
ALEX_TWIST_FIELD = SeparableDiscField(
    v4_terms=ALEX_FIELD.v4_terms + TWIST_FIELD.v4_terms)
ZERO_TAIL = SeparableDiscField(
    v3_terms=[(BumpProfile(0.2, 0.8, 1.0), TrigPoly(0.0, [0.2]))],
    v4_terms=[(BumpProfile(0.2, 0.8, 1.0), TrigPoly(0.0, [], [0.1]))])

POLY_V = polar_components(lambda x, y: x ** 2 * y,
                          lambda x, y: -x * y ** 2 + x ** 2)
POLY_W = polar_components(lambda x, y: x * y + y ** 3,
                          lambda x, y: x ** 2 * y - y)


# ---------------------------------------------------------------------------
# fields and the polar/Cartesian conversion
# ---------------------------------------------------------------------------

def test_polar_components_of_ddx():
    field = polar_components(lambda x, y: np.ones_like(x),
                             lambda x, y: np.zeros_like(x))
    r = np.array([0.3, 0.55, 0.9])
    theta = np.array([0.5, 2.1, 4.4])
    assert np.max(np.abs(field.v3(r, theta) - np.cos(theta))) == 0.0
    assert np.max(np.abs(field.v4(r, theta) + np.sin(theta) / r)) == 0.0


def test_polar_components_of_the_rotation_field():
    field = polar_components(lambda x, y: -y, lambda x, y: x)
    r = np.array([0.3, 0.7])
    theta = np.array([0.5, 2.1])
    assert np.max(np.abs(field.v3(r, theta))) < 1e-15
    assert np.max(np.abs(field.v4(r, theta) - 1.0)) == 0.0


def test_polar_components_of_the_zero_field():
    field = polar_components(lambda x, y: np.zeros_like(x),
                             lambda x, y: np.zeros_like(x))
    pts = np.array([[0.31, -0.52, 0.05], [0.44, 0.12, -0.61]])
    assert not any(part.any() for part in field.cartesian_jet2(pts))
    # the exact zero field has no term, and every flag holds
    assert SeparableDiscField().flags == {
        "genuine": True, "asymptotically_radial": True,
        "asymptotically_zero": True}


def test_boundary_polys_match_the_callables():
    theta = np.linspace(0.0, 2.0 * PI, 37)
    one = np.ones_like(theta)
    for poly, fn in ((FIELD_V.boundary_v3, FIELD_V.v3),
                     (FIELD_V.boundary_v4, FIELD_V.v4)):
        assert np.max(np.abs(poly(theta) - fn(one, theta))) < 1e-12


def test_ar_epsilon_must_sit_inside_the_unit_interval():
    for eps in (1.5, 1.0, 0.0, -0.1):
        with pytest.raises(DomainError):
            SeparableDiscField(FIELD_V.v3_terms, FIELD_V.v4_terms,
                               ar_epsilon=eps)


@pytest.mark.parametrize("bad", [
    TrigPoly(0.0, [math.nan]), TrigPoly(0.0, [], [0.0, math.nan]),
    TrigPoly(math.inf), TrigPoly(-math.inf)],
    ids=["nan-cos", "nan-sin", "inf", "minus-inf"])
@pytest.mark.parametrize("part", ["v3", "v4"])
def test_non_finite_field_coefficients_are_refused(part, bad):
    good = (CutoffProfile(XI), TrigPoly(0.0, [0.3]))
    terms = [good, (CutoffProfile(XI), bad)]
    with pytest.raises(DomainError, match=f"{part} term 1 "):
        SeparableDiscField(**{part + "_terms": terms})


def test_building_a_field_evaluates_only_its_two_boundary_traces(monkeypatch):
    sizes = []

    def recording(self, r, th, weights=None, _orig=AngleDisplacement.value):
        sizes.append(np.broadcast(r, th).size)
        return _orig(self, r, th, weights)

    monkeypatch.setattr(AngleDisplacement, "value", recording)
    separable(V3G, V4G)
    assert sizes == [64, 64]


_EPS = 0.05
_EDGE = 1.0 - _EPS      # the inner edge b of the outer band


@pytest.mark.parametrize(("profile", "poly", "radial", "zero"), [
    (CutoffProfile(cutoff_make(0.2, _EPS)), TrigPoly(0.0, [0.3]), True,
     False),
    (CutoffProfile(cutoff_make(0.2, 0.5 * _EPS)), TrigPoly(0.0, [0.3]),
     False, False),
    (BumpProfile(0.2, _EDGE, 1.0), TrigPoly(0.0, [0.3]), True, True),
    (BumpProfile(0.2, _EDGE + 0.01, 1.0), TrigPoly(0.0, [0.3]), False,
     False),
    (PoweredCutoffProfile(cutoff_make(0.2, _EPS), 3), TrigPoly(0.0, [0.3]),
     True, False),
    (PoweredCutoffProfile(cutoff_make(0.2, 0.01), 3), TrigPoly(0.0, [0.3]),
     False, False),
    (CutoffProfile(cutoff_make(0.2, 0.01)), TrigPoly.zero(), True, True),
    (BumpProfile(0.2, 0.99, 1.0), TrigPoly(0.0, [0.0], [0.0]), True, True),
], ids=["cutoff-flat-at-the-edge", "cutoff-flat-past-the-edge",
        "bump-ending-at-the-edge", "bump-ending-past-the-edge",
        "powered-cutoff-flat-at-the-edge", "powered-cutoff-flat-past-it",
        "zero-poly-cutoff", "zero-poly-bump"])
@pytest.mark.parametrize("part", ["v3", "v4"])
def test_flags_are_decided_from_the_profile_tails(part, profile, poly,
                                                  radial, zero):
    # the profile's tail against the band's edge decides each flag, and a
    # term whose polynomial is identically zero counts for nothing; a
    # rotation-like term on the other component leaves zero False
    field = SeparableDiscField(**{part + "_terms": [(profile, poly)]},
                               ar_epsilon=_EPS)
    assert field.asymptotically_radial == radial
    assert field.asymptotically_zero == zero
    other = "v4" if part == "v3" else "v3"
    mixed = SeparableDiscField(
        **{part + "_terms": [(profile, poly)],
           other + "_terms": [(UnitProfile(), TrigPoly.const(0.5))]},
        ar_epsilon=_EPS)
    assert mixed.asymptotically_radial == radial
    assert not mixed.asymptotically_zero


def test_separable_jets_match_the_fd_fallback():
    twin = CallableField(FIELD_V.v3, FIELD_V.v4)
    pts = np.array([[0.31, -0.52, 0.05], [0.44, 0.12, -0.61]])
    v_a, dv_a, d2_a = FIELD_V.cartesian_jet2(pts)
    v_f, dv_f, d2_f = twin.cartesian_jet2(pts)
    assert np.max(np.abs(v_a - v_f)) < 1e-12
    assert np.max(np.abs(dv_a - dv_f)) < 1e-9
    assert np.max(np.abs(d2_a - d2_f)) < 1e-6


def test_cartesian_jets_match_symbolic_partials():
    # V = (x^2 y, -x y^2 + x^2) converted through polar components and back.
    pts = np.array([[0.41, -0.33, 0.12], [0.27, 0.58, -0.71]])
    x, y = pts
    v, dv, d2 = POLY_V.cartesian_jet2(pts)
    assert np.max(np.abs(v[0] - x ** 2 * y)) < 1e-12
    assert np.max(np.abs(v[1] - (-x * y ** 2 + x ** 2))) < 1e-12
    assert np.max(np.abs(dv[0, 0] - 2 * x * y)) < 1e-10
    assert np.max(np.abs(dv[0, 1] - x ** 2)) < 1e-10
    assert np.max(np.abs(dv[1, 0] - (-y ** 2 + 2 * x))) < 1e-10
    assert np.max(np.abs(dv[1, 1] + 2 * x * y)) < 1e-10
    assert np.max(np.abs(d2[0, 0, 0] - 2 * y)) < 1e-8
    assert np.max(np.abs(d2[0, 0, 1] - 2 * x)) < 1e-8
    assert np.max(np.abs(d2[0, 1, 1])) < 1e-8
    assert np.max(np.abs(d2[1, 0, 0] - 2.0)) < 1e-8
    assert np.max(np.abs(d2[1, 0, 1] + 2 * y)) < 1e-8
    assert np.max(np.abs(d2[1, 1, 1] + 2 * x)) < 1e-8


def test_cartesian_jets_refuse_the_origin():
    # the polar chart is singular at r = 0, whatever the field
    pts = np.array([[0.3, 0.0], [0.2, 0.0]])
    for field in (POLY_V, FIELD_V):
        with pytest.raises(DegenerateError):
            field.cartesian_jet2(pts)


def test_gamma_of_a_flow_with_a_powered_cutoff_profile():
    cfg = CocycleConfig(disc_grid=DiscGrid(8, 16))
    grid = cfg.disc_grid
    squared = PoweredCutoffProfile(XI, 2)
    field = SeparableDiscField(v4_terms=[(squared, TrigPoly(0.0, [0.3]))])
    g = DiscDiffeo.from_link(FlowMap(field, 0.5, 8))
    h = DiscDiffeo.from_link(AlexanderRadial(TrigPoly(0.0, [0.3]), XI))
    direct = integrate_disc(wedge_trace_2form(
        mc_components(g.jet(grid.xy, cfg.plan)),
        mc_components(disc_invert(h).jet(grid.xy, cfg.plan))), grid)
    assert gamma_m(g, h, cfg) == pytest.approx(direct, rel=1e-12)


def test_gamma_cache_never_returns_the_value_of_a_dead_field():
    # each round's field dies before the next is built, so CPython hands
    # its address on; the gamma cache key must not follow the address
    cfg = CocycleConfig(disc_grid=DiscGrid(16, 32))
    grid = cfg.disc_grid
    bump = BumpProfile(0.2, 0.8, 1.0)
    h = DiscDiffeo.from_link(AlexanderRadial(TrigPoly(0.0, [0.3]), XI))
    hinv_mc = mc_components(disc_invert(h).jet(grid.xy, cfg.plan))
    for i in range(16):
        # V3 = a bump(r) sin 2 theta, V4 = bump(r) cos theta
        field = SeparableDiscField(
            v3_terms=[(bump, TrigPoly(0.0, [], [0.0, 0.1 * (i + 1)]))],
            v4_terms=[(bump, TrigPoly(0.0, [1.0]))])
        g = DiscDiffeo.from_link(FlowMap(field, 0.5, 8))
        got = gamma_m(g, h, cfg)
        direct = integrate_disc(wedge_trace_2form(
            mc_components(g.jet(grid.xy, cfg.plan)), hinv_mc), grid)
        assert got == pytest.approx(direct, rel=1e-12), i
        del field, g
        gc.collect()


def test_flags_catch_a_field_that_keeps_radial_slope():
    # xi is flat only from r = 0.99, inside the band (0.95, 1)
    field = SeparableDiscField(
        v3_terms=[(CutoffProfile(cutoff_make(0.2, 0.01)),
                   TrigPoly(0.0, [1.0]))])
    assert not field.asymptotically_radial
    with pytest.raises(FlagError):
        restrict_to_circle(field)
    with pytest.raises(FlagError):
        ar_split(field, XI)


# ---------------------------------------------------------------------------
# the disc bracket
# ---------------------------------------------------------------------------

def test_disc_bracket_diagonal_vanishes():
    bracket = disc_bracket(FIELD_V, FIELD_V)
    r = np.array([0.35, 0.62, 0.88])
    theta = np.array([0.3, 1.9, 4.4])
    assert np.max(np.abs(bracket.v3(r, theta))) == 0.0
    assert np.max(np.abs(bracket.v4(r, theta))) == 0.0


# radii on the outer band of width ar_epsilon, where the profile of
# FIELD_V and FIELD_W is flat and ZERO_TAIL's profiles vanish
_BAND_R = 1.0 - 0.05 * np.array([0.0, 0.15, 0.55, 0.95])


def _on_the_band(fn):
    theta = np.linspace(0.0, 2.0 * PI, 29)
    rr, tt = np.meshgrid(_BAND_R, theta, indexing="ij")
    return fn(rr, tt)


def test_disc_bracket_closes_on_radial_fields():
    # the bracket of two fields constant in r on the band is constant there
    bracket = disc_bracket(FIELD_V, FIELD_W)
    for fn in (bracket.v3, bracket.v4):
        values = _on_the_band(fn)
        assert np.array_equal(values, np.broadcast_to(values[0],
                                                      values.shape))
    assert _on_the_band(bracket.v4).any()


def test_disc_bracket_absorbs_zero_tail_fields():
    # a field that vanishes on the band brackets to 0 there
    bracket = disc_bracket(FIELD_V, ZERO_TAIL)
    for fn in (bracket.v3, bracket.v4):
        assert not _on_the_band(fn).any()


def test_disc_bracket_boundary_algebra():
    # both fields are flat on the outer band, so at r = 1 the bracket is
    # the boundary bracket of their boundary data
    bracket = disc_bracket(FIELD_V, FIELD_W)
    b3, b4 = liealg._boundary_bracket(V3G, V4G, W3G, W4G)
    theta = np.linspace(0.0, 2.0 * PI, 29)
    one = np.ones_like(theta)
    assert np.max(np.abs(bracket.v3(one, theta) - b3(theta))) < 1e-12
    assert np.max(np.abs(bracket.v4(one, theta) - b4(theta))) < 1e-12


def test_disc_bracket_jacobi_pointwise():
    fields = (FIELD_V, FIELD_W, ZERO_TAIL)
    r = np.array([0.45, 0.62, 0.85])
    theta = np.array([0.3, 1.9, 4.4])
    for component in ("v3", "v4"):
        total = np.zeros_like(r)
        for i in range(3):
            u, v, w = fields[i], fields[(i + 1) % 3], fields[(i + 2) % 3]
            nested = disc_bracket(u, disc_bracket(v, w))
            total = total + getattr(nested, component)(r, theta)
        assert np.max(np.abs(total)) < 1e-8


# ---------------------------------------------------------------------------
# restriction, sections, and the splitting
# ---------------------------------------------------------------------------

def test_restriction_of_the_rotation_field():
    circle = restrict_to_circle(ROT_FIELD)
    assert circle == TrigPoly.const(0.7)


def test_restriction_of_a_zero_tail_field():
    assert restrict_to_circle(ZERO_TAIL) == TrigPoly.zero()


def test_restriction_of_an_alexander_generator():
    poly = TrigPoly(0.0, [0.35], [0.0, -0.15])
    assert restrict_to_circle(ALEX_FIELD) == poly


def test_wf_field_shape():
    f = TrigPoly(0.0, [0.5])
    section = wf_field(f, XI)
    r = np.array([0.4, 0.7, 0.95])
    theta = np.array([0.2, 2.0, 5.1])
    assert np.max(np.abs(section.v4(r, theta))) == 0.0
    assert section.boundary_v3 == f
    assert section.asymptotically_radial
    assert not section.genuine


def test_wf_field_of_the_zero_poly():
    section = wf_field(TrigPoly.zero(), XI)
    assert section.asymptotically_zero


def test_ar_split_returns_the_boundary_trace():
    genuine_part, trace = ar_split(FIELD_V, XI)
    assert trace == FIELD_V.boundary_v3
    assert genuine_part.genuine
    assert genuine_part.asymptotically_radial


def test_ar_split_of_a_section_recovers_it():
    f = TrigPoly(0.0, [0.4], [0.0, 0.2])
    remainder, trace = ar_split(wf_field(f, XI), XI)
    assert trace == f
    r = np.array([0.5, 0.8, 0.97])
    theta = np.array([0.1, 2.3, 4.0])
    assert np.max(np.abs(remainder.v3(r, theta))) < 1e-12


def test_ar_split_is_idempotent():
    genuine_part, _ = ar_split(FIELD_V, XI)
    again, trace = ar_split(genuine_part, XI)
    assert trace == TrigPoly.zero()
    assert again is genuine_part


def test_ar_split_recombines_pointwise():
    genuine_part, trace = ar_split(FIELD_V, XI)
    section = wf_field(trace, XI)
    r = np.array([0.45, 0.72, 0.91, 0.99])
    theta = np.array([0.3, 1.5, 3.3, 5.7])
    back = genuine_part.v3(r, theta) + section.v3(r, theta)
    assert np.max(np.abs(back - FIELD_V.v3(r, theta))) < 1e-12
    assert np.max(np.abs(genuine_part.v4(r, theta)
                         - FIELD_V.v4(r, theta))) == 0.0


# ---------------------------------------------------------------------------
# beta as a disc integral
# ---------------------------------------------------------------------------

def test_beta_diagonal_vanishes():
    assert abs(beta_integral(POLY_V, POLY_V, CFG)) < 1e-10


def test_beta_of_rotation_fields_vanishes():
    assert abs(beta_integral(ROT_FIELD, ROT_FIELD_B, CFG)) < 1e-9


def test_beta_is_antisymmetric():
    forward = beta_integral(FIELD_V, FIELD_W, CFG)
    backward = beta_integral(FIELD_W, FIELD_V, CFG)
    assert abs(forward + backward) < 1e-9


def test_beta_matches_the_polynomial_oracle():
    value = beta_integral(POLY_V, POLY_W, CFG)
    assert abs(value - POLY_BETA) < 1e-7


def test_blocked_beta_equals_the_whole_grid_sum(monkeypatch):
    # beta goes through the node blocks of gamma, so no field jet holds
    # more than a block, and the exactly rounded sum moves no bit; both
    # fields are XI-profiled, so the nodes below the cutoff are skipped
    grid = CFG_SMALL.disc_grid
    moved = np.count_nonzero(XI.value(grid.r) != 0.0)
    assert 0 < moved < grid.npts
    _, _, d2v = FIELD_V.cartesian_jet2(grid.xy)
    _, _, d2w = FIELD_W.cartesian_jet2(grid.xy)
    vals = (np.einsum("ikn,kin->n", d2v[:, :, 0], d2w[:, :, 1])
            - np.einsum("ikn,kin->n", d2v[:, :, 1], d2w[:, :, 0]))
    whole = -6.0 * CFG_SMALL.c0 * integrate_disc(vals, grid)
    seen = []

    def recording(self, pts, _orig=SeparableDiscField.cartesian_jet2):
        seen.append(pts.shape[1])
        return _orig(self, pts)

    monkeypatch.setattr(SeparableDiscField, "cartesian_jet2", recording)
    monkeypatch.setattr(cocycle, "_BLOCK", 256)
    assert beta_integral(FIELD_V, FIELD_W, CFG_SMALL) == whole
    assert max(seen) <= 256 and sum(seen) == 2 * moved


def test_beta_of_callable_fields_evaluates_every_node(monkeypatch):
    grid = CFG_SMALL.disc_grid
    assert POLY_V.moves(grid.xy).all() and POLY_W.moves(grid.xy).all()
    seen = []

    def recording(self, pts, _orig=SeparableDiscField.cartesian_jet2):
        seen.append(pts.shape[1])
        return _orig(self, pts)

    monkeypatch.setattr(SeparableDiscField, "cartesian_jet2", recording)
    beta_integral(POLY_V, POLY_W, CFG_SMALL)
    assert sum(seen) == 2 * grid.npts


@pytest.mark.parametrize("name", ["cutoff", "bump", "rotation"])
def test_separable_field_moves_only_where_its_polar_jet_is_nonzero(name):
    # the cutoff field vanishes below eps1 = 0.2 and not in the outer
    # band; the bump field vanishes outside (0.2, 0.8), so at both support
    # edges and in the outer band; the rotation field vanishes nowhere,
    # not even inside the links' origin guard
    field = {"cutoff": FIELD_V, "bump": ZERO_TAIL, "rotation": ROT_FIELD}[name]
    radii = [0.0, 1e-12, 1e-10] + list(np.linspace(0.0, 1.05, 43))
    for edge in (0.2, 0.8, 1.0):
        radii += [edge - 1e-9, edge, edge + 1e-9, edge - 0.01, edge + 0.01]
    th = np.arange(12) * (2.0 * PI / 12.0) + 0.1
    r, t = (a.ravel() for a in np.meshgrid(radii, th, indexing="ij"))
    moved = field.moves(np.stack([r * np.cos(t), r * np.sin(t)]))
    jets = np.stack([np.stack(j) for j in field.polar_jet2(r, t)])
    assert np.array_equal(moved, np.any(jets != 0.0, axis=(0, 1)))
    inner, outer = moved[r < 0.2 - 1e-9], moved[r > 0.8 + 1e-9]
    assert inner.all() if name == "rotation" else not inner.any()
    assert outer.all() if name != "bump" else not outer.any()


def test_beta_quadrature_is_safe_to_run_concurrently():
    with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
        values = list(pool.map(
            lambda _: beta_integral(FIELD_V, FIELD_W, CFG), range(6)))
    assert len(set(values)) == 1


# ---------------------------------------------------------------------------
# G(beta) on boundary data
# ---------------------------------------------------------------------------

def test_gbeta_harmonic_examples():
    pure_v4 = gbeta_boundary(separable(None, TrigPoly(0.0, [1.0])),
                             separable(None, TrigPoly(0.0, [], [1.0])))
    assert abs(pure_v4 - GBETA_PURE_V4) < 1e-12
    pure_v3 = gbeta_boundary(separable(TrigPoly(0.0, [1.0]), None),
                             separable(TrigPoly(0.0, [], [1.0]), None))
    assert abs(pure_v3 - GBETA_PURE_V3) < 1e-12


def test_gbeta_generic_pair_frozen_value():
    value = gbeta_boundary(FIELD_V, FIELD_W)
    assert abs(value - GBETA_GENERIC) < 1e-12
    assert value + gbeta_boundary(FIELD_W, FIELD_V) == 0.0


def test_gbeta_scales_linearly_in_c0():
    base = gbeta_boundary(FIELD_V, FIELD_W, c0=1.0)
    assert gbeta_boundary(FIELD_V, FIELD_W, c0=2.5) == 2.5 * base


def test_gbeta_vanishes_on_zero_tail_arguments():
    assert gbeta_boundary(FIELD_V, ZERO_TAIL) == 0.0
    assert gbeta_boundary(ZERO_TAIL, FIELD_V) == 0.0


def test_restricted_gbeta_display_on_an_orthogonal_pair():
    # v4 and w4 chosen with vanishing Heisenberg pairing int v4 w4' dtheta,
    # where the two-term and one-term forms of the restricted cocycle agree.
    v4 = TrigPoly(0.0, [1.0, 1.0])
    w4 = TrigPoly(0.0, [], [1.0, -0.5])
    pairing = tp_integrate_period(tp_multiply(v4, tp_derivative(w4)))
    assert pairing == 0.0
    full = gbeta_boundary(separable(None, v4), separable(None, w4))
    display = -6.0 * tp_integrate_period(
        tp_multiply(tp_derivative(v4), tp_derivative(tp_derivative(w4))))
    assert full == display
    assert abs(full - ORTHO_VALUE) < 1e-12


def test_gbeta_matches_beta_integral():
    value = gbeta_boundary(ALEX_FIELD, ALEX_FIELD_B)
    coarse = abs(value - beta_integral(ALEX_FIELD, ALEX_FIELD_B, CFG))
    grid = CFG.disc_grid
    fine_cfg = CocycleConfig(CFG.c0, DiscGrid(2 * grid.n_r, 2 * grid.n_theta))
    fine = abs(value - beta_integral(ALEX_FIELD, ALEX_FIELD_B, fine_cfg))
    assert coarse < 1e-5
    assert fine < coarse / 4.0


def test_gbeta_cyclic_identity_on_harmonic5_data():
    a = separable(TrigPoly(0.0, [0.2], [0.0, -0.1]),
                  TrigPoly(0.0, [1.0, 0.0, 0.3]))
    b = separable(TrigPoly(0.0, [], [0.5]),
                  TrigPoly(0.0, [0.0, 0.4], [0.2]))
    c = separable(TrigPoly(0.3, [0.0, 0.0, 0.25]),
                  TrigPoly(0.0, [0.1], [0.0, 0.0, 0.0, 0.0, 0.6]))
    assert gbeta_cyclic_residual(a, b, c) < 1e-10


def test_gbeta_cyclic_identity_with_a_zero_tail_member():
    a = separable(TrigPoly(0.0, [0.2], [0.0, -0.1]),
                  TrigPoly(0.0, [1.0, 0.0, 0.3]))
    assert gbeta_cyclic_residual(a, FIELD_W, ZERO_TAIL) < 1e-12


def test_gbeta_cyclic_identity_on_pure_angular_fields():
    a = separable(None, TrigPoly(0.0, [1.0], [0.3]))
    b = separable(None, TrigPoly(0.0, [0.0, -0.5]))
    c = separable(None, TrigPoly(0.0, [], [0.0, 0.0, 0.7]))
    assert gbeta_cyclic_residual(a, b, c) < 1e-10


# ---------------------------------------------------------------------------
# beta from gamma by differentiation
# ---------------------------------------------------------------------------

def test_beta_fd_diagonal_is_exactly_zero():
    assert beta_from_gamma_fd(TWIST_FIELD, TWIST_FIELD) == 0.0


def test_beta_fd_rotation_pair_vanishes():
    assert abs(beta_from_gamma_fd(ROT_FIELD, ROT_FIELD_B)) < 1e-6


def test_beta_fd_matches_the_integral_on_closed_form_curves():
    reference = beta_integral(ALEX_FIELD, ALEX_FIELD_B, CFG)
    value = beta_from_gamma_fd(ALEX_FIELD, ALEX_FIELD_B)
    assert abs(value - reference) < 1e-3
    assert abs(value - reference) < 1e-6  # closed-form curves do far better


def test_beta_fd_matches_the_integral_on_a_two_term_angular_field():
    reference = beta_integral(ALEX_TWIST_FIELD, ALEX_FIELD_B, CFG)
    value = beta_from_gamma_fd(ALEX_TWIST_FIELD, ALEX_FIELD_B)
    assert abs(value - reference) < 1e-6


def test_beta_fd_through_the_flow_fallback():
    mixed = SeparableDiscField(
        v3_terms=[(CutoffProfile(XI), TrigPoly(0.0, [0.3]))])
    builder = lambda field: default_curve_builder(field, flow_steps=16)
    assert isinstance(builder(mixed)(0.01).links[0], FlowMap)
    reference = beta_integral(mixed, ALEX_FIELD, CFG_SMALL)
    value = beta_from_gamma_fd(mixed, ALEX_FIELD, curve_builder=builder,
                               cfg=CFG_SMALL)
    assert abs(value - reference) < 1e-3


def _flow_builder(field):
    return default_curve_builder(field, flow_steps=16)


def _sixteen_gamma_bridge(V, W, builder, cfg, steps=(1e-2, 1e-2)):
    """The FD bridge as sixteen gamma integrals: every corner's
    gamma(h_t, k_s) - gamma(k_s, h_t) on its own.  A flow has no inverse
    link, so gamma against a flow integrates the definition with its
    time reversal as the inverse."""
    h_curve, k_curve = builder(V), builder(W)
    grid = cfg.disc_grid

    def gam(a, b, b_curve, b_step):
        try:
            return gamma(a, b, cfg)
        except UnsupportedError:
            inverse = b_curve(-b_step)
            return 3.0 * cfg.c0 * integrate_disc(wedge_trace_2form(
                mc_components(a.jet(grid.xy, cfg.plan)),
                mc_components(inverse.jet(grid.xy, cfg.plan))), grid)

    def mixed(ts, ss):
        total = 0.0
        for sig, tau in itertools.product((1, -1), repeat=2):
            h, k = h_curve(sig * ts), k_curve(tau * ss)
            total += sig * tau * (gam(h, k, k_curve, tau * ss)
                                  - gam(k, h, h_curve, sig * ts))
        return total / (4.0 * ts * ss)

    t, s = steps
    return (4.0 * mixed(0.5 * t, 0.5 * s) - mixed(t, s)) / 3.0


@pytest.mark.parametrize("pair", ["closed-form", "twist-alexander", "flow"])
def test_beta_fd_equals_the_sixteen_gamma_corner_sum(pair):
    mixed = SeparableDiscField(
        v3_terms=[(CutoffProfile(XI), TrigPoly(0.0, [0.3]))])
    V, W, builder = {
        "closed-form": (ALEX_FIELD, ALEX_FIELD_B, default_curve_builder),
        "twist-alexander": (ALEX_TWIST_FIELD, ALEX_FIELD_B,
                            default_curve_builder),
        "flow": (mixed, ALEX_FIELD, _flow_builder)}[pair]
    value = beta_from_gamma_fd(V, W, curve_builder=builder, cfg=CFG_SMALL)
    oracle = _sixteen_gamma_bridge(V, W, builder, CFG_SMALL)
    assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_beta_fd_builds_each_map_jet_once_per_block(monkeypatch):
    calls = []

    def recording(self, pts, plan, _orig=DiscDiffeo.jet):
        calls.append((self, pts.shape[1]))
        return _orig(self, pts, plan)

    def refused(*args, **kwargs):
        raise AssertionError("the bridge computed a gamma")

    monkeypatch.setattr(DiscDiffeo, "jet", recording)
    monkeypatch.setattr(cocycle, "gamma_m", refused)
    monkeypatch.setattr(cocycle, "_BLOCK", 512)
    beta_from_gamma_fd(ALEX_TWIST_FIELD, ALEX_FIELD_B, cfg=CFG_SMALL)
    # a density call builds the stacks of its integral's four maps on one
    # block, and an integral's blocks all go to the same four maps
    assert len(calls) % 4 == 0
    integrals = {}
    for i in range(0, len(calls), 4):
        group = calls[i:i + 4]
        maps = frozenset(id(m) for m, _ in group)
        size = {n for _, n in group}
        assert len(maps) == 4 and len(size) == 1 and max(size) <= 512
        integrals.setdefault(maps, []).append(size.pop())
    # two integrals per Richardson level over sixteen maps in all, each
    # integral over more than one block
    assert len(integrals) == 4
    assert len(frozenset().union(*integrals)) == 16
    assert all(len(sizes) > 1 for sizes in integrals.values())
    assert all(sum(sizes) <= CFG_SMALL.disc_grid.npts
               for sizes in integrals.values())


def test_beta_fd_step_that_folds_a_curve_map_is_a_step_error():
    # at t = 1e-2 the turn t V4 = 1.5 xi(r) sin(theta) has slope 1.5 cos:
    # the angular link's orientation certificate refuses it
    steep = SeparableDiscField(
        v4_terms=[(CutoffProfile(XI), TrigPoly(0.0, [], [150.0]))])
    with pytest.raises(StepError, match="invalid chain") as info:
        beta_from_gamma_fd(steep, ALEX_FIELD_B, cfg=CFG_SMALL)
    assert isinstance(info.value.__cause__, DomainError)
    assert "orientation" in str(info.value)


def test_beta_fd_rejects_degenerate_steps():
    with pytest.raises(StepError):
        beta_from_gamma_fd(ROT_FIELD, ROT_FIELD_B, steps=(0.0, 1e-2))
    with pytest.raises(StepError):
        beta_from_gamma_fd(ROT_FIELD, ROT_FIELD_B, steps=(1e-2, float("nan")))


def test_curve_builder_dispatch_and_tangency():
    pts = np.array([[0.3, -0.1, 0.55], [0.2, 0.6, -0.35]])
    expected_links = {
        "rotation": (ROT_FIELD, AngularLink),
        "twist": (TWIST_FIELD, AngularLink),
        "alexander": (ALEX_FIELD, AngularLink),
        "alexander-plus-twist": (ALEX_TWIST_FIELD, AngularLink),
        "flow": (FIELD_V, FlowMap),
    }
    for field, link_type in expected_links.values():
        curve = default_curve_builder(field)
        assert isinstance(curve(0.01).links[0], link_type)
        step = 1e-5
        fd = (curve(step).apply(pts) - curve(-step).apply(pts)) / (2.0 * step)
        assert np.max(np.abs(fd - field.cartesian_value(pts))) < 1e-9
    assert default_curve_builder(SeparableDiscField())(0.3).links == ()


# ---------------------------------------------------------------------------
# the semidirect bracket and generator structure constants
# ---------------------------------------------------------------------------

def test_semidirect_action_example():
    x = SemidirectElement(TrigPoly.const(1.0), TrigPoly.zero())
    y = SemidirectElement(TrigPoly.zero(), TrigPoly(0.0, [], [0.0, 0.0, 1.0]))
    bracket = semidirect_bracket(x, y)
    assert bracket.v == TrigPoly.zero()
    assert bracket.w == TrigPoly(0.0, [0.0, 0.0, 3.0])


def test_semidirect_abelian_parts_commute():
    x = SemidirectElement(TrigPoly.zero(), TrigPoly(0.0, [1.0]))
    y = SemidirectElement(TrigPoly.zero(), TrigPoly(0.0, [], [1.0]))
    bracket = semidirect_bracket(x, y)
    assert bracket.v == TrigPoly.zero()
    assert bracket.w == TrigPoly.zero()
    # the pair still carries a central coordinate (the pure-v3 example value)
    assert abs(bracket.a - GBETA_PURE_V3) < 1e-12


def test_semidirect_jacobi_on_random_triples():
    rng = np.random.default_rng(11)

    def poly():
        return TrigPoly(rng.uniform(-0.5, 0.5),
                        rng.uniform(-0.5, 0.5, 3) / np.arange(1.0, 4.0),
                        rng.uniform(-0.5, 0.5, 3) / np.arange(1.0, 4.0))

    theta = np.linspace(0.0, 2.0 * PI, 17)
    for _ in range(5):
        x = SemidirectElement(poly(), poly())
        y = SemidirectElement(poly(), poly())
        z = SemidirectElement(poly(), poly())
        total_v = TrigPoly.zero()
        total_w = TrigPoly.zero()
        total_a = 0.0
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            outer = semidirect_bracket(a, semidirect_bracket(b, c))
            total_v = total_v + outer.v
            total_w = total_w + outer.w
            total_a += outer.a
        assert np.max(np.abs(total_v(theta))) < 1e-10
        assert np.max(np.abs(total_w(theta))) < 1e-10
        assert abs(total_a) < 1e-10


def _random_complex_poly(rng, degree=3):
    return TrigPoly.from_exp_coeffs(
        {k: complex(*rng.uniform(-0.5, 0.5, 2))
         for k in range(-degree, degree + 1)})


def test_semidirect_bracket_is_bilinear_over_c():
    rng = np.random.default_rng(5)
    theta = np.linspace(0.0, 2.0 * PI, 17)

    def element():
        return SemidirectElement(_random_complex_poly(rng),
                                 _random_complex_poly(rng))

    def combine(a, x, b, y):
        return SemidirectElement(x.v * a + y.v * b,
                                 x.w * a + y.w * b)

    for _ in range(5):
        x1, x2, y = element(), element(), element()
        a, b = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
        for bracket in (lambda u: semidirect_bracket(u, y, 1.3),
                        lambda u: semidirect_bracket(y, u, 1.3)):
            whole = bracket(combine(a, x1, b, x2))
            b1, b2 = bracket(x1), bracket(x2)
            for part in ("v", "w"):
                want = (getattr(b1, part) * a
                        + getattr(b2, part) * b)
                got = getattr(whole, part)
                assert got.is_complex
                assert np.max(np.abs(got(theta) - want(theta))) < 1e-12
            assert isinstance(whole.a, complex)
            assert abs(whole.a - (a * b1.a + b * b2.a)) < 1e-12 * abs(whole.a)


def _generator_bracket_by_real_parts(pair, c0):
    """[X_n, Y_m] by real arithmetic only: each generator i e^{i n theta}
    is split into its real and imaginary parts, four real semidirect
    brackets run, and their results recombine as rr - ii + i (ri + ir)."""

    def parts(letter, n):
        if n == 0:
            re_part, im_part = TrigPoly.zero(), TrigPoly.const(1.0)
        else:
            re_part = TrigPoly.harmonic_sin(abs(n), -1.0 if n > 0 else 1.0)
            im_part = TrigPoly.harmonic_cos(abs(n), 1.0)
        zero = TrigPoly.zero()
        return [SemidirectElement(p, zero) if letter == "L"
                else SemidirectElement(zero, p) for p in (re_part, im_part)]

    (x_re, x_im), (y_re, y_im) = (parts(pair.kind[0], pair.n),
                                  parts(pair.kind[1], pair.m))
    rr, ri, ir, ii = (semidirect_bracket(x, y, c0) for x, y in (
        (x_re, y_re), (x_re, y_im), (x_im, y_re), (x_im, y_im)))
    coeffs = {}
    for letter, part in (("L", "v"), ("J", "w")):
        rr_p, ri_p, ir_p, ii_p = (getattr(b, part)
                                  for b in (rr, ri, ir, ii))
        for k, ck in ((rr_p - ii_p) + (ri_p + ir_p) * 1j).exp_coeffs().items():
            if abs(ck) > 1e-12:
                coeffs[(letter, k)] = -1j * ck
    return coeffs, complex(rr.a - ii.a, ri.a + ir.a)


@pytest.mark.parametrize("kind", ["LL", "LJ", "JJ"])
def test_generator_bracket_matches_four_real_brackets(kind):
    c0 = 1.7
    for n in range(-12, 13):
        for m in range(-12, 13):
            pair = GeneratorIndexPair(n, m, kind)
            coeffs, central = generator_bracket(pair, c0)
            want_coeffs, want_central = _generator_bracket_by_real_parts(
                pair, c0)
            assert coeffs.keys() == want_coeffs.keys()
            for key, want in want_coeffs.items():
                assert abs(coeffs[key] - want) <= 1e-12 * abs(want)
            assert abs(central - want_central) <= 1e-12 * abs(want_central)


def test_generator_brackets_reproduce_the_classical_table():
    for n in range(-8, 9):
        for m in range(-8, 9):
            coeffs, central = generator_bracket(GeneratorIndexPair(n, m, "LL"))
            if n != m:
                assert abs(coeffs.pop(("L", n + m)) - (n - m)) < 1e-10
            assert all(abs(v) < 1e-10 for v in coeffs.values())
            want = -12j * PI * (n ** 3 - 2 * n) if n + m == 0 else 0.0
            assert abs(central - want) < 1e-10

            coeffs, central = generator_bracket(GeneratorIndexPair(n, m, "JJ"))
            assert not coeffs
            want = -12j * PI * (3 * n) if n + m == 0 else 0.0
            assert abs(central - want) < 1e-10

            coeffs, central = generator_bracket(GeneratorIndexPair(n, m, "LJ"))
            if m != 0:
                assert abs(coeffs.pop(("J", n + m)) - (-m)) < 1e-10
            assert all(abs(v) < 1e-10 for v in coeffs.values())
            # the mixed central term is real: the boundary integral gives
            # -12 pi c0 n m on the diagonal m = -n, i.e. +12 pi n^2
            want = 12.0 * PI * n * n if n + m == 0 else 0.0
            assert abs(central - want) < 1e-10


def test_generator_bracket_scales_centrals_with_c0():
    _, base = generator_bracket(GeneratorIndexPair(3, -3, "LL"), c0=1.0)
    _, doubled = generator_bracket(GeneratorIndexPair(3, -3, "LL"), c0=2.0)
    assert doubled == 2.0 * base


def test_generator_index_pair_validates_its_kind():
    with pytest.raises(DomainError):
        GeneratorIndexPair(1, -1, "XY")


def test_generator_table_csv_round_trip():
    pairs = [GeneratorIndexPair(2, -2, "LL"), GeneratorIndexPair(1, 3, "LJ"),
             GeneratorIndexPair(4, -4, "JJ")]
    rows = generator_table_rows(pairs)
    assert [row["kind"] for row in rows] == ["LL", "LJ", "JJ"]
    assert [row["n"] for row in rows] == [2, 1, 4]
    assert rows[0]["coefficient"] == 4.0          # (n - m) at (2, -2)
    assert rows[0]["central-imag"] == pytest.approx(-12.0 * PI * 4.0)
    assert rows[1]["coefficient"] == -3.0         # -m at (1, 3)
    assert rows[1]["central-real"] == 0.0
    assert rows[2]["central-imag"] == pytest.approx(-12.0 * PI * 12.0)


def _boundary_bracket_unskipped(v3, v4, w3, w4):
    """The boundary bracket with every product formed by tp_multiply."""
    d = tp_derivative
    return (tp_multiply(v4, d(w3)) - tp_multiply(w4, d(v3)),
            tp_multiply(v4, d(w4)) - tp_multiply(w4, d(v4)))


def _circle_bracket_unskipped(v, w):
    """v w' - w v' with both products formed by tp_multiply."""
    d = tp_derivative
    return (tp_multiply(v, d(w)) - tp_multiply(w, d(v)),)


def _bits(bracket, *operands):
    """Coefficient bytes, flag and cap of both parts, or the error type."""
    try:
        parts = bracket(*operands)
    except HarmonicCapError:
        return HarmonicCapError
    return [(p.coeffs.tobytes(), p.real, p.max_harmonic) for p in parts]


def test_boundary_bracket_skips_zero_factors_bit_for_bit():
    rng = np.random.default_rng(11)
    zeros = [TrigPoly.zero(), TrigPoly(-0.0), TrigPoly.exp_harmonic(2, 0.0),
             TrigPoly(0.0, max_harmonic=2)]      # real, -0, complex, capped
    pool = zeros + [
        TrigPoly(*rng.uniform(-0.5, 0.5, 3), max_harmonic=40),  # degree 1
        TrigPoly(0.1, rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)),
        _random_complex_poly(rng, 2), _random_complex_poly(rng, 4),
        TrigPoly.exp_harmonic(-3, 1j), TrigPoly.exp_harmonic(0, 1j),
        TrigPoly.exp_harmonic(4, 1j)]
    capped = 0
    for ops in itertools.product(pool, repeat=4):
        want = _bits(_boundary_bracket_unskipped, *ops)
        assert _bits(liealg._boundary_bracket, *ops) == want
        capped += want is HarmonicCapError
    assert capped                  # the capped zero still checks the cap
    # circle_bracket, the V4 part, skips zero factors alike
    for v, w in itertools.product(pool, repeat=2):
        assert (_bits(lambda v, w: (circle_bracket(v, w),), v, w)
                == _bits(_circle_bracket_unskipped, v, w))
    # the operands of [L_n, L_m], [L_n, J_m] and [J_n, J_m], ordered
    # (x_w, x_v, y_w, y_v) as semidirect_bracket passes them
    zero = TrigPoly.zero()
    for n, m in itertools.product(range(-4, 5), repeat=2):
        x, y = TrigPoly.exp_harmonic(n, 1j), TrigPoly.exp_harmonic(m, 1j)
        for ops in ((zero, x, zero, y), (zero, x, y, zero),
                    (x, zero, y, zero)):
            assert (_bits(liealg._boundary_bracket, *ops)
                    == _bits(_boundary_bracket_unskipped, *ops))


def test_generator_table_builds_each_generator_once(monkeypatch):
    liealg._generator_poly.cache_clear()
    built = []
    exp_harmonic = TrigPoly.exp_harmonic

    def counting(n, c=1.0):
        built.append(n)
        return exp_harmonic(n, c)

    monkeypatch.setattr(TrigPoly, "exp_harmonic", counting)
    span = range(-12, 13)
    pairs = [GeneratorIndexPair(n, m, kind) for kind in ("LL", "LJ", "JJ")
             for n in span for m in span]
    generator_table_rows(pairs, 1.3)
    assert sorted(built) == list(span)


# sha256 of repr(generator_table_rows(...)) over |n|, |m| <= 20, n outer
# and m inner; a float's repr keeps its sign, so signed zeros count
GENERATOR_ROW_DIGESTS = {
    (1.0, "LL"): "136d9d8e5e643e835407558b1b5875a1"
                 "adf65cfdbd405268712104e33327b1ea",
    (1.0, "LJ"): "54a3681cf3c1b6cb983eb6b43e2e5c2d"
                 "89fad2eea73e4ffaa6337c54f5252623",
    (1.0, "JJ"): "73995159718d92cb26f96229f11fb7cc"
                 "0556cc32f738dd77f82dcff21d42f7bb",
    (1.7, "LL"): "b5f510c08027f17d03fcff97505f9958"
                 "96b3dfa39d92928e8cbff91b087527aa",
    (1.7, "LJ"): "36ec82a4a16f9a369dab9b4e637f5959"
                 "1a866afd9d677285054767045465cb64",
    (1.7, "JJ"): "5c125eea3ef4444ada8c3971701d1f54"
                 "d269d23baea9e709200512ce8f28583b",
}


@pytest.mark.parametrize(("c0", "kind"), sorted(GENERATOR_ROW_DIGESTS))
def test_generator_rows_match_their_stored_repr(c0, kind):
    span = range(-20, 21)
    rows = generator_table_rows(
        [GeneratorIndexPair(n, m, kind) for n in span for m in span], c0)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == GENERATOR_ROW_DIGESTS[c0, kind]


# ---------------------------------------------------------------------------
# variation of the Maurer-Cartan form
# ---------------------------------------------------------------------------

def test_theta_variation_at_the_identity():
    residual = theta_variation_residual(DiscDiffeo.identity(), ALEX_FIELD,
                                        (0.42, 0.31))
    assert residual < 1e-5


def test_theta_variation_of_the_zero_field_is_exact():
    zero = SeparableDiscField()
    residual = theta_variation_residual(DiscDiffeo.from_link(Rotation(0.8)),
                                        zero, (0.42, 0.31))
    assert residual == 0.0


def test_theta_variation_for_rotation_and_twist():
    rot = DiscDiffeo.from_link(Rotation(0.8))
    assert theta_variation_residual(rot, TWIST_FIELD, (0.42, 0.31)) < 1e-5
    twist = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.1, 0.9, 0.12)))
    assert theta_variation_residual(twist, ALEX_FIELD, (0.42, 0.31)) < 1e-5
