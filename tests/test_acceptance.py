"""Acceptance sweep: the ten headline checks at their stated tolerances.

Each criterion is one test that prints a single PASS/FAIL line (visible
under ``pytest -s``) before asserting, so a full run reads as a ten-line
report.  Default grids throughout: 96 x 256 on the disc, 24 x 64^2 on the
ball, c0 = 1.

Oracles
-------
Structure constants and the Gelfand-Fuchs value were derived twice
(boundary integrals by hand, and an independent symbolic pass); quadrature
criteria use refinement decay of a fixed family as their oracle, with the
stated tolerance sitting well above the measured default-grid residual.
The mixed L/J central term is asserted with its real value -12 pi c0 n m:
the boundary integral produces no factor i next to it.  The restricted
G(beta) display is asserted on v3 = w3 = 0 pairs whose v4 pairing
integral vanishes, which is the hypothesis under which the display equals
the full boundary formula term for term.
"""

import math
import time

import numpy as np

from virbott.cocycle import (
    CocycleConfig,
    delta_g_residual,
    gamma,
    omega0,
    wz_term,
)
from virbott.diffeo import (
    AlexanderRadial,
    BumpProfile,
    CutoffProfile,
    DiscDiffeo,
    PoweredCutoffProfile,
    RadialTwist,
    Rotation,
    ball_extend,
    cutoff_make,
    disc_compose,
    disc_invert,
)
from virbott.forms import BallGrid, DiscGrid, eta_closedness_residual
from virbott.liealg import (
    GeneratorIndexPair,
    SeparableDiscField,
    beta_from_gamma_fd,
    beta_integral,
    gbeta_boundary,
    gbeta_cyclic_residual,
    generator_table_rows,
)
from virbott.trigpoly import (
    TrigPoly,
    gelfand_fuchs,
    tp_derivative,
    tp_integrate_period,
    tp_multiply,
)

PI = math.pi
CFG = CocycleConfig()
CFG_DISC_FINE = CocycleConfig(1.0, DiscGrid(192, 512), BallGrid(6, 16))
CFG_BALL_FINE = CocycleConfig(1.0, DiscGrid(96, 256), BallGrid(48, 128))

XI = cutoff_make(0.05, 0.05)
XI_B = cutoff_make(0.10, 0.10)
FIELD_XI = cutoff_make(0.20, 0.20)

TW1 = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.10, 0.90, 0.12)))
TW2 = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.12, 0.88, -0.10)))
TW3 = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.15, 0.85, 0.08)))
TW4 = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.11, 0.89, -0.09)))
TW_SHARP = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.25, 0.85, 0.8)))
ALEX = DiscDiffeo.from_link(AlexanderRadial(
    TrigPoly(0.0, [0.35, 0.0], [0.0, -0.15]), cutoff_make(0.2, 0.15), 1.0))
ROT = DiscDiffeo.from_link(Rotation(0.7))


def _report(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _random_poly(rng, max_harmonic, scale):
    return TrigPoly(scale * rng.uniform(-1.0, 1.0),
                    scale * rng.uniform(-1.0, 1.0, max_harmonic),
                    scale * rng.uniform(-1.0, 1.0, max_harmonic))


def _random_field(rng, max_harmonic=3, scale=0.25):
    prof = CutoffProfile(FIELD_XI)
    return SeparableDiscField(
        v3_terms=[(prof, _random_poly(rng, max_harmonic, scale))],
        v4_terms=[(prof, _random_poly(rng, max_harmonic, scale))])


def _random_alexander(rng):
    coeffs = 0.25 * rng.uniform(-1.0, 1.0, 4)
    return DiscDiffeo.from_link(AlexanderRadial(
        TrigPoly(0.0, coeffs[:2], coeffs[2:]), cutoff_make(0.2, 0.15),
        0.5 + 0.5 * rng.uniform()))


def _random_twist(rng):
    return DiscDiffeo.from_link(RadialTwist(
        BumpProfile(0.10, 0.90, 0.05 + 0.10 * rng.uniform())))


# ----------------------------------------------------------------------
# 1. generator structure constants
# ----------------------------------------------------------------------

def test_criterion_01_generator_structure_constants():
    start = time.perf_counter()
    worst = 0.0
    for kind in ("LL", "LJ", "JJ"):
        for n in range(-8, 9):
            pairs = [GeneratorIndexPair(n, m, kind) for m in range(-8, 9)]
            for row in generator_table_rows(pairs):
                m = row["m"]
                central = complex(row["central-real"], row["central-imag"])
                if kind == "LL":
                    want_c = float(n - m)
                    want_z = -12j * PI * (n**3 - 2 * n) if m == -n else 0.0
                elif kind == "LJ":
                    want_c = float(-m)
                    want_z = -12.0 * PI * n * m if m == -n else 0.0
                else:
                    want_c = 0.0
                    want_z = -36j * PI * n if m == -n else 0.0
                worst = max(worst, abs(row["coefficient"] - want_c),
                            abs(central - want_z))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"max deviation {worst:.2e}, {elapsed:.2f} s")


# ----------------------------------------------------------------------
# 2. Stokes reduction of beta to the boundary
# ----------------------------------------------------------------------

def test_criterion_02_stokes_reduction_with_decay():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    pairs = [(_random_field(rng), _random_field(rng)) for _ in range(20)]
    res_default = max(abs(gbeta_boundary(v, w) - beta_integral(v, w, CFG))
                      for v, w in pairs)
    res_fine = max(abs(gbeta_boundary(v, w)
                       - beta_integral(v, w, CFG_DISC_FINE))
                   for v, w in pairs)
    elapsed = time.perf_counter() - start
    ok = (res_default <= 1e-5 and res_fine <= res_default / 4.0
          and elapsed < 60.0)
    _report(2, ok, f"residual {res_default:.2e}, doubled-grid "
                   f"{res_fine:.2e}, {elapsed:.1f} s")


# ----------------------------------------------------------------------
# 3. group 2-cocycle identity
# ----------------------------------------------------------------------

def test_criterion_03_gamma_cocycle_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(10):
        a, b, c = (_random_alexander(rng), _random_twist(rng),
                   _random_alexander(rng))
        worst = max(worst, abs(
            gamma(a, b, CFG) + gamma(disc_compose(a, b), c, CFG)
            - gamma(b, c, CFG) - gamma(a, disc_compose(b, c), CFG)))
    g = disc_compose(ALEX, ROT)
    ident = DiscDiffeo.identity()
    norm = max(abs(gamma(g, ident, CFG)), abs(gamma(ident, g, CFG)),
               abs(gamma(g, disc_invert(g), CFG)))
    anti = abs(gamma(ALEX, TW_SHARP, CFG)
               + gamma(disc_invert(TW_SHARP), disc_invert(ALEX), CFG))
    elapsed = time.perf_counter() - start
    ok = (worst <= 1e-7 and norm <= 1e-8 and anti <= 1e-8
          and elapsed < 120.0)
    _report(3, ok, f"identity {worst:.2e}, normalization {norm:.2e}, "
                   f"antisymmetry {anti:.2e}, {elapsed:.1f} s")


# ----------------------------------------------------------------------
# 4. Wess-Zumino well-definedness
# ----------------------------------------------------------------------

def test_criterion_04_wz_well_definedness():
    start = time.perf_counter()
    w_a = wz_term(ball_extend(TW1, XI), CFG)
    w_b = wz_term(ball_extend(TW1, XI_B), CFG)
    w_c = wz_term(ball_extend(TW1, XI, profile=PoweredCutoffProfile(XI, 2)),
                  CFG)
    ext_diff = max(abs(w_a - w_b), abs(w_a - w_c))
    layered = [
        ball_extend(TW_SHARP, cutoff_make(0.2, 0.15),
                    profile=BumpProfile(0.2, 0.8, 0.9)),
        ball_extend(TW1, XI, profile=BumpProfile(0.3, 0.7, -0.6)),
        ball_extend(TW2, XI_B, profile=BumpProfile(0.25, 0.75, 0.5)),
        ball_extend(ALEX, cutoff_make(0.2, 0.15),
                    profile=BumpProfile(0.2, 0.8, 0.7)),
        ball_extend(disc_compose(TW1, TW2), XI,
                    profile=BumpProfile(0.15, 0.85, 0.4)),
    ]
    trivial = max(abs(wz_term(b, CFG)) for b in layered)
    elapsed = time.perf_counter() - start
    ok = ext_diff <= 1e-6 and trivial <= 1e-6 and elapsed < 180.0
    _report(4, ok, f"extension spread {ext_diff:.2e}, boundary-trivial "
                   f"max {trivial:.2e}, {elapsed:.1f} s")


# ----------------------------------------------------------------------
# 5. coboundary of omega0 equals gamma
# ----------------------------------------------------------------------

def test_criterion_05_omega0_coboundary():
    start = time.perf_counter()
    pairs = [(TW1, TW2), (TW2, TW3), (TW3, TW4),
             (disc_compose(TW1, TW3), TW2), (TW4, disc_compose(TW1, TW2))]

    def residual(g, h, cfg):
        return abs(omega0(disc_compose(g, h), cfg, xi=XI)
                   - omega0(g, cfg, xi=XI) - omega0(h, cfg, xi=XI)
                   - gamma(g, h, cfg))

    res = [residual(g, h, CFG) for g, h in pairs]
    worst = max(res)
    g_w, h_w = pairs[res.index(worst)]
    refined = residual(g_w, h_w, CFG_BALL_FINE)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and refined <= worst / 4.0 and elapsed < 300.0
    _report(5, ok, f"residual {worst:.2e}, refined {refined:.2e}, "
                   f"{elapsed:.1f} s")


# ----------------------------------------------------------------------
# 6. normality residual Delta_g
# ----------------------------------------------------------------------

def test_criterion_06_delta_g_normality_with_decay():
    start = time.perf_counter()
    rotations = [DiscDiffeo.from_link(Rotation(a)) for a in (0.7, -1.2, 2.0)]
    rot_res = max(delta_g_residual(r, TW1, CFG) for r in rotations)
    at_default = delta_g_residual(ALEX, TW1, CFG, xi=XI)
    refined = delta_g_residual(ALEX, TW1, CFG_BALL_FINE, xi=XI)
    elapsed = time.perf_counter() - start
    worst = max(rot_res, at_default)
    ok = worst <= 1e-4 and refined <= at_default / 4.0
    _report(6, ok, f"rotation {rot_res:.2e}, conjugated {at_default:.2e}, "
                   f"refined {refined:.2e}, {elapsed:.1f} s")


# ----------------------------------------------------------------------
# 7. G(beta) is a Lie-algebra 2-cocycle
# ----------------------------------------------------------------------

def test_criterion_07_gbeta_cyclic_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(70)
    worst = max(gbeta_cyclic_residual(_random_field(rng, max_harmonic=5),
                                      _random_field(rng, max_harmonic=5),
                                      _random_field(rng, max_harmonic=5))
                for _ in range(8))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(7, ok, f"cyclic residual {worst:.2e}, {elapsed:.2f} s")


# ----------------------------------------------------------------------
# 8. beta from gamma by finite differences
# ----------------------------------------------------------------------

def test_criterion_08_beta_fd_cross_derivation():
    start = time.perf_counter()
    alex_a = SeparableDiscField(v4_terms=[
        (CutoffProfile(cutoff_make(0.2, 0.15)),
         TrigPoly(0.0, [0.35], [0.0, -0.15]))])
    alex_b = SeparableDiscField(v4_terms=[
        (CutoffProfile(cutoff_make(0.25, 0.2)),
         TrigPoly(0.0, [0.0, -0.2], [0.3]))])
    twist = SeparableDiscField(v4_terms=[
        (BumpProfile(0.15, 0.85, 1.0), TrigPoly(0.5))])
    worst = 0.0
    for v, w in ((alex_a, alex_b), (twist, alex_a)):
        worst = max(worst, abs(beta_from_gamma_fd(v, w, cfg=CFG)
                               - beta_integral(v, w, CFG)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3
    _report(8, ok, f"fd vs integral {worst:.2e}, {elapsed:.1f} s")


# ----------------------------------------------------------------------
# 9. eta_n are closed
# ----------------------------------------------------------------------

def test_criterion_09_eta_closedness():
    start = time.perf_counter()
    worst = max(eta_closedness_residual(n, samples=100, seed=90 + n)
                for n in (2, 3))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12
    _report(9, ok, f"closedness residual {worst:.2e}, {elapsed:.1f} s")


# ----------------------------------------------------------------------
# 10. Gelfand-Fuchs value and the restricted display
# ----------------------------------------------------------------------

def test_criterion_10_gelfand_fuchs_and_restricted_display():
    start = time.perf_counter()
    gf = gelfand_fuchs(TrigPoly.exp_harmonic(1), TrigPoly.exp_harmonic(-1))
    gf_err = abs(gf - (-1.0 / 12.0))
    rng = np.random.default_rng(100)
    prof = CutoffProfile(FIELD_XI)
    display_err = 0.0
    for _ in range(6):
        a = 0.4 * rng.uniform(-1.0, 1.0, 4)
        b = 0.4 * rng.uniform(-1.0, 1.0, 4)
        # disjoint harmonic supports: the v4 pairing integral is exactly
        # zero, the hypothesis under which the display is the whole story
        v4 = TrigPoly(0.0, [a[0], 0.0, a[1]], [a[2], 0.0, a[3]])
        w4 = TrigPoly(0.0, [0.0, b[0], 0.0, b[1]], [0.0, b[2], 0.0, b[3]])
        full = gbeta_boundary(SeparableDiscField(v4_terms=[(prof, v4)]),
                              SeparableDiscField(v4_terms=[(prof, w4)]))
        display = -6.0 * tp_integrate_period(
            tp_multiply(tp_derivative(v4),
                        tp_derivative(tp_derivative(w4))))
        display_err = max(display_err, abs(full - display))
    elapsed = time.perf_counter() - start
    ok = gf_err <= 1e-12 and display_err == 0.0
    _report(10, ok, f"gf deviation {gf_err:.2e}, display mismatch "
                    f"{display_err:.2e}, {elapsed:.2f} s")
