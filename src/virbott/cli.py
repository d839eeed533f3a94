"""Verification harness: check suites, JSON reports, convergence studies.

The rest of the package states identities; this module wires them to
concrete grids, tolerances, and seeds so the whole construction can be
rechecked in one command.  Each named check measures one residual and is
grouped into a suite (``forms``, ``cocycle``, ``wz``, ``liealg``); the
``all`` suite runs every check.  ``run_suite`` produces a ``Report`` whose
JSON serialization is deterministic for a fixed seed, and
``convergence_study`` reruns one check over a ladder of grids and returns
CSV rows so quadrature decay can be inspected offline.

Command line::

    virbott verify --suite liealg --out report.json
    virbott converge gamma-cocycle --levels 3 --out decay.csv

Every flag can also come from ``--config PATH``, a file of ``key = value``
lines whose keys are the long flag names.  Each line is read as the verb's
own long flag (``--key=value``; a true ``timing`` is ``--timing``) and put
before the command line's flags, so both sources share one parser: the
same types, choices, errors, and precedence (the command line wins).  Keys
of a flag only the other verb has (``levels`` in a ``verify`` file,
``suite`` and ``timing`` in a ``converge`` file) are ignored.

Exit status of ``verify`` is 0 exactly when every selected check passes.
A failing check is recorded in the report (``"pass": false``); only broken
configuration, an empty or unwritable ``--out`` included, raises
(``ConfigError``) and exits 2; the ``--out`` path is checked before any
check runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import math
import operator
import os
import sys
import time
import zlib

import numpy as np

from .cocycle import (
    CheckResult,
    CocycleConfig,
    ExtElement,
    delta_g_residual,
    ext_mul,
    gamma,
    omega0,
    wz_term,
)
from .diffeo import (
    ANALYTIC,
    FD4,
    AlexanderRadial,
    BumpProfile,
    CutoffProfile,
    DerivativePlan,
    DiscDiffeo,
    RadialTwist,
    Rotation,
    ball_extend,
    cutoff_make,
    disc_compose,
    disc_invert,
)
from .errors import ConfigError, DomainError
from .forms import BallGrid, DiscGrid, eta_closedness_residual, mc_components
from .liealg import (
    GeneratorIndexPair,
    SeparableDiscField,
    beta_from_gamma_fd,
    beta_integral,
    gbeta_boundary,
    gbeta_cyclic_residual,
    generator_table_rows,
)
from .trigpoly import (
    TrigPoly,
    circle_bracket,
    gelfand_fuchs,
    heisenberg_cocycle,
    tp_derivative,
    tp_integrate_period,
    tp_multiply,
)

try:            # per-thread counts keep each row right under --jobs
    from resource import RUSAGE_THREAD as _RUSAGE_THREAD
    from resource import getrusage as _getrusage
except ImportError:
    _getrusage = None

__all__ = [
    "Report",
    "SuiteConfig",
    "check_names",
    "convergence_study",
    "main",
    "run_suite",
    "write_convergence_csv",
]

SUITES = ("all", "cocycle", "wz", "liealg", "forms")

_GRID_AXES = ("n_r", "n_theta", "n_rho", "n_plane")
_CSV_FIELDS = ("check", "n_r", "n_theta", "n_rho", "n_plane",
               "value", "residual")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class SuiteConfig:
    """Everything a run needs: suite, coupling, grids, plan, seed, knobs.

    Validation happens here so the check runners can assume a usable
    configuration; every inconsistency surfaces as ``ConfigError``.
    ``tolerances`` overrides the per-check defaults by check name.
    """

    __slots__ = ("suite", "c0", "n_r", "n_theta", "n_rho", "n_plane", "L",
                 "plan", "seed", "tolerances", "out_path", "jobs", "timing",
                 "cocycle_cfg")

    def __init__(self, suite: str = "all", c0: float = 1.0, n_r: int = 96,
                 n_theta: int = 256, n_rho: int = 24, n_plane: int = 64,
                 L: float = 1.25, plan=ANALYTIC, seed: int = 0,
                 tolerances: dict | None = None, out_path: str | None = None,
                 jobs: int = 1, timing: bool = False):
        if suite not in SUITES:
            raise ConfigError(f"unknown suite {suite!r}; pick one of {SUITES}")
        self.suite = suite
        if isinstance(plan, str):
            plan = _wrap_config(DerivativePlan, plan.lower())
        self.plan = plan
        # counts are taken whole or refused, never truncated
        index = operator.index
        for name, value, convert in (
                ("n_r", n_r, index), ("n_theta", n_theta, index),
                ("n_rho", n_rho, index), ("n_plane", n_plane, index),
                ("seed", seed, index), ("jobs", jobs, index),
                ("c0", c0, float), ("L", L, float)):
            try:
                setattr(self, name, convert(value))
            except (TypeError, ValueError, OverflowError):
                kind = "an integer" if convert is index else "a number"
                raise ConfigError(
                    f"{name} must be {kind}, got {value!r}") from None
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {self.jobs}")
        self.timing = bool(timing)
        self.tolerances = {}
        for key, val in (tolerances or {}).items():
            try:
                self.tolerances[key] = float(val)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"tolerance for {key!r} must be a number, "
                                  f"got {val!r}") from None
            if not 0.0 <= self.tolerances[key] < math.inf:
                raise ConfigError(f"tolerance for {key!r} must be finite and "
                                  f"non-negative, got {val!r}")
        self.out_path = out_path
        if out_path is not None:
            _check_writable(out_path)
        # building the quadrature config validates c0 and the grid bounds
        self.cocycle_cfg = _wrap_config(
            lambda: CocycleConfig(self.c0,
                                  DiscGrid(self.n_r, self.n_theta),
                                  BallGrid(self.n_rho, self.n_plane, self.L),
                                  self.plan))

    def with_grids(self, **dims) -> "SuiteConfig":
        """Copy of this config with some of n_r/n_theta/n_rho/n_plane
        replaced (convergence ladders)."""
        for key in dims:
            if key not in _GRID_AXES:
                raise ConfigError(f"unknown grid dimension {key!r}")
        kwargs = {key: getattr(self, key) for key in self.__slots__
                  if key != "cocycle_cfg"}
        return SuiteConfig(**{**kwargs, **dims})

    def meta(self) -> dict:
        return {"c0": self.c0,
                "grids": {"n_r": self.n_r, "n_theta": self.n_theta,
                          "n_rho": self.n_rho, "n_plane": self.n_plane,
                          "L": self.L},
                "plan": self.plan.kind,
                "seed": self.seed}


def _check_writable(path: str):
    """ConfigError unless ``path`` can be opened for writing; nothing is
    created or truncated before the run ends."""
    folder = os.path.dirname(os.path.abspath(path))
    if not path:
        why = "the path is empty"
    elif os.path.isdir(path):
        why = "it is a directory"
    elif not os.path.isdir(folder):
        why = f"no directory {folder!r}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        why = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write {path!r}: {why}")


def _wrap_config(fn, *args):
    """Run a constructor, converting its DomainError into ConfigError."""
    try:
        return fn(*args)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


class Report:
    """Outcome of one suite run: ordered check results plus run metadata.

    ``wall_time`` is the measured duration in seconds and feeds the
    human-readable summary; what lands in the JSON under
    ``meta["wall_time_seconds"]`` is decided by ``run_suite``.
    """

    __slots__ = ("suite", "checks", "meta", "wall_time")

    def __init__(self, suite: str, checks: list, meta: dict,
                 wall_time: float = 0.0):
        self.suite = suite
        self.checks = list(checks)
        self.meta = dict(meta)
        self.wall_time = float(wall_time)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"suite": self.suite,
                "checks": [c.as_dict() for c in self.checks],
                "meta": self.meta}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            tag = "pass" if c.passed else "FAIL"
            lines.append(f"  {tag}  {c.name:<28} residual {c.residual:10.3e}"
                         f"  tol {c.tolerance:8.1e}")
        done = sum(1 for c in self.checks if c.passed)
        lines.append(f"suite '{self.suite}': {done}/{len(self.checks)} checks"
                     f" passed in {self.wall_time:.1f} s")
        return lines


# ---------------------------------------------------------------------------
# check registry
# ---------------------------------------------------------------------------

class _Check:
    """One registered check: a law, a default tolerance, and the runner.

    ``axes`` names the grid dimensions the check's quadrature lives on;
    the ``converge`` verb doubles exactly these.
    """

    __slots__ = ("name", "suite", "law", "tolerance", "axes", "fn")

    def __init__(self, name, suite, law, tolerance, axes, fn):
        self.name = name
        self.suite = suite
        self.law = law
        self.tolerance = tolerance
        self.axes = axes
        self.fn = fn


_REGISTRY: dict[str, _Check] = {}


def _register(name, suite, law, tolerance, axes=("n_r", "n_theta")):
    def deco(fn):
        _REGISTRY[name] = _Check(name, suite, law, tolerance, axes, fn)
        return fn
    return deco


def check_names(suite: str = "all") -> list[str]:
    """Sorted names of the checks a suite would run."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; pick one of {SUITES}")
    return sorted(name for name, chk in _REGISTRY.items()
                  if suite == "all" or chk.suite == suite)


class _CheckContext:
    """What a check runner receives: the config pair and its own rng."""

    __slots__ = ("cfg", "ccfg", "rng")

    def __init__(self, cfg: SuiteConfig, rng):
        self.cfg = cfg
        self.ccfg = cfg.cocycle_cfg
        self.rng = rng


def _rng_for(name: str, seed: int):
    # one independent, order-insensitive stream per check
    return np.random.default_rng([seed, zlib.crc32(name.encode("ascii"))])


# ---------------------------------------------------------------------------
# shared test families (module level so the gamma cache is reused)
# ---------------------------------------------------------------------------

_XI = cutoff_make(0.05, 0.05)
_XI_B = cutoff_make(0.10, 0.10)
_FIELD_XI = cutoff_make(0.20, 0.20)

_TW_A = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.10, 0.90, 0.12)))
_TW_B = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.12, 0.88, -0.10)))
_TW_SHARP = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.25, 0.85, 0.8)))
_ROT = DiscDiffeo.from_link(Rotation(0.7))
_ALEX = DiscDiffeo.from_link(AlexanderRadial(
    TrigPoly(0.0, [0.35, 0.0], [0.0, -0.15]), cutoff_make(0.2, 0.15), 1.0))
_ALEX_B = DiscDiffeo.from_link(AlexanderRadial(
    TrigPoly(0.0, [-0.2], [0.25]), cutoff_make(0.2, 0.15), 0.8))


def _random_poly(rng, max_harmonic: int, scale: float) -> TrigPoly:
    return TrigPoly(scale * rng.uniform(-1.0, 1.0),
                    scale * rng.uniform(-1.0, 1.0, max_harmonic),
                    scale * rng.uniform(-1.0, 1.0, max_harmonic))


def _random_field(rng, max_harmonic: int = 3) -> SeparableDiscField:
    prof = CutoffProfile(_FIELD_XI)
    return SeparableDiscField(
        v3_terms=[(prof, _random_poly(rng, max_harmonic, 0.25))],
        v4_terms=[(prof, _random_poly(rng, max_harmonic, 0.25))])


def _random_alexander(rng) -> DiscDiffeo:
    coeffs = 0.25 * rng.uniform(-1.0, 1.0, 4)
    return DiscDiffeo.from_link(
        AlexanderRadial(TrigPoly(0.0, coeffs[:2], coeffs[2:]),
                        cutoff_make(0.2, 0.15), 0.5 + 0.5 * rng.uniform()))


def _random_twist(rng) -> DiscDiffeo:
    amp = 0.05 + 0.10 * rng.uniform()
    return DiscDiffeo.from_link(RadialTwist(BumpProfile(0.10, 0.90, amp)))


# ---------------------------------------------------------------------------
# forms suite
# ---------------------------------------------------------------------------

def _chk_eta(n, ctx):
    seed = int(ctx.rng.integers(0, 2**31 - 1))
    res = eta_closedness_residual(n, samples=100, seed=seed)
    return res, res, {"samples": 100}


for _n in (2, 3):
    _register(f"eta-closed-{_n}", "forms",
              f"eta_{_n} is a closed 3-form (antisymmetrized derivative "
              f"vanishes)", 1e-12)(functools.partial(_chk_eta, _n))


@_register("gelfand-fuchs-pin", "forms",
           "gelfand_fuchs(e^{i t} d/dt, e^{-i t} d/dt) = -1/12", 1e-12)
def _chk_gf_pin(ctx):
    val = gelfand_fuchs(TrigPoly.exp_harmonic(1), TrigPoly.exp_harmonic(-1))
    res = abs(val - (-1.0 / 12.0))
    return val.real, res, {}


@_register("gelfand-fuchs-cyclic", "forms",
           "cyclic sum of gelfand_fuchs over circle brackets vanishes",
           1e-12)
def _chk_gf_cyclic(ctx):
    worst = 0.0
    for _ in range(5):
        u, v, w = (_random_poly(ctx.rng, 4, 0.5) for _ in range(3))
        total = (gelfand_fuchs(circle_bracket(u, v), w)
                 + gelfand_fuchs(circle_bracket(v, w), u)
                 + gelfand_fuchs(circle_bracket(w, u), v))
        worst = max(worst, abs(total))
    return worst, worst, {"triples": 5, "max_harmonic": 4}


@_register("mc-plan-agreement", "forms",
           "analytic Maurer-Cartan jets match the FD4 stencil plan", 1e-6)
def _chk_mc_plan(ctx):
    g = disc_compose(_ALEX, _TW_A)
    r = 0.15 + 0.7 * ctx.rng.uniform(size=12)
    th = 2.0 * math.pi * ctx.rng.uniform(size=12)
    # one batch per plan: the FD4 steps are set per point, as for one point
    pts = np.stack([r * np.cos(th), r * np.sin(th)])
    a = mc_components(g.jet(pts, ANALYTIC))
    b = mc_components(g.jet(pts, FD4))
    return float(np.max(np.abs(a))), float(np.max(np.abs(a - b))), \
        {"points": 12}


# ---------------------------------------------------------------------------
# cocycle suite
# ---------------------------------------------------------------------------

@_register("gamma-normalization", "cocycle",
           "gamma(g, id) = gamma(id, g) = gamma(g, g^-1) = 0", 1e-8)
def _chk_gamma_norm(ctx):
    g = disc_compose(_ALEX, _ROT)
    ident = DiscDiffeo.identity()
    val = gamma(g, disc_invert(g), ctx.ccfg)
    res = max(abs(gamma(g, ident, ctx.ccfg)),
              abs(gamma(ident, g, ctx.ccfg)), abs(val))
    return val, res, {}


@_register("gamma-antisymmetry", "cocycle",
           "gamma(g, h) + gamma(h^-1, g^-1) = 0", 1e-8)
def _chk_gamma_anti(ctx):
    val = gamma(_ALEX, _TW_SHARP, ctx.ccfg)
    res = abs(val + gamma(disc_invert(_TW_SHARP), disc_invert(_ALEX),
                          ctx.ccfg))
    return val, res, {}


@_register("gamma-cocycle", "cocycle",
           "gamma(a,b) + gamma(ab,c) - gamma(b,c) - gamma(a,bc) = 0", 1e-7)
def _chk_gamma_cocycle(ctx):
    triples = [(_ALEX, _TW_SHARP, _ALEX_B),
               (_random_alexander(ctx.rng), _random_twist(ctx.rng),
                _random_alexander(ctx.rng))]
    worst = 0.0
    first = None
    for a, b, c in triples:
        ab = gamma(a, b, ctx.ccfg)
        res = abs(ab + gamma(disc_compose(a, b), c, ctx.ccfg)
                  - gamma(b, c, ctx.ccfg)
                  - gamma(a, disc_compose(b, c), ctx.ccfg))
        worst = max(worst, res)
        if first is None:
            first = ab
    return first, worst, {"triples": len(triples)}


@_register("ext-associativity", "cocycle",
           "central coordinates of (e1 e2) e3 and e1 (e2 e3) agree", 1e-7)
def _chk_ext_assoc(ctx):
    e1 = ExtElement(_ALEX, 0.3)
    e2 = ExtElement(_TW_SHARP, -0.2)
    e3 = ExtElement(_ALEX_B, 0.1)
    left = ext_mul(ext_mul(e1, e2, ctx.ccfg), e3, ctx.ccfg)
    right = ext_mul(e1, ext_mul(e2, e3, ctx.ccfg), ctx.ccfg)
    return left.a, abs(left.a - right.a), {}


# ---------------------------------------------------------------------------
# wz suite
# ---------------------------------------------------------------------------

@_register("wz-boundary-trivial", "wz",
           "W = 0 on layered maps whose boundary layer is the identity",
           1e-6, axes=("n_rho", "n_plane"))
def _chk_wz_trivial(ctx):
    b1 = ball_extend(_TW_SHARP, cutoff_make(0.2, 0.15),
                     profile=BumpProfile(0.2, 0.8, 0.9))
    b2 = ball_extend(_TW_A, _XI, profile=BumpProfile(0.3, 0.7, -0.6))
    val = wz_term(b1, ctx.ccfg)
    res = max(abs(val), abs(wz_term(b2, ctx.ccfg)))
    return val, res, {"maps": 2}


@_register("wz-extension-independence", "wz",
           "W depends only on the boundary value of the ball extension",
           1e-6, axes=("n_rho", "n_plane"))
def _chk_wz_extension(ctx):
    w_a = wz_term(ball_extend(_TW_A, _XI), ctx.ccfg)
    w_b = wz_term(ball_extend(_TW_A, _XI_B), ctx.ccfg)
    return w_a, abs(w_a - w_b), {}


@_register("omega0-coboundary", "wz",
           "omega0(gh) - omega0(g) - omega0(h) = gamma(g, h)", 1e-5,
           axes=("n_rho", "n_plane"))
def _chk_omega0_coboundary(ctx):
    val = gamma(_TW_A, _TW_B, ctx.ccfg)
    res = abs(omega0(disc_compose(_TW_A, _TW_B), ctx.ccfg, xi=_XI)
              - omega0(_TW_A, ctx.ccfg, xi=_XI)
              - omega0(_TW_B, ctx.ccfg, xi=_XI) - val)
    return val, res, {}


@_register("delta-g-normality", "wz",
           "the conjugation defect Delta_g vanishes on boundary-trivial h",
           1e-4, axes=("n_rho", "n_plane"))
def _chk_delta_g(ctx):
    rot = delta_g_residual(_ROT, _TW_A, ctx.ccfg)
    alex = delta_g_residual(_ALEX, _TW_A, ctx.ccfg, xi=_XI)
    return alex, max(rot, alex), {"conjugators": 2}


# ---------------------------------------------------------------------------
# liealg suite
# ---------------------------------------------------------------------------

def _generator_sweep(kind: str, ctx):
    """Worst deviation of measured structure constants from the closed
    forms over the window |n|, |m| <= 6."""
    c0 = ctx.cfg.c0
    worst = 0.0
    probe = 0.0
    for n in range(-6, 7):
        pairs = [GeneratorIndexPair(n, m, kind) for m in range(-6, 7)]
        for row in generator_table_rows(pairs, c0):
            n_, m_ = row["n"], row["m"]
            central = complex(row["central-real"], row["central-imag"])
            if kind == "LL":
                want_coeff = float(n_ - m_)
                want_central = (-12j * math.pi * c0 * (n_**3 - 2 * n_)
                                if m_ == -n_ else 0.0)
            elif kind == "LJ":
                want_coeff = float(-m_)
                want_central = (-12.0 * math.pi * c0 * n_ * m_
                                if m_ == -n_ else 0.0)
            else:
                want_coeff = 0.0
                want_central = -36j * math.pi * c0 * n_ if m_ == -n_ else 0.0
            worst = max(worst, abs(row["coefficient"] - want_coeff),
                        abs(central - want_central))
            if n_ == 2 and m_ == -2:
                probe = abs(central)
    return probe, worst, {"window": 6}


for _kind, _law in (
        ("LL", "[L_n, L_m] = (n - m) L_{n+m} - 12 pi i c0 (n^3 - 2n) "
               "d_{n+m,0}"),
        ("LJ", "[L_n, J_m] = -m J_{n+m} - 12 pi c0 n m d_{n+m,0}"),
        ("JJ", "[J_n, J_m] = -36 pi i c0 n d_{n+m,0}")):
    _register(f"generator-bracket-{_kind.lower()}", "liealg", _law, 1e-10)(
        functools.partial(_generator_sweep, _kind))


@_register("gbeta-cyclic", "liealg",
           "cyclic sum of G(beta) over quotient brackets vanishes", 1e-10)
def _chk_gbeta_cyclic(ctx):
    c0 = ctx.cfg.c0
    worst = 0.0
    first = None
    for _ in range(5):
        v0, v1, v2 = (_random_field(ctx.rng, max_harmonic=5)
                      for _ in range(3))
        worst = max(worst, gbeta_cyclic_residual(v0, v1, v2, c0))
        if first is None:
            first = gbeta_boundary(v0, v1, c0)
    return first, worst, {"triples": 5, "max_harmonic": 5}


@_register("stokes-reduction", "liealg",
           "G(beta) from boundary data equals the disc integral of beta",
           1e-5)
def _chk_stokes(ctx):
    c0 = ctx.cfg.c0
    worst = 0.0
    first = None
    for _ in range(5):
        v, w = _random_field(ctx.rng), _random_field(ctx.rng)
        integral = beta_integral(v, w, ctx.ccfg)
        worst = max(worst, abs(gbeta_boundary(v, w, c0) - integral))
        if first is None:
            first = integral
    return first, worst, {"pairs": 5}


@_register("restricted-display", "liealg",
           "-6 c0 int v4' w4'' equals G(beta) when the v4 pairing vanishes",
           1e-12)
def _chk_restricted(ctx):
    c0 = ctx.cfg.c0
    prof = CutoffProfile(_FIELD_XI)
    worst = 0.0
    first = None
    for _ in range(4):
        a = 0.4 * ctx.rng.uniform(-1.0, 1.0, 4)
        b = 0.4 * ctx.rng.uniform(-1.0, 1.0, 4)
        # disjoint harmonic supports keep the v4 pairing exactly zero
        v4 = TrigPoly(0.0, [a[0], 0.0, a[1]], [a[2], 0.0, a[3]])
        w4 = TrigPoly(0.0, [0.0, b[0], 0.0, b[1]], [0.0, b[2], 0.0, b[3]])
        full = gbeta_boundary(SeparableDiscField(v4_terms=[(prof, v4)]),
                              SeparableDiscField(v4_terms=[(prof, w4)]), c0)
        display = -6.0 * c0 * tp_integrate_period(
            tp_multiply(tp_derivative(v4),
                        tp_derivative(tp_derivative(w4))))
        worst = max(worst, abs(full - display))
        if first is None:
            first = full
    return first, worst, {"pairs": 4}


@_register("heisenberg-display", "liealg",
           "G(beta) = 18 c0 int v3' w3 on fields with no V4 part", 1e-12)
def _chk_heisenberg(ctx):
    c0 = ctx.cfg.c0
    prof = CutoffProfile(_FIELD_XI)
    worst = 0.0
    first = None
    for _ in range(4):
        v3, w3 = (_random_poly(ctx.rng, 3, 0.25) for _ in range(2))
        full = gbeta_boundary(SeparableDiscField(v3_terms=[(prof, v3)]),
                              SeparableDiscField(v3_terms=[(prof, w3)]), c0)
        worst = max(worst, abs(full - 18.0 * c0 * heisenberg_cocycle(v3, w3)))
        if first is None:
            first = full
    return first, worst, {"pairs": 4}


@_register("beta-fd-bridge", "liealg",
           "the mixed t,s derivative of gamma differences reproduces beta",
           1e-3)
def _chk_beta_fd(ctx):
    c0 = ctx.cfg.c0
    v = SeparableDiscField(v4_terms=[
        (CutoffProfile(cutoff_make(0.2, 0.15)),
         TrigPoly(0.0, [0.35], [0.0, -0.15]))])
    w = SeparableDiscField(v4_terms=[
        (CutoffProfile(cutoff_make(0.25, 0.2)),
         TrigPoly(0.0, [0.0, -0.2], [0.3]))])
    val = gbeta_boundary(v, w, c0)
    res = abs(beta_from_gamma_fd(v, w, cfg=ctx.ccfg) - val)
    return val, res, {}


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _minor_faults() -> int | None:
    """Minor page faults the calling thread has taken so far, or None
    where the platform does not count them per thread."""
    if _getrusage is None:
        return None
    return _getrusage(_RUSAGE_THREAD).ru_minflt


def _run_check(check: _Check, cfg: SuiteConfig):
    """Run one check on ``cfg``; return its value and its ``CheckResult``,
    which carries the check's wall time and minor page faults when
    ``cfg.timing`` is set."""
    params = {axis: getattr(cfg, axis) for axis in check.axes}
    faults = _minor_faults() if cfg.timing else None
    start = time.perf_counter()
    try:
        ctx = _CheckContext(cfg, _rng_for(check.name, cfg.seed))
        value, residual, extra = check.fn(ctx)
        value = float(value)
        params.update(extra)
    except Exception as exc:
        # a check that crashes for any reason, its set-up included, is
        # recorded as the worst possible failure, with the reason preserved,
        # so a report never loses a row and a suite or ladder never dies
        value, residual = math.nan, sys.float_info.max
        params["error"] = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start if cfg.timing else None
    if faults is not None:
        faults = _minor_faults() - faults
    tol = cfg.tolerances.get(check.name, check.tolerance)
    return value, CheckResult(check.name, check.law, residual, tol, params,
                              wall_time=wall, minor_faults=faults)


def _check_tolerance_names(cfg: SuiteConfig):
    """Raise ConfigError if a tolerance override names no check."""
    for key in cfg.tolerances:
        if key not in _REGISTRY:
            raise ConfigError(f"tolerance override names unknown check "
                              f"{key!r}")


def run_suite(cfg: SuiteConfig) -> Report:
    """Run every check of ``cfg.suite`` and assemble the report.

    Deterministic for a fixed seed: each check draws from its own named
    rng stream, results are sorted by check name, and JSON serialization
    is canonical.  The measured duration only reaches the JSON when
    ``cfg.timing`` is set — ``meta["wall_time_seconds"]`` is ``null``
    otherwise — so two runs of the same configuration produce
    byte-identical reports.  The summary lines always show the real time.
    Under ``cfg.timing`` the meta also holds the rows' total
    ``minor_faults``, where the platform counts them.
    """
    _check_tolerance_names(cfg)
    selected = [_REGISTRY[name] for name in check_names(cfg.suite)]
    start = time.perf_counter()
    if cfg.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=cfg.jobs) as pool:
            pairs = list(pool.map(lambda c: _run_check(c, cfg), selected))
    else:
        pairs = [_run_check(check, cfg) for check in selected]
    results = sorted((result for _, result in pairs), key=lambda r: r.name)
    wall = time.perf_counter() - start
    meta = cfg.meta()
    meta["wall_time_seconds"] = wall if cfg.timing else None
    if cfg.timing and _getrusage is not None:
        meta["minor_faults"] = sum(r.minor_faults for r in results)
    report = Report(cfg.suite, results, meta, wall)
    if cfg.out_path is not None:
        with _open_out(cfg.out_path) as handle:
            handle.write(report.to_json())
    return report


def _open_out(path: str, **kwargs):
    """``path`` opened for writing; ConfigError if it cannot be."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def _series_entry(entry) -> dict:
    """Check one grid-series entry, a dict over grid dimension names."""
    if not isinstance(entry, dict):
        raise ConfigError(f"series entry must be a dict over grid "
                          f"dimensions, got {entry!r}")
    bad = set(entry) - set(_GRID_AXES)
    if bad:
        raise ConfigError(f"unknown grid dimension(s) {sorted(bad)} "
                          f"in series entry")
    return entry


def convergence_study(check_name: str, grid_series, cfg: SuiteConfig) -> list:
    """Rerun one check over a ladder of grids.

    Returns one row per grid as a dict with the CSV fields
    ``check,n_r,n_theta,n_rho,n_plane,value,residual``.  The seed (and so
    the sampled family) is held fixed across the ladder, which is what
    makes the residual column a quadrature-decay measurement.  A level
    whose check crashes becomes a failing row (value NaN, residual
    ``sys.float_info.max``) with the reason under ``error``; the ladder
    goes on.  Tolerance overrides are checked as ``run_suite`` checks
    them, though the rows carry no tolerance.
    """
    check = _REGISTRY.get(check_name)
    if check is None:
        raise ConfigError(f"unknown check {check_name!r}; available: "
                          f"{', '.join(sorted(_REGISTRY))}")
    _check_tolerance_names(cfg)
    rows = []
    for entry in grid_series:
        sub = cfg.with_grids(**_series_entry(entry))
        value, result = _run_check(check, sub)
        row = {"check": check.name}
        row.update({axis: getattr(sub, axis) for axis in _GRID_AXES})
        row.update(value=value, residual=result.residual)
        if "error" in result.params:
            row["error"] = result.params["error"]
        rows.append(row)
    return rows


def write_convergence_csv(rows, handle) -> None:
    """Write study rows with the fixed header (a crashed row's ``error``
    is not a column)."""
    writer = csv.DictWriter(handle, fieldnames=_CSV_FIELDS,
                            extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

_FILE_KEYS = ("suite", "c0", "grid-r", "grid-theta", "ball-rho", "ball-xy",
              "plane-box", "plan", "seed", "tol", "timing", "out", "jobs",
              "levels")

# keys of a flag only one verb has; the other verb's files may hold them
_VERB_OF_KEY = {"suite": "verify", "timing": "verify", "levels": "converge"}


def _load_config_file(path: str, verb: str) -> list:
    """Read ``key = value`` lines (# comments allowed) as ``verb``'s long
    flags, in file order, each with its ``path:line``; keys of the other
    verb's flags are skipped."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if _VERB_OF_KEY.get(key, verb) != verb:
            continue
        where = f"{path}:{lineno}"
        if key != "timing":
            flags.append((where, f"--{key}={value}"))
        elif value.lower() in ("true", "yes", "1"):
            flags.append((where, "--timing"))
        elif value.lower() not in ("false", "no", "0"):
            raise ConfigError(f"{where}: timing needs true or false, "
                              f"got {value!r}")
    return flags


def _parse_tol_item(item: str):
    if "=" not in item:
        raise ConfigError(f"--tol expects KEY=VALUE, got {item!r}")
    key, value = item.split("=", 1)
    return key.strip(), value      # SuiteConfig converts and checks it


def _add_common_flags(sp):
    # dests are SuiteConfig's fields, and None (not given) leaves its default
    sp.add_argument("--config", metavar="PATH",
                    help="config file with 'key = value' lines (same keys "
                         "as the long flags); flags override it")
    sp.add_argument("--c0", type=float, help="coupling constant")
    sp.add_argument("--grid-r", dest="n_r", metavar="GRID_R", type=int,
                    help="radial disc nodes")
    sp.add_argument("--grid-theta", dest="n_theta", metavar="GRID_THETA",
                    type=int, help="angular disc nodes")
    sp.add_argument("--ball-rho", dest="n_rho", metavar="BALL_RHO", type=int,
                    help="layer nodes of the ball")
    sp.add_argument("--ball-xy", dest="n_plane", metavar="BALL_XY", type=int,
                    help="plane nodes per axis")
    sp.add_argument("--plane-box", dest="L", metavar="PLANE_BOX", type=float,
                    help="half-width of the plane chart box")
    sp.add_argument("--plan", choices=("analytic", "fd4"),
                    help="derivative plan for map jets")
    sp.add_argument("--seed", type=int, help="seed for sampled families")
    sp.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                    help="override one check tolerance (repeatable)")
    sp.add_argument("--out", dest="out_path", metavar="PATH",
                    help="output file")
    sp.add_argument("--jobs", type=int, help="concurrent checks")


def _add_verb_flags(sp, verb: str):
    """Add the options of ``verb`` (not its CHECK argument) to ``sp``."""
    if verb == "verify":
        sp.add_argument("--suite", choices=SUITES,
                        help="which checks to run")
        sp.add_argument("--timing", action="store_true", default=None,
                        help="record real wall time in the JSON report "
                             "(volatile; leave off to keep reports "
                             "diffable)")
    else:
        sp.add_argument("--levels", type=int, default=3,
                        help="ladder length (default 3)")
    _add_common_flags(sp)


def _build_parser():
    """The ``virbott`` parser and its subparser of each verb, by name."""
    parser = argparse.ArgumentParser(
        prog="virbott",
        description="Verify the cocycle identities behind the Virasoro-Bott "
                    "construction on configurable grids.")
    sub = parser.add_subparsers(dest="verb", required=True)
    sp_verify = sub.add_parser(
        "verify", help="run a check suite and report pass/fail")
    _add_verb_flags(sp_verify, "verify")
    sp_converge = sub.add_parser(
        "converge", help="rerun one check over doubling grids, emit CSV")
    sp_converge.add_argument("check", choices=sorted(_REGISTRY),
                             metavar="CHECK",
                             help="check name (see 'verify' report)")
    _add_verb_flags(sp_converge, "converge")
    return parser, {"verify": sp_verify, "converge": sp_converge}


def _check_file_flags(sp, verb: str, lines):
    """Parse each config-file flag alone, so that a value its flag's type
    or choices refuse is reported, through ``sp``, with its file and line."""
    alone = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    _add_verb_flags(alone, verb)
    for where, flag in lines:
        try:
            alone.parse_args([flag])
        except argparse.ArgumentError as exc:
            sp.error(f"{where}: {exc}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, verbs = _build_parser()
    args = parser.parse_args(argv)
    verb = args.verb
    try:
        if args.config is not None:
            lines = _load_config_file(args.config, verb)
            _check_file_flags(verbs[verb], verb, lines)
            # the file's flags go first, so the command line's win
            args = verbs[verb].parse_args(
                [flag for _, flag in lines] + argv[argv.index(verb) + 1:])
        given = {key: val for key, val in vars(args).items()
                 if key in SuiteConfig.__slots__ and val is not None}
        cfg = SuiteConfig(tolerances=dict(map(_parse_tol_item, args.tol)),
                          **given)
        if verb == "verify":
            report = run_suite(cfg)
            for line in report.summary_lines():
                print(line)
            return 0 if report.passed else 1
        if args.levels < 1:
            raise ConfigError(f"levels must be at least 1, got {args.levels}")
        check = _REGISTRY[args.check]
        series = [{axis: getattr(cfg, axis) * 2**i for axis in check.axes}
                  for i in range(args.levels)]
        rows = convergence_study(args.check, series, cfg)
        if cfg.out_path is not None:
            with _open_out(cfg.out_path, newline="") as handle:
                write_convergence_csv(rows, handle)
        else:
            write_convergence_csv(rows, sys.stdout)
        crashed = [row for row in rows if "error" in row]
        for row in crashed:
            print(f"virbott: {row['check']} crashed: {row['error']}",
                  file=sys.stderr)
        return 1 if crashed else 0
    except ConfigError as exc:
        print(f"virbott: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
