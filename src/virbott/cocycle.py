"""Group 2-cocycle of the disc diffeomorphism group and its ball realization.

gamma(g, h) = 3 c0 * integral_{D^2} tr(theta(g) ^ theta(h^{-1})) is a real
group 2-cocycle on asymptotically radial disc diffeomorphisms, and the
Wess-Zumino 1-cochain omega0(h) = c0 * W(ball extension of h) trivializes
it on the boundary-trivial subgroup.  Each identity of that construction
is exposed here as a residual: the 2-cocycle property, normalization,
the coboundary of omega0, the conjugation (normality) defect Delta_g, and
the coboundary of W with its boundary-sphere surface term.

The integrals skip the nodes where their integrand is exactly zero.  Every
map answers ``moves(pts)``, a mask that may be False only where its
analytic jet is exactly the identity (see :mod:`virbott.diffeo`); there
its Maurer-Cartan form is exactly 0, and so is any wedge trace that
contains it.  One generator, ``_moved_products``, feeds every quadrature:
gamma, W, the surface term of ``w_coboundary_residual`` and beta in
:mod:`virbott.liealg`, whose fields mask it the same way (a field's jet
is exactly 0 where its mask is False).  Each density is a product of
factors, and a factor may be a signed sum: gamma and the FD bridge to
beta integrate tr(A ^ B) for sums A, B of +-theta (``_wedge_integral``),
which is 0 wherever no map of A moves or no map of B does.  So the
stream takes, once on layer 0, the AND over the factors of the OR of
their maps' masks.  It sees a grid as a stack of layers of the same
points (the disc grid and the plane are one layer; the ball grid has one
per rho, and a layered map's mask does not depend on rho), optionally
keeps only some layers, gathers the moved nodes of the kept layers and
yields their weighted values to one exact sum (``forms._fsum_products``:
exponent-binned, rounded once, so equal to ``math.fsum``).

W masks its density, not its map, more tightly.  Its integrand
3 tr(theta_rho [theta_x, theta_y]) is an exact +-0 wherever the jet's
rho-partials are: frozen layers never depend on rho, and a graded layer
turns by c(rho) a, whose rho-partials c' a, c'' a, c' a_r and c' a_theta
vanish where a does or c' = c'' = 0.  So ``wz_term`` keeps the rho
layers where some graded profile has c' or c'' != 0 (a NaN is kept) and
the plane points some graded layer moves; a frozen-only map keeps none.
An exact +-0 moves no bit of the exact sum, so every value is
bit-identical to a full-grid sum.  Two things stay unmasked: the
box-edge support guards, which sample a few hundred points and must see
all of them, and the FD4 plan, whose stencils at a fixed node can reach
into the support.  A chain subclass that overrides ``jet`` must override
``moves`` to match.

Each density call sees at most ``_BLOCK`` grid nodes, the FD4 plan's
included: groups of whole kept layers, or pieces of one layer if it holds
more; a group holds as many layers as fit when every node moves.
So the jets, MC stacks and wedge traces of one integral hold one block's
worth of nodes however fine the grid.  The sum rounds exactly, so the
split moves no bit, with one exception: an ``InverseAngular`` link runs
one Newton iteration over its whole batch until the slowest node
converges, so a block split can move one of its roots by a rounding.
Importing this module pins glibc's mmap and trim thresholds
(``_pin_malloc``), so each block reuses the heap pages of the block
before it instead of faulting them in again.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from collections import OrderedDict

import numpy as np

from .diffeo import (
    ANALYTIC,
    BallDiffeo,
    CutoffFn,
    DiscDiffeo,
    ball_compose,
    ball_extend,
    conjugated_extension,
    cutoff_make,
    disc_compose,
    disc_invert,
    require_boundary_trivial,
)
from .errors import DomainError
from .forms import (
    BallGrid,
    DiscGrid,
    _check_edge,
    _fsum_products,
    _gl_nodes,
    integrate_ball,
    integrate_disc,
    mc_components,
    wedge_trace_2form,
    wedge_trace_cube,
)

__all__ = [
    "CheckResult",
    "CocycleConfig",
    "ExtElement",
    "delta_g_residual",
    "ext_mul",
    "gamma",
    "gamma_m",
    "omega0",
    "w_coboundary_residual",
    "wz_term",
]

# sampling band width for boundary-triviality checks of candidate H-elements
_BT_EPS = 0.05

_DEFAULT_BALL_CUTOFF = cutoff_make(0.2, 0.2)


class CocycleConfig:
    """Coupling constant, quadrature grids, and derivative plan in one bag."""

    __slots__ = ("c0", "disc_grid", "ball_grid", "plan")

    def __init__(self, c0: float = 1.0, disc_grid: DiscGrid | None = None,
                 ball_grid: BallGrid | None = None, plan=ANALYTIC):
        self.c0 = float(c0)
        if not math.isfinite(self.c0):
            raise DomainError("coupling constant c0 must be finite")
        self.disc_grid = disc_grid if disc_grid is not None else DiscGrid()
        self.ball_grid = ball_grid if ball_grid is not None else BallGrid()
        self.plan = plan


class ExtElement:
    """Element (g, a) of the central extension G^ = G x R."""

    __slots__ = ("g", "a")

    def __init__(self, g: DiscDiffeo, a: float):
        self.g = g
        self.a = float(a)

    def __repr__(self):
        return f"ExtElement(a={self.a!r}, links={len(self.g.links)})"


class CheckResult:
    """One verified identity: a residual measured against its tolerance.

    ``law`` states the identity in one line; ``params`` records whatever
    is needed to reproduce the check (seeds, grid sizes, indices).
    ``wall_time``, the seconds the check took, and ``minor_faults``, the
    minor page faults its thread took meanwhile, are left out of the row
    when they are None, so a row without them is reproducible byte for
    byte.
    """

    __slots__ = ("name", "law", "residual", "tolerance", "params",
                 "wall_time", "minor_faults")

    def __init__(self, name: str, law: str, residual: float,
                 tolerance: float, params: dict | None = None,
                 wall_time: float | None = None,
                 minor_faults: int | None = None):
        self.name = str(name)
        self.law = str(law)
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        self.params = dict(params) if params else {}
        self.wall_time = wall_time
        self.minor_faults = minor_faults

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        row = {"name": self.name, "law": self.law,
               "residual": self.residual, "tolerance": self.tolerance,
               "pass": self.passed, "params": self.params}
        if self.wall_time is not None:
            row["wall_time_seconds"] = self.wall_time
        if self.minor_faults is not None:
            row["minor_faults"] = self.minor_faults
        return row

    def __repr__(self):
        tag = "pass" if self.passed else "FAIL"
        return (f"CheckResult({self.name}: {self.residual:.3e} "
                f"<= {self.tolerance:.1e}? {tag})")


# ---------------------------------------------------------------------------
# the group 2-cocycle gamma
# ---------------------------------------------------------------------------

def _mc_stack(m, pts, plan) -> np.ndarray:
    """Batched Maurer-Cartan components (d, d, d, N) of a map on points."""
    return mc_components(m.jet(pts, plan))


def _mc_sum(terms, pts, plan) -> np.ndarray:
    """sum of sign * theta(m) over the (sign, m) of ``terms``, each map's
    stack built once; a single (1, m) is theta(m) bit for bit."""
    (sign, m), *rest = terms
    total = sign * _mc_stack(m, pts, plan)
    for sign, m in rest:
        total += sign * _mc_stack(m, pts, plan)
    return total


def _wedge_2form(left, right, plan):
    """The density tr(A ^ B) as a function of (2, N) points, A and B the
    signed sums of MC forms over the (sign, map) terms of ``left`` and
    ``right`` (see ``_mc_sum``)."""
    return lambda pts: wedge_trace_2form(_mc_sum(left, pts, plan),
                                         _mc_sum(right, pts, plan))


# most grid nodes one density call sees (see _moved_products)
_BLOCK = 2 ** 15

# glibc's mallopt parameters, and the values pinned for them below
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 2 ** 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _pin_malloc():
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at twice
    that, the most glibc's dynamic rule reaches on 64-bit; a no-op where
    libc has no ``mallopt``.

    The dynamic rule sets the mmap threshold to the largest chunk freed so
    far.  A block's jets and MC stacks (up to 27 * _BLOCK doubles) are its
    largest chunks, and its working set is several of them, so under that
    rule the top of the heap is trimmed, or those arrays mapped, after
    every block, and the next block faults every page in again.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_pin_malloc()


def _moved_products(density, factors, nodes, weights, plane, plan,
                    layers=None):
    """density times weight at the moved nodes, one array per batch of
    at most ``_BLOCK // plane`` kept layers (a layer of more than
    ``_BLOCK`` points is split into pieces of ``_BLOCK`` points).

    ``factors`` holds one tuple of masked objects (maps, or fields) per
    factor of the density; a node is moved where every factor has one that
    moves there.  ``nodes`` is a stack of layers of ``plane`` points each,
    the node of layer i and point k being i * plane + k: the disc grid and
    the plane are one layer, the ball grid one layer per rho.  The mask is
    taken once, on layer 0, and holds on the kept layers: all of them, or
    those where the boolean mask ``layers`` is True (see the module
    docstring).  Under a finite-difference plan every node counts as
    moved, and with no factors every node of a kept layer.
    """
    analytic = plan.kind == "analytic"
    if analytic and factors:
        pts = nodes[:, :plane]
        moved = np.flatnonzero(functools.reduce(np.logical_and, (
            functools.reduce(np.logical_or, (m.moves(pts) for m in factor))
            for factor in factors)))
    else:
        moved = np.arange(plane)
    kept = (np.flatnonzero(layers) if analytic and layers is not None
            else np.arange(nodes.shape[1] // plane))
    per = max(1, _BLOCK // plane)               # layers per batch
    span = min(plane, _BLOCK)                   # points per layer piece
    cuts = np.searchsorted(moved, np.arange(0, plane + span, span))
    for lo in range(0, kept.size, per):
        starts = kept[lo:lo + per, None] * plane
        for a, b in zip(cuts[:-1], cuts[1:]):
            if a < b:
                idx = (starts + moved[a:b]).ravel()
                yield density(nodes[:, idx]) * weights[idx]


def _wedge_integral(left, right, cfg: CocycleConfig) -> float:
    """integral_{D^2} tr(A ^ B) on the config disc grid, A and B the signed
    sums of MC forms of ``left`` and ``right`` (see ``_wedge_2form``),
    masked where no map of ``left`` or none of ``right`` moves."""
    grid = cfg.disc_grid
    return integrate_disc(_moved_products(
        _wedge_2form(left, right, cfg.plan),
        (tuple(m for _, m in left), tuple(m for _, m in right)),
        grid.xy, grid.weights, grid.npts, cfg.plan), grid)


# gamma values kept by the least-recently-used cache below
_GAMMA_CACHE_SIZE = 1024
_GAMMA_CACHE: OrderedDict = OrderedDict()
_GAMMA_LOCK = threading.Lock()


def gamma_m(g: DiscDiffeo, h: DiscDiffeo, cfg: CocycleConfig) -> float:
    """integral_{D^2} tr(theta(g) ^ theta(h^{-1})) on the config disc grid.

    Values are cached in an LRU of ``_GAMMA_CACHE_SIZE`` entries, keyed
    by the link objects of g and h, the grid's two sizes (no grid arrays
    are held) and the plan's kind.  A link compares by identity and a
    key holds its links alive, so a value returns only for the very same
    links, which must not change after they are built.  The cache is
    safe for concurrent readers and writers (recomputing a value is
    harmless, losing one is not).
    """
    grid = cfg.disc_grid
    key = (g.links, h.links, grid.n_r, grid.n_theta, cfg.plan.kind)
    with _GAMMA_LOCK:
        if key in _GAMMA_CACHE:
            _GAMMA_CACHE.move_to_end(key)
            return _GAMMA_CACHE[key]
    out = _wedge_integral(((1, g),), ((1, disc_invert(h)),), cfg)
    with _GAMMA_LOCK:
        _GAMMA_CACHE[key] = out
        _GAMMA_CACHE.move_to_end(key)      # another thread may have stored it
        while len(_GAMMA_CACHE) > _GAMMA_CACHE_SIZE:
            _GAMMA_CACHE.popitem(last=False)
    return out


def gamma(g: DiscDiffeo, h: DiscDiffeo, cfg: CocycleConfig) -> float:
    """The scaled group 2-cocycle 3 c0 gamma_m(g, h)."""
    return 3.0 * cfg.c0 * gamma_m(g, h, cfg)


def ext_mul(e1: ExtElement, e2: ExtElement, cfg: CocycleConfig) -> ExtElement:
    """(g1, a1) (g2, a2) = (g1 g2, a1 + a2 + gamma(g1, g2))."""
    return ExtElement(disc_compose(e1.g, e2.g),
                      e1.a + e2.a + gamma(e1.g, e2.g, cfg))


# ---------------------------------------------------------------------------
# the Wess-Zumino term and the 1-cochain omega0
# ---------------------------------------------------------------------------

def wz_term(B: BallDiffeo, cfg: CocycleConfig) -> float:
    """W(B) = integral_{B^3} tr(theta(B)^{wedge 3}) over the layered chart.

    The integrand 3 tr(theta_rho [theta_x, theta_y]) is taken only where B
    may depend on rho: on the rho layers where some graded layer's profile
    has c' or c'' != 0 (a NaN counts), at the plane points some graded
    layer moves.  Frozen layers do not depend on rho, so elsewhere every
    rho-partial of the jet, and with it theta_rho and the integrand, is an
    exact +-0, which moves no bit of the exact sum (see the module
    docstring).  The FD4 plan takes every node.

    The integrand must vanish on the chart-box edge (layer supports stay
    inside the unit disc of the plane); a visible value at one of the
    grid's edge samples raises SupportError before any integration happens.
    A map with links that moves no plane node of the box reads W = 0
    unchecked and raises DomainError; the mask is taken again only when
    the sum took none (FD4) or W is exactly 0.
    """
    if not isinstance(B, BallDiffeo):
        raise DomainError("wz_term expects a layered ball map")
    grid = cfg.ball_grid
    plane = grid.n_plane ** 2

    def density(pts):
        return wedge_trace_cube(_mc_stack(B, pts, cfg.plan))

    _check_edge(density(grid.edge_points), grid.edge_points,
                "Wess-Zumino integrand", "box")
    graded = BallDiffeo(link for link in B.links if link.profile is not None)
    varying = np.zeros(grid.n_rho, dtype=bool)
    for layer in graded.links:
        _, c1, c2 = layer.profile.jets(grid.nodes[0, ::plane])
        varying |= (c1 != 0.0) | (c2 != 0.0)
    W = integrate_ball(_moved_products(
        density, ((graded,),), grid.nodes, grid.weights, plane, cfg.plan,
        varying), grid)
    if (B.links and (W == 0.0 or cfg.plan.kind != "analytic")
            and not B.moves(grid.nodes[:, :plane]).any()):
        raise DomainError(f"ball map moves no plane node of the box "
                          f"L = {grid.L!r}, so W reads 0 unchecked")
    return W


def omega0(h: DiscDiffeo, cfg: CocycleConfig,
           xi: CutoffFn | None = None) -> float:
    """c0 * W of the layered ball extension of a boundary-trivial element.

    The extension follows h's own canonical isotopy (every link with a
    turn scales it linearly in u, inverse links stay frozen), radially
    graded by the cutoff profile of ``xi`` (default: cutoff_make(0.2, 0.2)).
    """
    require_boundary_trivial(
        h, _BT_EPS, "omega0 is defined on the boundary-trivial subgroup only")
    ball = ball_extend(h, xi if xi is not None else _DEFAULT_BALL_CUTOFF)
    return cfg.c0 * wz_term(ball, cfg)


def delta_g_residual(g: DiscDiffeo, h: DiscDiffeo, cfg: CocycleConfig,
                     xi: CutoffFn | None = None) -> float:
    """|omega0(h) + gamma(g, h) + gamma(gh, g^{-1}) - omega0(g h g^{-1})|.

    The conjugate's omega0 runs along the conjugated isotopy
    u -> g h_u g^{-1}, with the conjugators entering as frozen layers;
    vanishing of this residual is what makes the extended subgroup normal.
    """
    require_boundary_trivial(
        h, _BT_EPS, "Delta_g is defined for boundary-trivial h only")
    require_boundary_trivial(
        disc_compose(disc_compose(g, h), disc_invert(g)), _BT_EPS,
        "conjugate g h g^{-1} fails the boundary-triviality check")
    xi_ = xi if xi is not None else _DEFAULT_BALL_CUTOFF
    gh = disc_compose(g, h)
    total = (omega0(h, cfg, xi_)
             + gamma(g, h, cfg) + gamma(gh, disc_invert(g), cfg))
    om_conj = cfg.c0 * wz_term(conjugated_extension(g, h, xi_), cfg)
    return abs(total - om_conj)


# ---------------------------------------------------------------------------
# the coboundary of W and the boundary-sphere surface term
# ---------------------------------------------------------------------------

def _plane_quad(grid: BallGrid):
    """Plane quadrature matching the ball grid's cross-section:
    (points (2, M), weights (M,), edge samples (2, K))."""
    x, wx = _gl_nodes(grid.n_plane, -grid.L, grid.L)
    X, Y = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()])
    w = (wx[:, None] * wx[None, :]).ravel()
    line = np.linspace(-grid.L, grid.L, 65)
    edges = [np.stack([np.full_like(line, s), line]) for s in (grid.L, -grid.L)]
    edges += [np.stack([line, np.full_like(line, s)]) for s in (grid.L, -grid.L)]
    return pts, w, np.concatenate(edges, axis=1)


def w_coboundary_residual(g: BallDiffeo, h: BallDiffeo,
                          cfg: CocycleConfig) -> float:
    """|W(gh) - W(g) - W(h) - 3 S| with the surface term S equal to
    integral_plane tr(theta(g|_bnd) ^ theta((h|_bnd)^{-1})) over the
    boundary-sphere chart."""
    Wgh = wz_term(ball_compose(g, h), cfg)
    Wg = wz_term(g, cfg)
    Wh = wz_term(h, cfg)
    gb = g.boundary_map()
    hb_inv = disc_invert(h.boundary_map())
    pts, w, edge = _plane_quad(cfg.ball_grid)
    density = _wedge_2form(((1, gb),), ((1, hb_inv),), cfg.plan)
    _check_edge(density(edge), edge, "boundary surface term", "plane-box")
    surface = _fsum_products(_moved_products(
        density, ((gb,), (hb_inv,)), pts, w, pts.shape[1], cfg.plan))
    return abs(Wgh - Wg - Wh - 3.0 * surface)

