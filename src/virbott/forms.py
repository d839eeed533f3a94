"""Matrix-valued one-forms, wedge traces and quadrature grids.

The Maurer-Cartan form of a diffeomorphism g (in a fixed chart) is the
matrix one-form

    theta_i(g) = J(g)^{-1} * d_i J(g),

one square matrix per chart direction.  This module computes it from the
2-jets produced by :mod:`virbott.diffeo`, forms the wedge+trace densities
that enter the cocycle integrals, and integrates them over tensor grids:
Gauss-Legendre in the radial/box directions crossed with a uniform
(trapezoidal, spectrally accurate) angular rule.

Final reductions sum the per-node products exactly and round once
(``_fsum_products``): each product is binned by its binary exponent as
integer mantissa halves, and the bins are folded into one Python int.  A
correctly rounded sum is unique, so it equals ``math.fsum`` bit for bit,
and no reordering of the nodes or split into blocks moves a bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from collections.abc import Iterator

import numpy as np

from ._jets import inv_batched
from .errors import DimensionError, DomainError, NumericError, SupportError

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gl_rule(n):
    """The n-point Gauss-Legendre rule on (-1, 1), numpy's ``leggauss``
    (Golub-Welsch eigenvalues plus a Newton step), cached per order; both
    arrays are read-only, so no caller can change the cached rule."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl_nodes(n, lo, hi):
    """Gauss-Legendre nodes/weights mapped to (lo, hi), as new arrays."""
    x, w = _gl_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _grid_counts(**counts):
    """The node counts as ints, taken whole through ``operator.index``; a
    non-integral count is refused (DomainError), never truncated."""
    try:
        return [operator.index(n) for n in counts.values()]
    except TypeError:
        raise DomainError(f"grid node counts must be integers, got "
                          f"{counts}") from None


class DiscGrid:
    """Tensor quadrature grid on the unit disc (polar chart).

    Gauss-Legendre with ``n_r`` nodes on (0, 1) crossed with ``n_theta``
    uniform angles; node weights include the polar area element r dr dtheta.
    The radial rule is numpy's ``leggauss``, cached per order (``_gl_rule``).
    """

    __slots__ = ("n_r", "n_theta", "r", "theta", "weights", "xy")

    def __init__(self, n_r: int = 96, n_theta: int = 256):
        self.n_r, self.n_theta = _grid_counts(n_r=n_r, n_theta=n_theta)
        if self.n_r < 4 or self.n_theta < 8:
            raise DomainError(
                f"disc grid too coarse: {self.n_r} x {self.n_theta}")
        r, wr = _gl_nodes(self.n_r, 0.0, 1.0)
        th = np.arange(self.n_theta) * (_TWO_PI / self.n_theta)
        R, T = np.meshgrid(r, th, indexing="ij")
        WR = np.repeat(wr, self.n_theta)
        self.r = R.ravel()
        self.theta = T.ravel()
        self.weights = WR * (_TWO_PI / self.n_theta) * self.r
        self.xy = np.stack([self.r * np.cos(self.theta),
                            self.r * np.sin(self.theta)])

    @property
    def npts(self):
        return self.r.size


class BallGrid:
    """Tensor grid on the layered ball chart (rho, x, y).

    Gauss-Legendre in rho on (0, 1) and in each plane coordinate on
    [-L, L], each numpy's ``leggauss`` rule cached per order
    (``_gl_rule``); the measure is the flat d rho dx dy of the chart (any area
    factor of the layered parametrization belongs to the integrand, not the
    measure).  Integrands must be compactly supported inside the box; the
    integrator spot-checks the box edge.
    """

    __slots__ = ("n_rho", "n_plane", "L", "nodes", "weights", "edge_points")

    def __init__(self, n_rho: int = 24, n_plane: int = 64, L: float = 1.25):
        self.n_rho, self.n_plane = _grid_counts(n_rho=n_rho, n_plane=n_plane)
        if self.n_rho < 4 or self.n_plane < 4:
            raise DomainError(
                f"ball grid too coarse: {self.n_rho} x {self.n_plane}^2")
        try:
            fits = (isinstance(L, numbers.Real)
                    and 1.0 <= L and math.isfinite(2.0 * L))
        except OverflowError:
            fits = False
        if not fits:
            raise DomainError(
                "plane box must contain the unit disc and have a finite "
                f"width (1 <= L, 2 L < inf), got L={L!r}")
        self.L = float(L)
        rho, wrho = _gl_nodes(self.n_rho, 0.0, 1.0)
        x, wx = _gl_nodes(self.n_plane, -self.L, self.L)
        nodes = np.empty((3, self.n_rho, self.n_plane, self.n_plane))
        nodes[0] = rho[:, None, None]
        nodes[1] = x[None, :, None]
        nodes[2] = x[None, None, :]
        W = (wrho[:, None, None] * wx[None, :, None] * wx[None, None, :])
        self.nodes = nodes.reshape(3, -1)
        self.weights = W.ravel()
        # box-edge samples for the compact-support check
        line = np.linspace(-self.L, self.L, 33)
        rho_s = np.linspace(0.05, 0.95, 7)
        edges = []
        for rv in rho_s:
            for sx, sy in ((self.L, None), (-self.L, None),
                           (None, self.L), (None, -self.L)):
                ex = np.full_like(line, sx) if sx is not None else line
                ey = np.full_like(line, sy) if sy is not None else line
                edges.append(np.stack([np.full_like(line, rv), ex, ey]))
        self.edge_points = np.concatenate(edges, axis=1)

    @property
    def npts(self):
        return self.nodes.shape[1]


# ---------------------------------------------------------------------------
# Maurer-Cartan forms and wedge traces
# ---------------------------------------------------------------------------

def mc_components(jet) -> np.ndarray:
    """Batched MC components from a 2-jet: out[b] = J^{-1} d_b J.

    Returns (d, d, d, N): first index is the chart direction b, the middle
    two are the matrix indices.
    """
    inv = inv_batched(jet.j)
    # dJ[l, k, b, n] = H[l, k, b, n];  (J^{-1} d_b J)[j,k] = inv[j,l] H[l,k,b]
    return np.einsum("jln,lkbn->bjkn", inv, jet.h)


def wedge_trace_2form(a, b):
    """tr(a_x b_y - a_y b_x) for two matrix one-forms on a plane chart.

    Takes two batched (2, d, d, N) stacks.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape[0] != 2:
        raise DimensionError(f"need matching (2,d,d,N) stacks, got {a.shape}")
    return (np.einsum("ijn,jin->n", a[0], b[1])
            - np.einsum("ijn,jin->n", a[1], b[0]))


def wedge_trace_cube(a):
    """tr(a ^ a ^ a) for a matrix one-form with components (rho, x, y):

        3 [ tr(a_rho a_x a_y) - tr(a_rho a_y a_x) ].

    This shortcut equals the full antisymmetrization over S3 because the
    trace is cyclic; the tests check that against the permutation sum.
    Takes a batched (3, d, d, N) stack.
    """
    a = np.asarray(a)
    if a.shape[0] != 3:
        raise DimensionError(f"need (3,d,d,N) stack, got {a.shape}")
    return 3.0 * (np.einsum("ijn,jkn,kin->n", a[0], a[1], a[2])
                  - np.einsum("ijn,jkn,kin->n", a[0], a[2], a[1]))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

# edge magnitude above which an integrand is considered to leak out of the
# quadrature box
_EDGE_TOL = 1e-10


def _check_edge(vals: np.ndarray, pts: np.ndarray, what: str, edge: str):
    """Raise SupportError if a sampled edge value exceeds _EDGE_TOL or is
    NaN, naming the number of samples and the chart coordinates of the
    worst one (the first NaN, if any)."""
    if not vals.size:
        return
    k = int(np.argmax(np.abs(vals)))
    worst = abs(float(vals[k]))
    if not worst <= _EDGE_TOL:
        axes = ("rho", "x", "y")[-pts.shape[0]:]
        where = ", ".join(f"{a}={c:.4g}" for a, c in zip(axes, pts[:, k]))
        raise SupportError(
            f"{what} reaches the {edge} edge ({worst:.3e} at {where}; "
            f"worst of {vals.size} edge samples)")


# Exact sums.  A finite double is M * 2**(e - 53), with ``frexp``'s
# exponent e in [-1073, 1024] and an integer mantissa |M| < 2**53, split
# into hi = floor(M / 2**26) and lo = M - 2**26 hi in [0, 2**26).  Bin i of
# each half sums the halves with e = i - _EXP_OFFSET, in units of
# 2**(i - 1126); for at most _FLUSH values every bin stays an integer
# below 2**52, so each float64 addition is exact.  Values are binned
# _PIECE at a time, which keeps the temporaries small.
_EXP_OFFSET = 1073
_N_BINS = 2098
_PIECE = 8192
_FLUSH = 1 << 25
_UNIT = 1 << 1126          # bin values are multiples of 2**-1126


def _fold(hi, lo) -> int:
    """The exact value of the bins in units of 2**-1126: one Python int,
    by Horner's rule over the used bin range."""
    used = np.flatnonzero((hi != 0.0) | (lo != 0.0))
    if not used.size:
        return 0
    first, stop = int(used[0]), int(used[-1]) + 1
    acc = 0
    for h, l in zip(hi[first:stop].astype(np.int64).tolist()[::-1],
                    lo[first:stop].astype(np.int64).tolist()[::-1]):
        acc = (acc << 1) + (h << 26) + l
    return acc << first


def _fsum_products(blocks) -> float:
    """Exactly rounded sum of the weighted products of ``blocks``, taken
    one block at a time; equal to ``math.fsum`` of the same values bit for
    bit (an exactly zero sum is +0.0, an overflowing one raises
    OverflowError).  Raises NumericError on a non-finite product."""
    hi = np.zeros(_N_BINS)
    lo = np.zeros(_N_BINS)
    total = binned = 0
    # one piece's work arrays, allocated once per sum rather than again
    # for each piece between the density calls of the stream
    m_buf, h_buf = np.empty(_PIECE), np.empty(_PIECE)
    e_buf = np.empty(_PIECE, dtype=np.intc)
    for block in blocks:
        block = np.ravel(block)
        for start in range(0, block.size, _PIECE):
            piece = block[start:start + _PIECE]
            if not np.isfinite(piece).all():
                raise NumericError("non-finite values in quadrature")
            if binned + piece.size > _FLUSH:
                total += _fold(hi, lo)
                hi[:] = lo[:] = 0.0
                binned = 0
            m, e, h = (buf[:piece.size] for buf in (m_buf, e_buf, h_buf))
            np.frexp(piece, m, e)
            e += _EXP_OFFSET
            m *= 2.0 ** 27              # M / 2**26, exactly
            np.floor(m, out=h)
            m -= h
            m *= 2.0 ** 26              # lo, exactly
            hi += np.bincount(e, h, _N_BINS)
            lo += np.bincount(e, m, _N_BINS)
            binned += piece.size
    return (total + _fold(hi, lo)) / _UNIT


def _fsum_weighted(values, weights):
    """Exactly rounded sum of the products values * weights."""
    return _fsum_products((np.asarray(values, dtype=np.float64) * weights,))


def integrate_disc(density, grid: DiscGrid) -> float:
    """Integrate density(r, theta) over the unit disc (area element
    included in the grid weights).  ``density`` is a callable, the values
    at the grid nodes, or an iterator of weighted products, one array per
    block of nodes, as for :func:`integrate_ball`."""
    if isinstance(density, Iterator):
        return _fsum_products(density)
    values = density(grid.r, grid.theta) if callable(density) else density
    values = np.broadcast_to(np.asarray(values, dtype=np.float64),
                             grid.r.shape)
    return _fsum_weighted(values, grid.weights)


def integrate_ball(density, grid: BallGrid) -> float:
    """Integrate density(rho, x, y) over the chart box with the flat
    measure d rho dx dy.

    ``density`` is a callable, the values at ``grid.nodes``, or an
    iterator of weighted products (values times their ``grid.weights``),
    one array per block of nodes; nodes left out count as 0.  The blocks
    are summed as they come, so no array over the whole grid is formed.

    Raises SupportError when a callable density is visibly nonzero, or not
    a number, on the box edge (the construction demands compact support
    inside the plane box); see :func:`_check_edge`.
    """
    if isinstance(density, Iterator):
        return _fsum_products(density)
    if callable(density):
        edge = grid.edge_points
        vals = np.asarray(density(*edge), dtype=np.float64)
        _check_edge(np.broadcast_to(vals, edge.shape[1:]), edge, "integrand",
                    "box")
        values = density(*grid.nodes)
    else:
        values = density
    values = np.broadcast_to(np.asarray(values, dtype=np.float64),
                             (grid.npts,))
    return _fsum_weighted(values, grid.weights)


# ---------------------------------------------------------------------------
# the closedness identity for tr((g^{-1} dg)^4)
# ---------------------------------------------------------------------------

def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def eta_closedness_residual(n: int, samples: int = 100, seed: int = 0) -> float:
    """Max over random samples of | sum_{sigma in S4} sign(sigma)
    tr(M_{s1} M_{s2} M_{s3} M_{s4}) | with M_k = g^{-1} T_k.

    The alternating sum vanishes identically for matrices of any size
    (cyclicity pairs permutations with opposite signs), which is the
    pointwise reason tr((g^{-1} dg)^4) = 0; this measures the float residue
    on well-conditioned random data.
    """
    if n not in (2, 3):
        raise DimensionError("matrix dimension must be 2 or 3")
    rng = np.random.default_rng(seed)
    # sample by sample: A, then the four T (the stream of one draw each)
    A, T = np.split(rng.standard_normal((samples, 5, n, n)), [1], axis=1)
    g = np.eye(n) + 0.4 * A / _spectral_norm(A)
    M = np.linalg.solve(g, T / _spectral_norm(T))
    total = np.zeros(samples)
    for p in itertools.permutations(range(4)):
        prod = M[:, p[0]] @ M[:, p[1]] @ M[:, p[2]] @ M[:, p[3]]
        total += _perm_sign(p) * np.trace(prod, axis1=-2, axis2=-1)
    return float(np.max(np.abs(total), initial=0.0))


def _spectral_norm(stack):
    """Largest singular value of each matrix of a (..., n, n) stack, shaped
    to divide it."""
    return np.linalg.norm(stack, 2, axis=(-2, -1))[..., None, None]
