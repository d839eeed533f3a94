"""Disc vector fields and the Lie-algebra side of the extension.

Fields live on the closed unit disc in polar components V3 d/dr + V4 d/dtheta
and carry exact boundary trig polynomials next to the 2-D callables, so the
boundary formula for G(beta) and the disc quadrature for beta share one
object.  The module computes the cocycle beta = -6 c0 int tr(dJ(V) ^ dJ(W)),
its boundary reduction G(beta), the finite-difference rederivation of beta
from the group cocycle gamma, the semidirect bracket on the circle with its
central term, and the exact Virasoro/Heisenberg structure constants.

The boundary Lie algebra is stated once: ``_boundary_bracket`` is the
quotient bracket of boundary data, shared by the disc bracket, the
semidirect bracket and the cyclic identity, and ``_gbeta_polys`` is
G(beta).  Boundary data are plain TrigPolys, and the V4 part of the
bracket is ``trigpoly.circle_bracket``.  Both are bilinear over C, so a
generator bracket [X_n, Y_m] is one semidirect bracket of the complex
generators i e^{i n theta}.  Half the boundary data of a generator is
the zero polynomial, and both skip every product with an
identically-zero factor: a bracket of two J's forms no product at all.
Each generator polynomial is built once per index and shared, since a
TrigPoly is immutable.  The curve behind the FD rederivation is
closed-form, theta -> theta + t V4, for every separable field without a
V3 part.  The rederivation takes gamma's corner sum in its bilinear form,
two masked integrals of tr(D theta ^ D theta) per Richardson level over
eight maps built once each (``beta_from_gamma_fd``).  The quadrature of
beta skips the nodes where either field's jet is exactly zero: a field
answers ``moves(pts)`` as a map does.
"""

from __future__ import annotations

import functools

import numpy as np

from ._jets import (FD4_D1, FD4_D2, FD4_OFFSETS, Jet, compose, fd4_jacobian,
                    polar_chart_jet)
from .cocycle import CocycleConfig, _moved_products, _wedge_integral
from .diffeo import (AngleDisplacement, AngularLink, CutoffFn, CutoffProfile,
                     DiscDiffeo, FlowMap, disc_compose, disc_invert)
from .errors import DomainError, FlagError, StepError, UnsupportedError
from .forms import integrate_disc, mc_components
from .trigpoly import (TrigPoly, _is_zero_poly, _times_derivative,
                       circle_bracket, tp_derivative, tp_integrate_product)

__all__ = [
    "DiscVectorField",
    "GeneratorIndexPair",
    "SemidirectElement",
    "SeparableDiscField",
    "ar_split",
    "beta_from_gamma_fd",
    "beta_integral",
    "default_curve_builder",
    "disc_bracket",
    "gbeta_boundary",
    "gbeta_cyclic_residual",
    "generator_bracket",
    "generator_table_rows",
    "polar_components",
    "restrict_to_circle",
    "semidirect_bracket",
    "theta_variation_residual",
    "wf_field",
]

_N_BOUNDARY_ANGLES = 64
_BOUNDARY_THETA = (np.arange(_N_BOUNDARY_ANGLES)
                   * (2.0 * np.pi / _N_BOUNDARY_ANGLES))
_BOUNDARY_MATCH_TOL = 1e-10
_COEF_PRUNE = 1e-13
_GENERATOR_PRUNE = 1e-12
_AR_DERIV_TOL = 1e-6
_AZ_VALUE_TOL = 1e-12
_DEFAULT_FD_STEP = 1e-3
_THETA_FD_STEP = 1e-4
_TINY_RADIUS = 1e-30

# ---------------------------------------------------------------------------
# boundary fit and flag sampling
# ---------------------------------------------------------------------------

def _boundary_trace(fn) -> np.ndarray:
    """Values of a polar callable at r = 1 on the 64 equispaced angles
    ``_BOUNDARY_THETA``."""
    theta = _BOUNDARY_THETA
    return np.broadcast_to(
        np.asarray(fn(np.ones(theta.size), theta), dtype=np.float64),
        theta.shape)


def _fit_boundary_poly(fn) -> TrigPoly:
    """Fit the r = 1 trace of a polar callable as a TrigPoly (rfft at 64
    equispaced angles, coefficients below 1e-13 dropped)."""
    n = _N_BOUNDARY_ANGLES
    spec = np.fft.rfft(_boundary_trace(fn)) / n
    constant = float(spec[0].real)
    cos_c = np.zeros(n // 2)
    sin_c = np.zeros(n // 2)
    cos_c[: n // 2 - 1] = 2.0 * spec[1: n // 2].real
    sin_c[: n // 2 - 1] = -2.0 * spec[1: n // 2].imag
    cos_c[n // 2 - 1] = spec[n // 2].real  # Nyquist term is not doubled
    if abs(constant) < _COEF_PRUNE:
        constant = 0.0
    cos_c[np.abs(cos_c) < _COEF_PRUNE] = 0.0
    sin_c[np.abs(sin_c) < _COEF_PRUNE] = 0.0
    return TrigPoly(constant, cos_c, sin_c)


def _boundary_mismatch(fn, poly: TrigPoly) -> float:
    return float(np.max(np.abs(_boundary_trace(fn) - poly(_BOUNDARY_THETA))))


def _sample_asymptotic_flags(v3, v4, ar_epsilon: float):
    """Measure (asymptotically_radial, asymptotically_zero) on the outer
    band r in (1 - ar_epsilon, 1) by values and FD4 radial derivatives."""
    radii = 1.0 - ar_epsilon * np.array([0.15, 0.35, 0.55, 0.75])
    theta = np.arange(24) * (2.0 * np.pi / 24.0)
    rr, tt = [a.ravel() for a in np.meshgrid(radii, theta, indexing="ij")]
    h = 0.05 * ar_epsilon
    # the whole (5 offsets x 96 points) stencil as one flat call: general
    # callables take only 1-D arrays
    r5 = (rr + FD4_OFFSETS[:, None] * h).ravel()
    t5 = np.tile(tt, FD4_OFFSETS.size)

    def band_eval(fn):
        return np.broadcast_to(np.asarray(fn(r5, t5), dtype=np.float64),
                               r5.shape).reshape(FD4_OFFSETS.size, rr.size)

    s3, s4 = band_eval(v3), band_eval(v4)
    value_max = max(float(np.max(np.abs(s3[2]))), float(np.max(np.abs(s4[2]))))
    d3 = np.tensordot(FD4_D1, s3, axes=(0, 0)) / h
    d4 = np.tensordot(FD4_D1, s4, axes=(0, 0)) / h
    deriv_max = max(float(np.max(np.abs(d3))), float(np.max(np.abs(d4))))
    return deriv_max <= _AR_DERIV_TOL, value_max <= _AZ_VALUE_TOL


# ---------------------------------------------------------------------------
# disc vector fields
# ---------------------------------------------------------------------------


class DiscVectorField:
    """A field V3 d/dr + V4 d/dtheta on the closed disc.

    ``v3``/``v4`` are vectorized callables of (r, theta); they must tolerate
    the width of an FD stencil beyond r = 1 (cutoff tails are flat there) and
    reflection through r = 0.  Boundary trig polynomials are fitted at r = 1
    over 64 angles unless supplied, and supplied ones are checked against the
    callables to 1e-10.  The flags (genuine, asymptotically_radial,
    asymptotically_zero) are measured by sampling the outer band of width
    ``ar_epsilon``.
    """

    def __init__(self, v3, v4, ar_epsilon: float = 0.05,
                 boundary_v3: TrigPoly | None = None,
                 boundary_v4: TrigPoly | None = None):
        if not (0.0 < ar_epsilon < 1.0):
            raise DomainError(f"ar_epsilon={ar_epsilon} outside (0, 1)")
        self.v3 = v3
        self.v4 = v4
        self.ar_epsilon = float(ar_epsilon)
        for name, fn, poly in (("v3", v3, boundary_v3), ("v4", v4, boundary_v4)):
            if poly is None:
                poly = _fit_boundary_poly(fn)
            elif _boundary_mismatch(fn, poly) > _BOUNDARY_MATCH_TOL:
                raise DomainError(
                    f"boundary poly for {name} disagrees with the callable "
                    f"at r = 1 beyond {_BOUNDARY_MATCH_TOL}")
            setattr(self, "boundary_" + name, poly)
        ar, az = _sample_asymptotic_flags(v3, v4, self.ar_epsilon)
        self.asymptotically_radial = bool(ar or az)
        self.asymptotically_zero = bool(az)
        self.genuine = self.boundary_v3.coeff_l1() <= _AZ_VALUE_TOL

    @property
    def flags(self) -> dict:
        return {"genuine": self.genuine,
                "asymptotically_radial": self.asymptotically_radial,
                "asymptotically_zero": self.asymptotically_zero}

    # -- jets ---------------------------------------------------------------

    def polar_jet2(self, r, theta):
        """2-jets (f, f_r, f_t, f_rr, f_rt, f_tt) of V3 and of V4 at polar
        sample arrays; FD4 on the callables (overridden analytically where
        the components are separable)."""
        h = _DEFAULT_FD_STEP
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

    def cartesian_value(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        r = np.hypot(pts[0], pts[1])
        theta = np.arctan2(pts[1], pts[0])
        c, s = np.cos(theta), np.sin(theta)
        v3 = np.broadcast_to(np.asarray(self.v3(r, theta), np.float64), r.shape)
        v4 = np.broadcast_to(np.asarray(self.v4(r, theta), np.float64), r.shape)
        return np.stack([v3 * c - r * v4 * s, v3 * s + r * v4 * c])

    def cartesian_jet2(self, pts):
        """(V, DV, D2V) with DV[i, a] = d_a V_i and D2V[i, a, b] = d_a d_b
        V_i: the polar jet of V1 + i V2 composed with the polar chart.

        The chart is singular at the origin, so a node at r = 0 raises
        DegenerateError, as every polar-chart evaluation does.
        """
        x, y = np.asarray(pts, dtype=np.float64)
        chart = polar_chart_jet(x, y, np.hypot(x, y), np.arctan2(y, x))
        r, theta = chart.x
        (a, ar, at, arr, art, att), (b, br, bt, brr, brt, btt) = \
            self.polar_jet2(r, theta)
        # V1 + i V2 = e^{i theta} z with z = V3 + i r V4
        z = a + 1j * r * b
        z_r = ar + 1j * (b + r * br)
        z_t = at + 1j * r * bt
        z_rr = arr + 1j * (2.0 * br + r * brr)
        z_rt = art + 1j * (bt + r * brt)
        z_tt = att + 1j * r * btt
        e = np.exp(1j * theta)
        u_rt = e * (z_rt + 1j * z_r)
        polar_u = Jet(*(np.stack([u.real, u.imag]) for u in map(np.asarray, (
            e * z, [e * z_r, e * (z_t + 1j * z)],
            [[e * z_rr, u_rt], [u_rt, e * (z_tt + 2j * z_t - z)]]))))
        out = compose(polar_u, chart)
        return out.x, out.j, out.h

    def moves(self, pts):
        """Mask of the nodes where the field's jet may be nonzero: every
        node, for a general callable field."""
        return np.ones(np.shape(pts)[1], dtype=bool)


class SeparableDiscField(DiscVectorField):
    """Field whose components are sums of profile(r) * poly(theta) terms;
    boundary polys and polar 2-jets are exact."""

    def __init__(self, v3_terms=(), v4_terms=(), ar_epsilon: float = 0.05):
        self.v3_terms = tuple((p, q) for p, q in v3_terms)
        self.v4_terms = tuple((p, q) for p, q in v4_terms)
        # a sum of profile(r) poly(theta) terms is what AngleDisplacement
        # evaluates with its exact polar jets
        self._sums = (AngleDisplacement(self.v3_terms),
                      AngleDisplacement(self.v4_terms))
        boundary = []
        for terms in (self.v3_terms, self.v4_terms):
            total = TrigPoly.zero()
            for prof, poly in terms:
                total = total + poly * float(prof.value(np.float64(1.0)))
            boundary.append(total)
        super().__init__(self._sums[0].value, self._sums[1].value,
                         ar_epsilon=ar_epsilon,
                         boundary_v3=boundary[0], boundary_v4=boundary[1])

    def polar_jet2(self, r, theta):
        r, theta = np.broadcast_arrays(np.asarray(r, np.float64),
                                       np.asarray(theta, np.float64))
        return tuple(terms.jets(r, theta) for terms in self._sums)

    def moves(self, pts):
        """False exactly where every profile of both components vanishes,
        so that the polar 2-jet is exactly 0; there is no origin guard, as
        a field's jet is not 0 near r = 0."""
        r = np.hypot(pts[0], pts[1])
        return ((self._sums[0].radial_envelope(r) != 0.0)
                | (self._sums[1].radial_envelope(r) != 0.0))


# ---------------------------------------------------------------------------
# constructions on fields
# ---------------------------------------------------------------------------

def polar_components(v1, v2, ar_epsilon: float = 0.05) -> DiscVectorField:
    """Convert Cartesian components (v1, v2)(x, y) to polar ones:
    V3 = v1 cos + v2 sin, V4 = r^{-1} (-v1 sin + v2 cos)."""

    def v3(r, theta):
        c, s = np.cos(theta), np.sin(theta)
        return v1(r * c, r * s) * c + v2(r * c, r * s) * s

    def v4(r, theta):
        c, s = np.cos(theta), np.sin(theta)
        rs = np.where(np.abs(r) < _TINY_RADIUS, _TINY_RADIUS, r)
        return (-v1(r * c, r * s) * s + v2(r * c, r * s) * c) / rs

    return DiscVectorField(v3, v4, ar_epsilon=ar_epsilon)


def _boundary_bracket(v3: TrigPoly, v4: TrigPoly, w3: TrigPoly, w4: TrigPoly):
    """The quotient bracket of boundary data (v3, v4) and (w3, w4):
    (v4 w3' - w4 v3', circle_bracket(v4, w4)), exact in trig-poly
    arithmetic and bilinear over C.

    A product with an identically-zero factor is skipped, as in
    ``_gbeta_polys``, so [L_n, L_m] forms two of the four products,
    [L_n, J_m] one and [J_n, J_m] none; every coefficient and flag is
    the one the full expression gives.
    """
    return (_times_derivative(v4, w3) - _times_derivative(w4, v3),
            circle_bracket(v4, w4))


def disc_bracket(V: DiscVectorField, W: DiscVectorField) -> DiscVectorField:
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

    boundary = {}
    if V.asymptotically_radial and W.asymptotically_radial:
        # d_r terms vanish on the flat band, leaving exact boundary algebra.
        boundary["boundary_v3"], boundary["boundary_v4"] = _boundary_bracket(
            V.boundary_v3, V.boundary_v4, W.boundary_v3, W.boundary_v4)
    return DiscVectorField(component(0), component(1),
                           ar_epsilon=min(V.ar_epsilon, W.ar_epsilon),
                           **boundary)


def restrict_to_circle(V: DiscVectorField) -> TrigPoly:
    """Boundary restriction V4(1, theta) d/dtheta of an asymptotically
    radial field, as its component V4(1, theta)."""
    if not V.asymptotically_radial:
        raise FlagError("restriction needs an asymptotically radial field")
    return V.boundary_v4


def wf_field(f: TrigPoly, xi: CutoffFn) -> DiscVectorField:
    """The section W_f: (W_f)_3 = xi(r) f(theta), (W_f)_4 = 0."""
    terms = [] if f.coeff_l1() == 0.0 else [(CutoffProfile(xi), f)]
    return SeparableDiscField(v3_terms=terms)


def ar_split(V: DiscVectorField, xi: CutoffFn):
    """Split a generalized asymptotically radial V as (V - W_{f_V}, f_V)
    with f_V the boundary trace of V3; the first part is genuine."""
    if not V.asymptotically_radial:
        raise FlagError("ar_split needs an asymptotically radial field")
    f = V.boundary_v3
    if f.coeff_l1() <= _AZ_VALUE_TOL:
        return V, TrigPoly.zero()
    if isinstance(V, SeparableDiscField):
        correction = (CutoffProfile(xi), f * (-1.0))
        return (SeparableDiscField(V.v3_terms + (correction,), V.v4_terms,
                                   ar_epsilon=V.ar_epsilon), f)
    w = wf_field(f, xi)

    def v3(r, theta):
        return V.v3(r, theta) - w.v3(r, theta)

    return (DiscVectorField(v3, V.v4, ar_epsilon=V.ar_epsilon,
                            boundary_v3=TrigPoly.zero(),
                            boundary_v4=V.boundary_v4), f)


# ---------------------------------------------------------------------------
# the cocycle beta and its boundary computation
# ---------------------------------------------------------------------------

def beta_integral(V: DiscVectorField, W: DiscVectorField,
                  cfg: CocycleConfig | None = None) -> float:
    """beta(V, W) = -6 c0 int_{D^2} tr(dJ(V) ^ dJ(W)) on the config disc
    grid, its density taken in the node blocks of gamma at the nodes where
    both fields move (``moves``): the density is bilinear in their jets."""
    cfg = cfg if cfg is not None else CocycleConfig()
    grid = cfg.disc_grid

    def density(pts):
        _, _, d2v = V.cartesian_jet2(pts)
        _, _, d2w = W.cartesian_jet2(pts)
        return (np.einsum("ikn,kin->n", d2v[:, :, 0], d2w[:, :, 1])
                - np.einsum("ikn,kin->n", d2v[:, :, 1], d2w[:, :, 0]))

    return -6.0 * cfg.c0 * integrate_disc(_moved_products(
        density, ((V,), (W,)), grid.xy, grid.weights, grid.npts, cfg.plan),
        grid)


def _gbeta_polys(v3: TrigPoly, v4: TrigPoly, w3: TrigPoly, w4: TrigPoly, c0):
    """-6 c0 int I with I = (v4' w4'' - 2 v4 w4') + (3 v3 w3' - v3' w4'
    + v4' w3'), exactly in trig-poly arithmetic.

    The period integral is linear, so each product is integrated on its
    own and products with an identically-zero factor are skipped.
    """
    d = tp_derivative
    total = 0.0
    if not (_is_zero_poly(v4) or _is_zero_poly(w4)):
        dw4 = d(w4)
        total += tp_integrate_product(d(v4), d(dw4))
        total += -2.0 * tp_integrate_product(v4, dw4)
    if not (_is_zero_poly(v3) or _is_zero_poly(w3)):
        total += 3.0 * tp_integrate_product(v3, d(w3))
    if not (_is_zero_poly(v3) or _is_zero_poly(w4)):
        total += -tp_integrate_product(d(v3), d(w4))
    if not (_is_zero_poly(v4) or _is_zero_poly(w3)):
        total += tp_integrate_product(d(v4), d(w3))
    return -6.0 * c0 * total


def gbeta_boundary(V: DiscVectorField, W: DiscVectorField, c0=1.0):
    """G(beta)(V, W) from boundary data alone."""
    return _gbeta_polys(V.boundary_v3, V.boundary_v4,
                        W.boundary_v3, W.boundary_v4, c0)


# ---------------------------------------------------------------------------
# beta from gamma by differentiation
# ---------------------------------------------------------------------------

def default_curve_builder(field: DiscVectorField, flow_steps: int = 64):
    """Curve t -> disc diffeo tangent to ``field`` at t = 0.

    A separable field with no V3 part has the closed-form curve
    (r, theta) -> (r, theta + t V4(r, theta)), one angular link whose
    displacement is V4 scaled by t and which certifies its orientation
    when built; rotations, radial twists and Alexander extensions
    ``AlexanderRadial(2 pi k + p, cutoff, t)`` of circle maps are all of
    this shape.  Any other field falls back to the RK4 flow of the field.
    """
    if isinstance(field, SeparableDiscField) and not field.v3_terms:
        if not field.v4_terms:
            return lambda t: DiscDiffeo.identity()
        v4 = field._sums[1]
        return lambda t: DiscDiffeo.from_link(AngularLink(v4.scaled(t)))

    def flow_curve(t):
        if t == 0.0:
            return DiscDiffeo.identity()
        return DiscDiffeo.from_link(FlowMap(field, t, flow_steps))

    return flow_curve


def _curve_inverse(curve, t: float, g: DiscDiffeo) -> DiscDiffeo:
    """The inverse of g = curve(t)."""
    try:
        return disc_invert(g)
    except UnsupportedError:
        # flows of a fixed field form a one-parameter group
        return curve(-t)


def beta_from_gamma_fd(V: DiscVectorField, W: DiscVectorField,
                       curve_builder=None, cfg: CocycleConfig | None = None,
                       steps=(1e-2, 1e-2)) -> float:
    """beta(V, W) as the mixed derivative d^2/dt ds of
    gamma(h_t, k_s) - gamma(k_s, h_t) at (0, 0), by central differences
    with one Richardson halving.

    gamma is bilinear in the MC forms, so the corner sum over the steps
    (+-t, +-s) is 3 c0 [int tr(D(h) ^ D(k^{-1})) - int tr(D(k) ^ D(h^{-1}))]
    with D(h) = theta(h_t) - theta(h_{-t}), and likewise for k and the
    inverses.  Each level builds the four maps h_{+-t}, k_{+-s} and their
    inverses once and takes the two integrals one after the other through
    gamma's masked quadrature (``cocycle._wedge_integral``).  At V = W the
    two are one computation, so the diagonal is exactly 0.
    """
    cfg = cfg if cfg is not None else CocycleConfig()
    t_step, s_step = (float(steps[0]), float(steps[1]))
    if not (t_step > 0.0 and s_step > 0.0
            and np.isfinite(t_step) and np.isfinite(s_step)):
        raise StepError(f"FD steps must be positive and finite: {steps}")
    build = curve_builder if curve_builder is not None else default_curve_builder
    h_curve, k_curve = build(V), build(W)

    def ends(curve, step):
        """(sign, map) terms of curve(+-step) and of their inverses."""
        maps = [(sign, curve(sign * step)) for sign in (1, -1)]
        return maps, [(sign, _curve_inverse(curve, sign * step, g))
                      for sign, g in maps]

    def mixed(ts, ss):
        try:
            h, h_inv = ends(h_curve, ts)
            k, k_inv = ends(k_curve, ss)
            corners = (_wedge_integral(h, k_inv, cfg)
                       - _wedge_integral(k, h_inv, cfg))
        except DomainError as exc:
            raise StepError(
                f"curve step produced an invalid chain: {exc}") from exc
        return 3.0 * cfg.c0 * corners / (4.0 * ts * ss)

    d_full = mixed(t_step, s_step)
    d_half = mixed(0.5 * t_step, 0.5 * s_step)
    return (4.0 * d_half - d_full) / 3.0


# ---------------------------------------------------------------------------
# semidirect product on the boundary and generator brackets
# ---------------------------------------------------------------------------

class SemidirectElement:
    """(v, w, a): a Vect(S^1) part and an abelian copy, each a TrigPoly,
    and an optional central coordinate."""

    __slots__ = ("v", "w", "a")

    def __init__(self, v: TrigPoly, w: TrigPoly, a=None):
        self.v = v
        self.w = w
        self.a = a


def semidirect_bracket(x: SemidirectElement, y: SemidirectElement,
                       c0=1.0) -> SemidirectElement:
    """[(v1, w1), (v2, w2)] = ([v1, v2], v1 w2' - v2 w1') with the central
    coordinate G(beta-bar) of the pair: the boundary bracket and G(beta)
    of the data with (v3, v4) = (w, v).

    Both are bilinear over C, so the parts may be complex trig
    polynomials (the generators i e^{i n theta} are); the central
    coordinate is then complex too.
    """
    w_part, v_part = _boundary_bracket(x.w, x.v, y.w, y.v)
    return SemidirectElement(v_part, w_part,
                             _gbeta_polys(x.w, x.v, y.w, y.v, c0))


class GeneratorIndexPair:
    """Index data (n, m, kind) for a bracket of generators; kind is one of
    LL, LJ, JJ."""

    __slots__ = ("n", "m", "kind")
    _KINDS = ("LL", "LJ", "JJ")

    def __init__(self, n: int, m: int, kind: str):
        if kind not in self._KINDS:
            raise DomainError(f"kind must be one of {self._KINDS}: {kind!r}")
        self.n = int(n)
        self.m = int(m)
        self.kind = kind

    def __repr__(self):
        return f"GeneratorIndexPair({self.n}, {self.m}, {self.kind!r})"


_ZERO_POLY = TrigPoly.zero()


@functools.lru_cache(maxsize=256)
def _generator_poly(n: int) -> TrigPoly:
    """i e^{i n theta}, built once per index n and shared (immutable)."""
    return TrigPoly.exp_harmonic(n, 1j)


def _generator(letter: str, n: int) -> SemidirectElement:
    """L_n = (i e^{i n theta}, 0) or J_n = (0, i e^{i n theta})."""
    poly = _generator_poly(n)
    if letter == "L":
        return SemidirectElement(poly, _ZERO_POLY)
    return SemidirectElement(_ZERO_POLY, poly)


def generator_bracket(pair: GeneratorIndexPair, c0=1.0):
    """Exact structure constants of [X_n, Y_m] for X, Y in {L, J}.

    The complex generators are run through one semidirect bracket, which
    is bilinear over C.  Returns a coefficient map {(letter, k): complex}
    over the generators and the complex central term.
    """
    x_letter, y_letter = pair.kind
    b = semidirect_bracket(_generator(x_letter, pair.n),
                           _generator(y_letter, pair.m), c0)
    coeffs: dict = {}
    for letter, part in (("L", b.v), ("J", b.w)):
        for k, ck in part.exp_coeffs().items():
            value = -1j * ck  # the generator's own poly is i e^{i k theta}
            if abs(value) > _GENERATOR_PRUNE:
                coeffs[(letter, k)] = value
    return coeffs, complex(b.a)


def generator_table_rows(pairs, c0=1.0):
    """Bracket table rows (n, m, kind, coefficient, central-real,
    central-imag); the coefficient is the structure constant in front of
    the single target generator of index n + m."""
    rows = []
    for pair in pairs:
        coeffs, central = generator_bracket(pair, c0)
        target = {"LL": "L", "LJ": "J", "JJ": None}[pair.kind]
        coefficient = 0.0
        if target is not None:
            coefficient = coeffs.get((target, pair.n + pair.m), 0.0)
            coefficient = float(np.real(coefficient))
        rows.append({"n": pair.n, "m": pair.m, "kind": pair.kind,
                     "coefficient": coefficient,
                     "central-real": central.real,
                     "central-imag": central.imag})
    return rows


def gbeta_cyclic_residual(V0: DiscVectorField, V1: DiscVectorField,
                          V2: DiscVectorField, c0=1.0) -> float:
    """|sum_{cyclic} G(beta)([V_j, V_{j+1}], V_{j+2})| on boundary data,
    with the semidirect quotient bracket standing in for the commutator."""
    data = [(F.boundary_v3, F.boundary_v4) for F in (V0, V1, V2)]
    total = 0.0
    for j in range(3):
        bracket = _boundary_bracket(*data[j], *data[(j + 1) % 3])
        total += _gbeta_polys(*bracket, *data[(j + 2) % 3], c0)
    return abs(total)


# ---------------------------------------------------------------------------
# variation of the Maurer-Cartan form
# ---------------------------------------------------------------------------

def theta_variation_residual(g: DiscDiffeo, V: DiscVectorField, p,
                             cfg: CocycleConfig | None = None,
                             curve_builder=None) -> float:
    """Residual of d/ds theta(g o h_s)|_0 = -J(g)^{-1} J(U) theta(g)
    + J(g)^{-1} dJ(U) with U = J(g) V, at a single point ``p``."""
    cfg = cfg if cfg is not None else CocycleConfig()
    plan = cfg.plan
    p = np.asarray(p, dtype=np.float64).reshape(2, 1)
    curve = (curve_builder if curve_builder is not None
             else default_curve_builder)(V)

    def theta_stack(s):
        return mc_components(disc_compose(g, curve(s)).jet(p, plan))[..., 0]

    step = _THETA_FD_STEP
    lhs = (theta_stack(step) - theta_stack(-step)) / (2.0 * step)

    def ju_flat(q):
        jet_q = g.jet(q, plan)
        vv, dvv, _ = V.cartesian_jet2(q)
        ju = (np.einsum("ijkn,jn->ikn", jet_q.h, vv)
              + np.einsum("ijn,jkn->ikn", jet_q.j, dvv))
        return ju.reshape(4, -1)

    jet_g = g.jet(p, plan)
    jg = jet_g.j[:, :, 0]
    jg_inv = np.linalg.inv(jg)
    ju_p = ju_flat(p).reshape(2, 2)
    dju = fd4_jacobian(ju_flat, p, step).reshape(2, 2, 2)
    theta_g = theta_stack(0.0)
    residual = 0.0
    for b in range(2):
        rhs = -jg_inv @ (ju_p @ theta_g[b]) + jg_inv @ dju[:, :, b]
        residual = max(residual, float(np.max(np.abs(lhs[b] - rhs))))
    return residual
