"""Diffeomorphisms of the circle, disc and ball used by the cocycle
construction.

The building blocks are:

* smooth cutoff functions flat at both ends of their window (``CutoffFn``);
* disc diffeomorphisms assembled as chains of elementary links — rigid
  rotations, angular links (r, theta) -> (r, theta + A(r, theta)) with
  their inverses (radial Alexander extensions of circle maps and compactly
  supported radial twists among them), and flow maps of vector fields; one
  that is the identity near the boundary circle is a sphere map in the
  chart (``require_boundary_trivial`` checks it); and
* layered ball maps (rho, p) -> (rho, m_{c(rho)}(p)) built from disc links
  graded by a radial profile.

A link is any object with ``apply(pts)``, an exact 2-jet ``jet(pts)`` and
a mask ``moves(pts)``; disc links also give ``inverse_link()``.  ``moves``
may be False only where the analytic jet is exactly the identity (value
``pts``, Jacobian I, Hessian 0, bit for bit); a chain's mask is the OR of
its links' masks.  Disc and ball maps are one chain type: ``DiscDiffeo``
and ``BallDiffeo`` share the chain base.  The gamma cache keys on link
objects and holds them (``cocycle.gamma_m``), so a link must not change
after it is built.

Every link but a flow preserves the radius (and rho in the ball) and only
turns the angle.  Such a link gives ``radial_moves(r)``, its mask as a
function of the plane radius, and the angle hook ``angle_jet(*base, th)``:
its image angle phi with the partials in (r, theta) on the disc or
(rho, r, theta) in the ball.  Its value hook ``angle(*base, th)`` gives
the same phi, bit for bit, without the partials.  ``_PolarLink`` derives
``moves`` from the mask and ``apply`` from ``angle``; ``apply`` leaves
every node whose angle is unchanged as it is, bit for bit.  A forward
disc link states its hooks as an increment, ``turn(r, th)`` ->
(a, [a_r, a_th], [[a_rr, a_rth], [a_rth, a_thth]]) with None for an
exact zero and ``turn_value(r, th)`` -> a, from which ``_PolarLink``
derives phi = theta + a; it also gives ``scaled(u)``, the link with its
turn scaled by u.  ``AngularLink`` turns by its displacement A and
``InverseAngular(link)`` solves for its own hooks.  An inverse is built
from the certified ``AngularLink`` it inverts and hands that very link
object back as its own inverse.

A circle map theta -> theta + 2 pi k + p(theta) is the r = 1 restriction
of ``AlexanderRadial(2 pi k + p, cutoff, t)``, an angular link, and its
inverse link inverts it.  An ``AngularLink`` certifies its orientation
when built.  For A = sum_k profile_k(r) q_k(theta), each profile's value
range ``bounds`` and M uniform samples of each q_k',

    1 + A_theta >= 1 + sum_k min{w m : w in bounds_k,
                                 m in [min q_k' - s_k, max q_k' + s_k]},

since q_k' lies within s_k = (pi / M) ||q_k''||_1 (coefficient L1 norm)
of its nearest sample.  M starts at 8N, N the degree, and doubles to a
fixed cap until the bound is positive or the bound without the s_k is not.

A chain's analytic jet splits its links into maximal runs of
radius-preserving links and single flows, composed through
``_jets.compose``.  A run carries one scalar angle jet Theta through its
links by the scalar chain rule and goes Cartesian once: it turns each
point p by delta = Theta - t, t the input angle, so its jet is that of
p -> R(delta) p (``_turn_jet``), exact for a run of rotations alone.  A
one-link run is that link's own ``jet``.  A finite-difference plan (FD4)
provides an independent derivative path for cross-validation.

A ball layer, ``BallLayerLink``, wraps a radius-preserving disc link:
graded by a radial profile c it turns by c(rho) times the link's turn,
and without one it is frozen, the link itself at every rho.

A radial profile gives ``value(r)``, its value range ``bounds``, its
``support`` (lo, hi), and ``jets(r)`` = (f, f', f'') from one shared pass,
whose first entry is ``value(r)`` bit for bit.
``value`` stays a separate, cheaper method because the link masks
evaluate it over whole grids.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ._jets import (
    Jet,
    compose,
    fd4_jacobian,
    polar_chart_jet,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NotBoundaryTrivialError,
    UnsupportedError,
)
from .trigpoly import TrigPoly, TrigStack, tp_derivative

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# cutoff functions and radial profiles
# ---------------------------------------------------------------------------

def _bump(x, jets=False):
    """b(x) = exp(-1/x) extended by 0 for x <= 0 (smooth, flat at 0); with
    ``jets``, (b, b', b'') off the same exp, b' = b / x^2 and
    b'' = b (1/x^4 - 2/x^3)."""
    x = np.asarray(x, dtype=np.float64)
    m = x > 1e-8          # below this the value underflows to exactly 0
    xm = x[m]
    e = np.exp(-1.0 / xm)
    out = np.zeros_like(x)
    out[m] = e
    if not jets:
        return out
    d1, d2 = np.zeros_like(x), np.zeros_like(x)
    d1[m] = e / (xm * xm)
    d2[m] = e * (1.0 / xm ** 4 - 2.0 / xm ** 3)
    return out, d1, d2


class CutoffFn:
    """Smooth monotone cutoff from 0 to 1 over the window [eps1, 1 - eps2].

    xi(r) = b(x) / (b(x) + b(1-x)) with b(x) = exp(-1/x) and
    x = (r - eps1) / (1 - eps2 - eps1); xi vanishes identically (all
    derivatives) for r <= eps1 and equals 1 identically for r >= 1 - eps2
    (the flat-1 tail extends past r = 1 so maps stay defined on the whole
    chart plane).
    """

    __slots__ = ("eps1", "eps2", "_len")

    def __init__(self, eps1: float, eps2: float):
        if not (0.0 < eps1 and 0.0 < eps2 and eps1 < 1.0 - eps2):
            raise DomainError(
                f"cutoff window invalid: eps1={eps1}, eps2={eps2} "
                "(need 0 < eps1 < 1 - eps2)")
        self.eps1 = float(eps1)
        self.eps2 = float(eps2)
        self._len = 1.0 - eps2 - eps1

    def _x(self, r):
        return (np.asarray(r, dtype=np.float64) - self.eps1) / self._len

    def value(self, r):
        x = np.clip(self._x(r), 0.0, 1.0)
        s = _bump(x)
        t = _bump(1.0 - x)
        return s / (s + t + (s + t == 0.0))   # 0/1 tails give s+t=0 -> 0

    def jets(self, r):
        """(xi, xi', xi'') from one exp at x and one at 1 - x; the value
        equals ``value(r)`` bit for bit."""
        x = self._x(r)
        inside = (x > 0.0) & (x < 1.0)
        f0, f1, f2 = (np.zeros_like(x) for _ in range(3))
        f0[x >= 1.0] = 1.0
        xm = x[inside]
        s, s1, s2 = _bump(xm, jets=True)
        t, t1, t2 = _bump(1.0 - xm, jets=True)
        t1 = -t1
        D = s + t
        D1 = s1 + t1
        D2 = s2 + t2
        f0[inside] = s / D
        f1[inside] = (s1 / D - s * D1 / D ** 2) / self._len
        f2[inside] = (s2 / D - 2.0 * s1 * D1 / D ** 2 - s * D2 / D ** 2
                      + 2.0 * s * D1 ** 2 / D ** 3) / self._len ** 2
        return f0, f1, f2

    __call__ = value


def cutoff_make(eps1: float, eps2: float) -> CutoffFn:
    """Validated constructor for :class:`CutoffFn` (raises DomainError)."""
    return CutoffFn(eps1, eps2)


class CutoffProfile:
    """Radial profile r -> xi(r); support [eps1, inf), flat 1 from
    1 - eps2 on."""

    __slots__ = ("cutoff",)
    bounds = (0.0, 1.0)

    def __init__(self, cutoff: CutoffFn):
        self.cutoff = cutoff

    @property
    def support(self):
        return (self.cutoff.eps1, np.inf)

    def value(self, r):
        return self.cutoff.value(r)

    def jets(self, r):
        return self.cutoff.jets(r)


class PoweredCutoffProfile(CutoffProfile):
    """xi(r)**k — an alternative extension profile with the bounds, support
    and flat tails of ``CutoffProfile(xi)``."""

    __slots__ = ("k",)

    def __init__(self, cutoff: CutoffFn, k: int):
        if k < 1:
            raise DomainError("power must be >= 1")
        super().__init__(cutoff)
        self.k = int(k)

    def value(self, r):
        return self.cutoff.value(r) ** self.k

    def jets(self, r):
        k = self.k
        v, d1, d2 = self.cutoff.jets(r)
        slope = k * v ** (k - 1)
        if k > 1:
            d2 = k * (k - 1) * v ** (k - 2) * d1 ** 2 + slope * d2
        return v ** k, slope * d1, d2


class BumpProfile:
    """amp * exp(4/(b-a)^2 - 1/((r-a)(b-r))) on (a, b), 0 outside.

    Compactly supported in [a, b] and flat at both ends; peak value amp at
    the midpoint.
    """

    __slots__ = ("a", "b", "amp")

    def __init__(self, a: float, b: float, amp: float):
        for name, v in (("a", a), ("b", b), ("amp", amp)):
            if not math.isfinite(v):
                raise DomainError(f"bump profile {name} must be finite, "
                                  f"got {name}={v!r}")
        if not (0.0 < a < b):
            raise DomainError(f"bump window invalid: [{a}, {b}]")
        self.a = float(a)
        self.b = float(b)
        self.amp = float(amp)

    @property
    def support(self):
        return (self.a, self.b)

    @property
    def bounds(self):
        return (min(self.amp, 0.0), max(self.amp, 0.0))

    def _pieces(self, r):
        r = np.asarray(r, dtype=np.float64)
        q = (r - self.a) * (self.b - r)
        width = self.b - self.a
        inside = q > 1e-8 * width * width
        return r, q, inside

    def value(self, r):
        r, q, inside = self._pieces(r)
        out = np.zeros_like(r)
        out[inside] = self.amp * np.exp(
            4.0 / (self.b - self.a) ** 2 - 1.0 / q[inside])
        return out

    def jets(self, r):
        r, q, inside = self._pieces(r)
        f0, f1, f2 = (np.zeros_like(r) for _ in range(3))
        qm = q[inside]
        q1 = self.a + self.b - 2.0 * r[inside]
        # psi = -1/q:  psi' = q'/q^2,  psi'' = q''/q^2 - 2 q'^2/q^3, q'' = -2
        psi1 = q1 / qm ** 2
        psi2 = -2.0 / qm ** 2 - 2.0 * q1 ** 2 / qm ** 3
        v = self.amp * np.exp(4.0 / (self.b - self.a) ** 2 - 1.0 / qm)
        f0[inside] = v
        f1[inside] = v * psi1
        f2[inside] = v * (psi1 ** 2 + psi2)
        return f0, f1, f2


# ---------------------------------------------------------------------------
# derivative plans
# ---------------------------------------------------------------------------

# relative step of the FD4 plan's stencils
_FD_REL_STEP = 1e-4


class DerivativePlan:
    """How chain derivatives are produced: exact jets or FD4 stencils."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("analytic", "fd4"):
            raise DomainError(f"unknown derivative plan {kind!r}")
        self.kind = kind

    def __repr__(self):
        return f"DerivativePlan({self.kind!r})"


ANALYTIC = DerivativePlan("analytic")
FD4 = DerivativePlan("fd4")


# ---------------------------------------------------------------------------
# angular displacement fields A(r, theta)
# ---------------------------------------------------------------------------

class AngleDisplacement:
    """A(r, theta) = sum_k profile_k(r) poly_k(theta) with exact polar jets.

    Every evaluation reads the polynomials and their theta-derivatives off
    one shared cos/sin table (:class:`~virbott.trigpoly.TrigStack`); the
    coefficient L1 norms behind the envelope are taken once, here.
    """

    __slots__ = ("terms", "_polys", "_l1")

    def __init__(self, terms):
        self.terms = tuple((prof, poly) for prof, poly in terms)
        self._polys = TrigStack(poly for _, poly in self.terms)
        self._l1 = tuple(poly.coeff_l1() for _, poly in self.terms)

    def weights(self, r):
        """Profile values profile_k(r), one per term."""
        return [prof.value(r) for prof, _ in self.terms]

    def value(self, r, th, weights=None):
        """A(r, th), shaped like r and th broadcast; pass ``weights(r)`` to
        reuse profile values.  It is read off the rows ``jets`` reads it
        from, so it equals ``jets(r, th)[0]`` bit for bit."""
        if weights is None:
            weights = self.weights(r)
        out = np.zeros(np.broadcast(r, th).shape)
        out += self.value_and_slope(weights, th)[0]
        return out

    def value_and_slope(self, weights, th):
        """A and 1 + A_theta at th for the profile ``weights`` at r, read
        off one table."""
        value = np.zeros(np.shape(th))
        slope = np.ones(np.shape(th))
        for w, g0, g1 in zip(weights, *self._polys(th, (0, 1))):
            value = value + w * g0
            slope = slope + w * g1
        return value, slope

    def jets(self, r, th):
        """Return (A, A_r, A_th, A_rr, A_rth, A_thth), each shaped like r."""
        out = np.zeros((6,) + np.broadcast(r, th).shape)
        A, Ar, At, Arr, Art, Att = out
        for (prof, _), g0, g1, g2 in zip(self.terms, *self._polys(th)):
            f0, f1, f2 = prof.jets(r)
            A += f0 * g0
            Ar += f1 * g0
            At += f0 * g1
            Arr += f2 * g0
            Art += f1 * g1
            Att += f0 * g2
        return A, Ar, At, Arr, Art, Att

    def radial_envelope(self, r, weights=None):
        """Pointwise bound sum_k |profile_k(r)| * ||poly_k||_1; exactly zero
        wherever every term's profile vanishes identically, so it doubles as
        an exact identity mask for the link."""
        if weights is None:
            weights = self.weights(r)
        out = np.zeros_like(np.asarray(r, dtype=np.float64))
        for w, l1 in zip(weights, self._l1):
            out += np.abs(w) * l1
        return out

    def radial_moves(self, r):
        """Radii at which some profile is nonzero, outside the origin
        guard: elsewhere a link driven by this displacement is exactly the
        identity."""
        return (r >= _LINK_GUARD) & (self.radial_envelope(r) != 0.0)

    def certify_orientation(self):
        """Certify 1 + A_theta > 0 at every r and theta by the sampled
        bound of the module docstring: return (bound, M), or raise
        DomainError stating the bound, N and M.  A NaN coefficient leaves
        the bound NaN, since NaN * k is NaN at k = 0 too."""
        curv = np.array([tp_derivative(tp_derivative(poly)).coeff_l1()
                         for _, poly in self.terms])
        ranges = np.array([prof.bounds for prof, _ in self.terms],
                          dtype=np.float64).reshape(-1, 2, 1)

        def floor(lo, hi):
            # 1 + sum_k min{w m : w in bounds_k, m in [lo_k, hi_k]}
            box = np.stack([lo, hi], axis=1)[:, None, :]
            return 1.0 + float(np.sum(np.min(ranges * box, axis=(1, 2))))

        N = self._polys.degree
        M = 8 * N
        while True:
            q = self._polys(np.linspace(0.0, _TWO_PI, M, endpoint=False),
                            (1,))[0]
            # q_k' has mean 0, so 0 lies in its range over the samples; at
            # degree 0, a twist, q_k' = 0 and M = 0 samples are taken
            lo = np.min(q, axis=1, initial=0.0)
            hi = np.max(q, axis=1, initial=0.0)
            slack = curv * (math.pi / max(M, 1))
            sampled, bound = floor(lo, hi), floor(lo - slack, hi + slack)
            if (bound > 0.0 or not sampled > 0.0
                    or not 0 < M < _ORIENT_MAX_SAMPLES):
                break
            M *= 2
        if not bound > 0.0:  # NaN included
            raise DomainError(
                f"angular link is not certified orientation-preserving: "
                f"min 1 + A_theta >= {bound:.3e} ({sampled:.3e} without the "
                f"sampling slack) from M={M} samples at degree N={N}")
        return bound, M

    def scaled(self, c: float) -> "AngleDisplacement":
        return AngleDisplacement([(prof, c * poly)
                                  for prof, poly in self.terms])


_ORIENT_MAX_SAMPLES = 4096     # cap on the certificate's angle samples


def _invert_angle_jets(fwd_jets, psi):
    """Second-order inverse-function data for theta -> theta + A(r, theta).

    Given the forward map Phi(r, theta) = theta + A and the solved preimage
    angle psi (so Phi(r, psi) = t), return the first and second partials of
    psi in (r, t), laid out as an angle hook returns them.  ``fwd_jets``
    are the displacement jets evaluated at (r, psi).
    """
    A, Ar, At, Arr, Art, Att = fwd_jets
    Pt = 1.0 + At            # dPhi/dtheta at (r, psi)
    psi_t = 1.0 / Pt
    psi_r = -Ar / Pt
    psi_tt = -Att * psi_t ** 2 / Pt
    psi_rt = -(Art + Att * psi_r) * psi_t / Pt
    psi_rr = -(Arr + 2.0 * Art * psi_r + Att * psi_r ** 2) / Pt
    return [psi_r, psi_t], [[psi_rr, psi_rt], [psi_rt, psi_tt]]


_LINK_GUARD = 1e-9           # below this radius every angular link is identity


# ---------------------------------------------------------------------------
# the angle-jet engine of radius-preserving links
# ---------------------------------------------------------------------------
#
# A run of radius-preserving links keeps r (and rho) and moves the angle
# alone, so the run's jet is carried as one scalar angle jet Theta over the
# variables (r, t) on the disc or (rho, r, t) in the ball, t being the input
# angle.  Entries are arrays, the float 1.0, or None for an exact zero.
# Each link's ``angle_jet`` hook gives its image angle phi with the partials
# in (base..., theta), and the scalar chain rule
#
#     Theta'_a  = phi_a + phi_th Theta_a
#     Theta'_ab = phi_ab + phi_ath Theta_b + phi_bth Theta_a
#                 + phi_thth Theta_a Theta_b + phi_th Theta_ab
#
# (phi_a = 0 for a = t) advances it.  The run then goes Cartesian once,
# as the turn p -> R(Theta - t) p (``_turn_jet``).

def _add(*terms):
    """Sum of angle-jet entries; None (an exact zero) terms drop out."""
    terms = [t for t in terms if t is not None]
    if not terms:
        return None
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def _mul(*factors):
    """Product of angle-jet entries: None if any factor is None, and a
    factor 1.0 is skipped."""
    if any(f is None for f in factors):
        return None
    factors = [f for f in factors if not (isinstance(f, float) and f == 1.0)]
    if not factors:
        return 1.0
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def _angle_step(link_jet, grad, hess):
    """Advance the angle jet (grad, hess over m variables) through one link
    whose hook returned ``link_jet`` = (phi, dphi, d2phi)."""
    phi, dphi, d2phi = link_jet
    m = len(grad)
    direct = list(dphi[:-1]) + [None]           # phi_a; none for a = t
    mixed = [d2phi[a][-1] for a in range(m - 1)] + [None]
    p_t, p_tt = dphi[-1], d2phi[-1][-1]
    new_grad = [_add(direct[a], _mul(p_t, grad[a])) for a in range(m)]
    new_hess = {}
    for a in range(m):
        for b in range(a, m):
            own = d2phi[a][b] if b < m - 1 else None
            new_hess[a, b] = _add(own, _mul(mixed[a], grad[b]),
                                  _mul(mixed[b], grad[a]),
                                  _mul(p_tt, grad[a], grad[b]),
                                  _mul(p_t, hess[a, b]))
    return phi, new_grad, new_hess


def _take(entry, idx):
    return entry[idx] if isinstance(entry, np.ndarray) else entry


def _put(entry, idx, sub, n):
    """``entry`` over n nodes with ``sub`` written at ``idx``."""
    if sub is None:
        return entry                              # then entry is None too
    full = (np.full(n, 0.0 if entry is None else entry)
            if not isinstance(entry, np.ndarray) else entry.copy())
    full[idx] = sub
    return full


def _angle_run(links, masks, base, theta):
    """The angle jet (theta, grad, hess) after ``links`` at the nodes with
    base coordinates ``base`` (r, or rho and r) and start angle ``theta``;
    a link acts only where its mask is True."""
    m = len(base) + 1
    grad = [None] * (m - 1) + [1.0]
    hess = {(a, b): None for a in range(m) for b in range(a, m)}
    n = theta.size
    for link, mask in zip(links, masks):
        if mask.all():
            theta, grad, hess = _angle_step(link.angle_jet(*base, theta),
                                            grad, hess)
        elif mask.any():
            idx = np.flatnonzero(mask)
            sub_th, sub_g, sub_h = _angle_step(
                link.angle_jet(*(b[idx] for b in base), theta[idx]),
                [_take(e, idx) for e in grad],
                {k: _take(e, idx) for k, e in hess.items()})
            theta = _put(theta, idx, sub_th, n)
            grad = [_put(e, idx, s, n) for e, s in zip(grad, sub_g)]
            hess = {k: _put(e, idx, sub_h[k], n) for k, e in hess.items()}
    return theta, grad, hess


def _turn_jet(pts, r, start, theta, grad, hess) -> Jet:
    """Jet at ``pts`` (d, N), of plane radius ``r``, of the run that ends at
    the angle jet (theta, grad, hess) from the start angles ``start``: the
    turn F(p) = R(delta) p by delta = theta - start.

    With q = J p (p turned by a quarter) and D, DD the Cartesian gradient
    and Hessian of delta, F_a = R (e_a + D_a q) and
    F_ab = R (J (e_a D_b + e_b D_a) + DD_ab q - D_a D_b p), with e_rho = 0
    in the plane; the rho row is exact.  D and DD in the plane are delta's
    (r, t) jet composed with the polar chart at (r, start), and the rho
    entries are read off.  Inside _LINK_GUARD only rotations act, so delta
    has no r or t partial there, and the chart is taken at (1, 0): its
    entries only multiply exact zeros.
    """
    d, n = pts.shape
    ir, it = d - 2, d - 1                       # the slots of r and t
    g = [0.0 if e is None else e for e in grad]
    H = {k: 0.0 if e is None else e for k, e in hess.items()}
    delta = theta - start
    polar_j = np.empty((1, 2, n))
    polar_h = np.empty((1, 2, 2, n))
    polar_j[0, 0], polar_j[0, 1] = g[ir], g[it] - 1.0
    polar_h[0, 0, 0], polar_h[0, 1, 1] = H[ir, ir], H[it, it]
    polar_h[0, 0, 1] = polar_h[0, 1, 0] = H[ir, it]
    away = r >= _LINK_GUARD
    chart = polar_chart_jet(np.where(away, pts[-2], 1.0),
                            np.where(away, pts[-1], 0.0),
                            np.where(away, r, 1.0), start)
    plane = compose(Jet(delta[None], polar_j, polar_h), chart)
    D = g[:ir] + list(plane.j[0])
    DD = {(ir + k, ir + l): plane.h[0, k, l] for k in (0, 1) for l in (k, 1)}
    if d == 3:
        DD[0, 0] = H[0, 0]
        for k in (0, 1):
            DD[0, 1 + k] = H[0, 1] * chart.j[0, k] + H[0, 2] * chart.j[1, k]
    c, s = np.cos(delta), np.sin(delta)
    X = c * pts[-2] - s * pts[-1]               # R p = (X, Y), R q = (-Y, X)
    Y = s * pts[-2] + c * pts[-1]
    turned = {ir: (c, s), it: (-s, c)}          # R e_a of the plane axes
    quarter = {ir: (-s, c), it: (-c, -s)}       # R J e_a
    j = np.zeros((d, d, n))
    h = np.zeros((d, d, d, n))
    if d == 3:
        j[0, 0] = 1.0
    for a in range(d):
        j[-2, a] = -D[a] * Y
        j[-1, a] = D[a] * X
        if a in turned:
            j[-2, a] += turned[a][0]
            j[-1, a] += turned[a][1]
        for b in range(a, d):
            both = D[a] * D[b]
            h[-2, a, b] = -DD[a, b] * Y - both * X
            h[-1, a, b] = DD[a, b] * X - both * Y
            for e, f in ((a, b), (b, a)):
                if e in quarter:
                    h[-2, a, b] += quarter[e][0] * D[f]
                    h[-1, a, b] += quarter[e][1] * D[f]
            h[:, b, a] = h[:, a, b]
    return Jet(np.stack([*pts[:-2], X, Y]), j, h)


def _polar_run_jet(links, pts) -> Jet:
    """Jet at ``pts`` (d, N) of a run of radius-preserving links.

    The plane radius is taken once and every link's mask read off it.  Only
    nodes some link moves are evaluated; the others keep the identity jet,
    so the ``moves`` contract holds bit for bit.  The run starts from the
    angle 0 inside _LINK_GUARD, where only rotations act.
    """
    pts = np.asarray(pts, dtype=np.float64)
    r = np.hypot(pts[-2], pts[-1])
    masks = [link.radial_moves(r) for link in links]
    moved = np.logical_or.reduce(masks)
    whole = moved.all()
    out = None if whole else Jet.identity(pts)
    if not (whole or moved.any()):
        return out
    sub = pts if whole else pts[:, moved]
    sub_r = r if whole else r[moved]
    start = np.where(sub_r >= _LINK_GUARD, np.arctan2(sub[-1], sub[-2]), 0.0)
    base = (sub[0], sub_r) if pts.shape[0] == 3 else (sub_r,)
    jet = _turn_jet(sub, sub_r, start, *_angle_run(
        links, [mk if whole else mk[moved] for mk in masks], base, start))
    if whole:
        return jet
    out.x[:, moved] = jet.x
    out.j[:, :, moved] = jet.j
    out.h[:, :, :, moved] = jet.h
    return out


class _PolarLink:
    """Base of the radius-preserving links: they keep the plane radius r
    (and rho) and move only the angle.  A subclass gives
    ``radial_moves(r)``, its mask as a function of r, and either the
    increment hooks ``turn(r, th)`` and ``turn_value(r, th)``, from which
    ``angle_jet`` = theta + a and its value ``angle`` follow, or its own
    angle hooks ``angle_jet(*base, th)`` -> (phi, dphi, d2phi) over
    (base..., theta) and ``angle(*base, th)`` -> phi, equal to the first
    entry of ``angle_jet`` bit for bit.  ``moves`` follows from the mask
    and ``apply`` from ``angle``, and its jet is the angle-jet engine on
    the one link."""

    __slots__ = ()

    def angle_jet(self, r, th):
        a, (a_r, a_t), d2a = self.turn(r, th)
        return th + a, [a_r, _add(1.0, a_t)], d2a

    def angle(self, r, th):
        return th + self.turn_value(r, th)

    def moves(self, pts):
        return self.radial_moves(np.hypot(pts[-2], pts[-1]))

    def apply(self, pts):
        """Image of ``pts`` (d, N): the hook's angle phi at the moved nodes.
        A node whose angle phi leaves unchanged keeps its coordinates bit
        for bit."""
        pts = np.asarray(pts, dtype=np.float64)
        r = np.hypot(pts[-2], pts[-1])
        idx = np.flatnonzero(self.radial_moves(r))
        out = pts.copy()
        if idx.size:
            sub_r = r[idx]
            th = np.arctan2(pts[-1, idx], pts[-2, idx])
            base = (pts[0, idx], sub_r) if pts.shape[0] == 3 else (sub_r,)
            phi = self.angle(*base, th)
            turned = phi != th
            idx, sub_r, phi = idx[turned], sub_r[turned], phi[turned]
            out[-2, idx] = sub_r * np.cos(phi)
            out[-1, idx] = sub_r * np.sin(phi)
        return out

    def jet(self, pts) -> Jet:
        return _polar_run_jet((self,), pts)


class AngularLink(_PolarLink):
    """The link (r, theta) -> (r, theta + A(r, theta)) of an angular
    displacement A, which is its turn; orientation (1 + A_theta > 0) is
    certified at construction (``AngleDisplacement.certify_orientation``).
    The gamma cache keys on the link object and holds it, so the link and
    its displacement must not change after it is built."""

    __slots__ = ("displacement",)

    def __init__(self, displacement: AngleDisplacement):
        displacement.certify_orientation()
        self.displacement = displacement

    def radial_moves(self, r):
        return self.displacement.radial_moves(r)

    def turn(self, r, th):
        A, Ar, At, Arr, Art, Att = self.displacement.jets(r, th)
        return A, [Ar, At], [[Arr, Art], [Art, Att]]

    def turn_value(self, r, th):
        return self.displacement.value(r, th)

    def scaled(self, u: float):
        return AngularLink(self.displacement.scaled(u))

    def inverse_link(self):
        return InverseAngular(self)


def AlexanderRadial(displacement: TrigPoly, cutoff: CutoffFn,
                    t: float = 1.0) -> AngularLink:
    """Radial (Alexander-style) extension of the circle map with the
    displacement 2 pi k + p(theta), at time t of its straight-line isotopy:
    (r, theta) -> (r, theta + t * xi(r) * (2 pi k + p(theta))), the
    identity below the cutoff window."""
    return AngularLink(AngleDisplacement(
        [(CutoffProfile(cutoff), displacement * float(t))]))


def RadialTwist(profile) -> AngularLink:
    """Compactly supported rotation by a radial angle: (r,th)->(r, th+tau(r)).

    The twist profile must be supported in a closed subinterval of (0, 1),
    so the link is a boundary-trivial (sphere-type) diffeomorphism.
    """
    lo, hi = profile.support
    if not (0.0 < lo and hi < 1.0):
        raise DomainError("twist profile must be supported inside (0, 1)")
    return AngularLink(AngleDisplacement([(profile, TrigPoly(1.0))]))


# residual bound and Newton iteration cap of every angle inversion
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 200


def solve_increasing(residual, x, lo, hi):
    """Per-node root of an increasing function inside [lo, hi], vectorized;
    ``residual(x)`` returns its values and slopes at x.

    Safeguarded Newton from the seed ``x`` (which must lie in the bracket):
    each residual sign narrows the bracket, and a node whose Newton step
    would leave it is bisected instead.  A step landing exactly on an end
    counts as inside, so converged nodes are never bisected.  Returns
    (x, newton_iterations, bisected_node_steps); raises ConvergenceError if
    some |residual| still exceeds ``_NEWTON_TOL`` after ``_NEWTON_MAX_ITER``
    iterations.
    """
    res, slope = residual(x)
    iters = bisected = 0
    while (iters < _NEWTON_MAX_ITER
           and not np.all(np.abs(res) <= _NEWTON_TOL)):
        iters += 1
        hi = np.where(res > 0.0, x, hi)
        lo = np.where(res < 0.0, x, lo)
        step = x - res / slope
        inside = (step >= lo) & (step <= hi)      # False on NaN steps too
        bisected += int(np.count_nonzero(~inside))
        x = np.where(inside, step, 0.5 * (lo + hi))
        res, slope = residual(x)
    above = ~(np.abs(res) <= _NEWTON_TOL)
    if np.any(above):
        raise ConvergenceError(
            f"angle inversion stalled at residual {np.max(np.abs(res)):.3e}: "
            f"{int(np.count_nonzero(above))} of {res.size} nodes above "
            f"tol {_NEWTON_TOL:.1e} after {iters} Newton iterations")
    return x, iters, bisected


class InverseAngular(_PolarLink):
    """Inverse of an angular link, solved per point.  It takes the
    ``AngularLink`` it inverts, whose certificate makes the solved map
    increasing, and keeps it as its own inverse link, so a chain inverted
    twice has the same link objects and shares its cached gamma values; it
    has its own angle hooks and no turn.  Like every link, it must not
    change after it is built."""

    __slots__ = ("link", "displacement")

    def __init__(self, link: AngularLink):
        if not isinstance(link, AngularLink):
            raise DomainError("InverseAngular inverts a certified "
                              f"AngularLink, got {type(link).__name__}")
        self.link = link
        self.displacement = link.displacement

    def radial_moves(self, r):
        return self.displacement.radial_moves(r)

    def _solve(self, r, t):
        """Solve psi + A(r, psi) = t per node by :func:`solve_increasing`.

        The seed psi0 = t - A(r, t) is exact where A does not depend on
        theta (twists need no Newton step); the bracket is
        t +- (sum_k |profile_k(r)| ||poly_k||_1 + 1).  The profiles are
        evaluated once, since r is fixed.  Returns (psi, iterations,
        bisected node steps).
        """
        disp = self.displacement
        w = disp.weights(r)
        bound = 1.0 + disp.radial_envelope(r, w)

        def residual(psi):
            value, slope = disp.value_and_slope(w, psi)
            return psi + value - t, slope

        return solve_increasing(
            residual, t - disp.value(r, t, w), t - bound, t + bound)

    def angle_jet(self, r, t):
        psi = self._solve(r, t)[0]
        return (psi,) + _invert_angle_jets(self.displacement.jets(r, psi), psi)

    def angle(self, r, t):
        return self._solve(r, t)[0]

    def inverse_link(self):
        return self.link


class Rotation(_PolarLink):
    """Rigid rotation of the plane by alpha: the constant turn alpha."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        if not math.isfinite(alpha):
            raise DomainError(f"rotation angle must be finite, "
                              f"got alpha={alpha!r}")
        self.alpha = float(alpha)

    def radial_moves(self, r):
        return np.ones(r.shape, dtype=bool)

    def turn(self, r, th):
        return self.alpha, [None, None], [[None, None], [None, None]]

    def turn_value(self, r, th):
        return self.alpha

    def scaled(self, u: float):
        return Rotation(u * self.alpha)

    def inverse_link(self):
        return Rotation(-self.alpha)


class FlowMap:
    """Time-T flow of a planar vector field, integrated by classical RK4.

    The field object must provide ``cartesian_value(pts)`` and, for the
    analytic jet path, ``cartesian_jet2(pts) -> (V, DV, D2V)``; first and
    second variational equations are integrated alongside the base point.
    Their right-hand side is the chain rule: the field's jet composed with
    the state's jet.
    """

    __slots__ = ("field", "time", "steps")

    def __init__(self, field, time: float, steps: int = 64):
        if not math.isfinite(time):
            raise DomainError(f"flow time must be finite, got time={time!r}")
        try:
            self.steps = operator.index(steps)
        except TypeError:
            raise DomainError(f"flow steps must be an integer, "
                              f"got steps={steps!r}") from None
        if self.steps < 1:
            raise DomainError("flow needs at least one step")
        self.field = field
        self.time = float(time)

    def apply(self, pts):
        x = pts.astype(np.float64).copy()
        dt = self.time / self.steps
        for _ in range(self.steps):
            k1 = self.field.cartesian_value(x)
            k2 = self.field.cartesian_value(x + 0.5 * dt * k1)
            k3 = self.field.cartesian_value(x + 0.5 * dt * k2)
            k4 = self.field.cartesian_value(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return x

    def moves(self, pts):
        return np.ones(np.shape(pts)[1], dtype=bool)

    def _rhs(self, state):
        rate = compose(Jet(*self.field.cartesian_jet2(state[0])), Jet(*state))
        return rate.x, rate.j, rate.h

    def jet(self, pts) -> Jet:
        start = Jet.identity(pts.astype(np.float64))
        dt = self.time / self.steps
        state = (start.x, start.j, start.h)
        for _ in range(self.steps):
            k1 = self._rhs(state)
            s2 = tuple(a + 0.5 * dt * b for a, b in zip(state, k1))
            k2 = self._rhs(s2)
            s3 = tuple(a + 0.5 * dt * b for a, b in zip(state, k2))
            k3 = self._rhs(s3)
            s4 = tuple(a + dt * b for a, b in zip(state, k3))
            k4 = self._rhs(s4)
            state = tuple(a + (dt / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
                          for a, b1, b2, b3, b4 in zip(state, k1, k2, k3, k4))
        x, J, H = state
        return Jet(x, J, H)

    def inverse_link(self):
        raise UnsupportedError("flow links have no closed-form inverse")


# ---------------------------------------------------------------------------
# chains and disc diffeomorphisms
# ---------------------------------------------------------------------------

class _Chain:
    """A map as a chain of links (see the module docstring), applied left
    to right: chain [m1, m2] sends p to m2(m1(p)).  The points are (d, N)
    with d = 2 on the disc and d = 3 in the ball chart."""

    __slots__ = ("links",)

    def __init__(self, links=()):
        self.links = tuple(links)

    @classmethod
    def identity(cls):
        return cls(())

    def apply(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        for link in self.links:
            pts = link.apply(pts)
        return pts

    def moves(self, pts):
        """Exact mask of the nodes where the chain's analytic jet may differ
        from the identity: the OR of its links' masks at ``pts`` (a link
        that fixes p hands p on unchanged, so the next link sees p too).
        The radius-preserving links read theirs off one plane radius."""
        out = np.zeros(np.shape(pts)[1], dtype=bool)
        r = None
        for link in self.links:
            if hasattr(link, "radial_moves"):
                if r is None:
                    r = np.hypot(pts[-2], pts[-1])
                out |= link.radial_moves(r)
            else:
                out |= link.moves(pts)
        return out

    def _runs(self):
        """The links split into maximal runs of radius-preserving links
        (those with an angle hook) and single other links."""
        runs = []
        for link in self.links:
            if (runs and hasattr(link, "angle_jet")
                    and hasattr(runs[-1][-1], "angle_jet")):
                runs[-1].append(link)
            else:
                runs.append([link])
        return runs

    def jet(self, pts, plan: DerivativePlan = ANALYTIC) -> Jet:
        pts = np.asarray(pts, dtype=np.float64)
        if plan.kind == "analytic":
            # a run of radius-preserving links is one angle-jet pass; a
            # one-link run is that link's own jet
            current = None
            for run in self._runs():
                x = pts if current is None else current.x
                step = run[0].jet(x) if len(run) == 1 else \
                    _polar_run_jet(run, x)
                current = step if current is None else compose(step, current)
            return Jet.identity(pts) if current is None else current
        d, n = pts.shape
        J = fd4_jacobian(self.apply, pts, _FD_REL_STEP)

        def jfn(q):
            return fd4_jacobian(self.apply, q, _FD_REL_STEP).reshape(d * d, -1)

        H = fd4_jacobian(jfn, pts, _FD_REL_STEP).reshape(d, d, d, n)
        H = 0.5 * (H + H.transpose(0, 2, 1, 3))       # symmetrize FD noise
        return Jet(self.apply(pts), J, H)


class DiscDiffeo(_Chain):
    """A diffeomorphism of the disc/plane as a chain of elementary links."""

    __slots__ = ()

    @classmethod
    def from_link(cls, link):
        return cls((link,))


def disc_compose(g: DiscDiffeo, h: DiscDiffeo) -> DiscDiffeo:
    """(g o h)(p) = g(h(p)): h's links run first."""
    return DiscDiffeo(h.links + g.links)


def disc_invert(g: DiscDiffeo) -> DiscDiffeo:
    """Inverse chain (reversed inverse links); UnsupportedError on flows."""
    return DiscDiffeo(tuple(link.inverse_link() for link in reversed(g.links)))


_BT_ANGLES = np.linspace(0.0, _TWO_PI, 256, endpoint=False)

# largest coordinate offset the identity checks of sampled maps accept
_IDENTITY_TOL = 1e-12


def _boundary_offset(g: DiscDiffeo, eps: float):
    """(largest coordinate of |g(p) - p|, the radius where it is taken,
    sample count) over 256 angles on each annulus radius 1-eps/2, 1-eps/4;
    a NaN counts as the largest."""
    r = np.repeat([1.0 - eps / 2.0, 1.0 - eps / 4.0], _BT_ANGLES.size)
    th = np.tile(_BT_ANGLES, 2)
    pts = np.stack([r * np.cos(th), r * np.sin(th)])
    off = np.max(np.abs(g.apply(pts) - pts), axis=0)
    k = int(np.argmax(off))
    return off[k], r[k], off.size


def require_boundary_trivial(g: DiscDiffeo, eps: float, what: str):
    """Raise NotBoundaryTrivialError saying ``what`` and naming the worst
    sample unless g is the identity (to ``_IDENTITY_TOL``) on the annulus
    radii 1-eps/2 and 1-eps/4: the test that g is a sphere map, one that
    the identity extends across the chart."""
    off, r, n = _boundary_offset(g, eps)
    if not off <= _IDENTITY_TOL:
        raise NotBoundaryTrivialError(
            f"{what} (a coordinate moves by {off:.3e} at r={r:.4g}; worst of "
            f"{n} samples)")


# ---------------------------------------------------------------------------
# ball layers and layered ball diffeomorphisms
# ---------------------------------------------------------------------------

class BallLayerLink(_PolarLink):
    """(rho, x, y) -> (rho, m_u(x, y)) for a radius-preserving disc link m;
    the first output row is always rho itself.

    With a radial ``profile`` c the layer is graded: m_u is the link with
    its turn a scaled by u = c(rho), and the angle hook over
    (rho, r, theta) is theta + c a.  Without one it is frozen: m_u is the
    link at every u, and the hook is the link's own.
    """

    __slots__ = ("link", "profile")

    def __init__(self, link, profile=None):
        if not hasattr(link, "angle_jet" if profile is None else "turn"):
            raise UnsupportedError(
                "ball layers need a radius-preserving link, and graded ones "
                "a link with a turn: flow links carry no closed-form isotopy")
        self.link = link
        self.profile = profile

    def radial_moves(self, r):
        # the map's mask, the same on every rho layer: where c = 0 the layer
        # is the identity, but its rho-derivative c' a need not be, so its
        # jet is the identity only where a vanishes.  W masks its density
        # more tightly, by where the map depends on rho (cocycle.wz_term)
        return self.link.radial_moves(r)

    def angle_jet(self, rho, r, th):
        if self.profile is None:
            phi, dphi, d2phi = self.link.angle_jet(r, th)
            return phi, [None] + dphi, [[None, None, None]] + [
                [None] + row for row in d2phi]
        c0, c1, c2 = self.profile.jets(rho)
        a, (a_r, a_t), ((a_rr, a_rt), (_, a_tt)) = self.link.turn(r, th)
        rho_r, rho_t, r_t = _mul(c1, a_r), _mul(c1, a_t), _mul(c0, a_rt)
        return th + _mul(c0, a), [
            _mul(c1, a), _mul(c0, a_r), _add(1.0, _mul(c0, a_t))], [
            [_mul(c2, a), rho_r, rho_t], [rho_r, _mul(c0, a_rr), r_t],
            [rho_t, r_t, _mul(c0, a_tt)]]

    def angle(self, rho, r, th):
        if self.profile is None:
            return self.link.angle(r, th)
        return th + _mul(self.profile.value(rho), self.link.turn_value(r, th))

    def at(self, u: float):
        """The planar link m_u."""
        return self.link if self.profile is None else self.link.scaled(u)


class BallDiffeo(_Chain):
    """Layered diffeomorphism of the solid ball in the chart
    (rho, x, y) with rho preserved by every layer."""

    __slots__ = ()

    def boundary_map(self) -> DiscDiffeo:
        """The planar chain obtained by restricting every layer to rho = 1."""
        one = np.array([1.0])
        return DiscDiffeo(tuple(
            layer.at(1.0 if layer.profile is None
                     else float(layer.profile.value(one)[0]))
            for layer in self.links))

    def parameter_zero_map(self) -> DiscDiffeo:
        """The planar chain at parameter u = 0 (must evaluate to the
        identity for a valid extension of an isotopy)."""
        return DiscDiffeo(tuple(layer.at(0.0) for layer in self.links))


def ball_compose(g: BallDiffeo, h: BallDiffeo) -> BallDiffeo:
    """(g o h)(p) = g(h(p)): h's layers run first."""
    return BallDiffeo(h.links + g.links)


def _layers(links, profile):
    """Ball layers of disc links: graded by ``profile`` where the link has
    a turn, frozen otherwise; a flow raises UnsupportedError."""
    return [BallLayerLink(link, profile if hasattr(link, "turn") else None)
            for link in links]


_ID_CHECK_RADII = (0.15, 0.45, 0.75, 0.95)


def _check_parameter_zero_identity(ball: BallDiffeo):
    r, th = (g.ravel() for g in np.meshgrid(
        _ID_CHECK_RADII, np.linspace(0.0, _TWO_PI, 64, endpoint=False),
        indexing="ij"))
    pts = np.stack([r * np.cos(th), r * np.sin(th)])
    off = np.max(np.abs(ball.parameter_zero_map().apply(pts) - pts), axis=0)
    k = int(np.argmax(off))
    if not off[k] <= _IDENTITY_TOL:
        raise DomainError(
            "layer isotopy does not start at the identity (frozen conjugator "
            "links fail to cancel at u = 0: a coordinate moves by "
            f"{off[k]:.3e} at r={r[k]:.4g}, theta={th[k]:.4g}; worst of "
            f"{off.size} samples)")


def ball_extend(h: DiscDiffeo, xi: CutoffFn, profile=None) -> BallDiffeo:
    """Layered ball extension of a boundary map, a disc chain (a sphere map
    in the chart when it is boundary-trivial).

    Each link with a turn is graded by the radial profile (default: the
    cutoff itself) and the inverse links are frozen, so the ball map is the
    identity near rho = 0 (when the frozen layers cancel, which is checked)
    and equals the given map on the boundary sphere rho = 1.
    """
    prof = profile if profile is not None else CutoffProfile(xi)
    ball = BallDiffeo(_layers(h.links, prof))
    _check_parameter_zero_identity(ball)
    return ball


def conjugated_extension(g: DiscDiffeo, h: DiscDiffeo, xi: CutoffFn,
                         profile=None) -> BallDiffeo:
    """Ball extension of g o h o g^{-1} along the isotopy u -> g o h_u o g^{-1}:
    the conjugating chains enter as frozen (u-independent) layers."""
    prof = profile if profile is not None else CutoffProfile(xi)
    ball = BallDiffeo(_layers(disc_invert(g).links, None)
                      + _layers(h.links, prof) + _layers(g.links, None))
    _check_parameter_zero_identity(ball)
    return ball
