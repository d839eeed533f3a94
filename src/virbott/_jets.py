"""Batched 2-jets of maps between coordinate charts.

Everything geometric in this package reduces to knowing a map's value,
Jacobian and Hessian at a batch of quadrature nodes.  This module holds the
structure-of-arrays container for such 2-jets, the chain-rule composition,
the polar chart jet, batched 2x2/3x3 linear algebra, and a
fourth-order finite-difference fallback.

Index conventions (N = number of points in the batch):

    x : (dout, N)            values          F_i
    j : (dout, din, N)       Jacobian        dF_i / dp_a
    h : (dout, din, din, N)  Hessian         d^2 F_i / dp_a dp_b   (sym in a,b)
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateError


class Jet:
    """2-jet of a smooth map at a batch of points (see module docstring)."""

    __slots__ = ("x", "j", "h")

    def __init__(self, x, j, h):
        self.x = x
        self.j = j
        self.h = h

    @classmethod
    def identity(cls, points):
        """Identity-map jet at ``points`` of shape (d, N)."""
        d, n = points.shape
        j = np.zeros((d, d, n))
        for i in range(d):
            j[i, i] = 1.0
        return cls(points.copy(), j, np.zeros((d, d, d, n)))


def compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of F_outer o F_inner; ``outer`` must be evaluated at ``inner.x``.

    Chain rule:  J = J2 J1,
    H_iab = sum_kl H2_ikl J1_ka J1_lb + sum_k J2_ik H1_kab.
    """
    j = np.einsum("ikn,kan->ian", outer.j, inner.j)
    h = (np.einsum("ikln,kan,lbn->iabn", outer.h, inner.j, inner.j)
         + np.einsum("ikn,kabn->iabn", outer.j, inner.h))
    return Jet(outer.x, j, h)


# ---------------------------------------------------------------------------
# chart jets
# ---------------------------------------------------------------------------

def polar_chart_jet(x, y, r, th) -> Jet:
    """2-jet of (x, y) -> (r, theta) away from the origin, given the
    point's r = hypot(x, y) and th = arctan2(y, x)."""
    if np.any(r <= 0):
        raise DegenerateError("polar chart evaluated at the origin")
    c = x / r
    s = y / r
    n = r.shape[0]
    j = np.empty((2, 2, n))
    j[0, 0] = c
    j[0, 1] = s
    j[1, 0] = -s / r
    j[1, 1] = c / r
    h = np.empty((2, 2, 2, n))
    h[0, 0, 0] = s * s / r
    h[0, 0, 1] = h[0, 1, 0] = -c * s / r
    h[0, 1, 1] = c * c / r
    h[1, 0, 0] = 2 * c * s / (r * r)
    h[1, 0, 1] = h[1, 1, 0] = (s * s - c * c) / (r * r)
    h[1, 1, 1] = -2 * c * s / (r * r)
    return Jet(np.stack([r, th]), j, h)


# ---------------------------------------------------------------------------
# batched linear algebra
# ---------------------------------------------------------------------------

def det_batched(j):
    """Determinant of a (d, d, N) stack, d in {2, 3}."""
    d = j.shape[0]
    if d == 2:
        return j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    if d == 3:
        return (j[0, 0] * (j[1, 1] * j[2, 2] - j[1, 2] * j[2, 1])
                - j[0, 1] * (j[1, 0] * j[2, 2] - j[1, 2] * j[2, 0])
                + j[0, 2] * (j[1, 0] * j[2, 1] - j[1, 1] * j[2, 0]))
    raise DegenerateError(f"unsupported matrix dimension {d}")


def inv_batched(j):
    """Inverse of a (d, d, N) stack via the adjugate, d in {2, 3}."""
    d = j.shape[0]
    det = det_batched(j)
    if np.any(~np.isfinite(det)) or np.any(np.abs(det) < 1e-300):
        raise DegenerateError("singular Jacobian in batch")
    out = np.empty_like(j)
    if d == 2:
        out[0, 0] = j[1, 1]
        out[0, 1] = -j[0, 1]
        out[1, 0] = -j[1, 0]
        out[1, 1] = j[0, 0]
        return out / det
    if d == 3:
        out[0, 0] = j[1, 1] * j[2, 2] - j[1, 2] * j[2, 1]
        out[0, 1] = j[0, 2] * j[2, 1] - j[0, 1] * j[2, 2]
        out[0, 2] = j[0, 1] * j[1, 2] - j[0, 2] * j[1, 1]
        out[1, 0] = j[1, 2] * j[2, 0] - j[1, 0] * j[2, 2]
        out[1, 1] = j[0, 0] * j[2, 2] - j[0, 2] * j[2, 0]
        out[1, 2] = j[0, 2] * j[1, 0] - j[0, 0] * j[1, 2]
        out[2, 0] = j[1, 0] * j[2, 1] - j[1, 1] * j[2, 0]
        out[2, 1] = j[0, 1] * j[2, 0] - j[0, 0] * j[2, 1]
        out[2, 2] = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        return out / det
    raise DegenerateError(f"unsupported matrix dimension {d}")


# ---------------------------------------------------------------------------
# finite differences (4th-order central)
# ---------------------------------------------------------------------------

#: The 5-point stencil on offsets (-2h, -h, 0, +h, +2h):
#: f' ~ FD4_D1 . f / h and f'' ~ FD4_D2 . f / h^2, both 4th order.
FD4_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
FD4_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
FD4_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def fd4_directional(f, pts, axis, step):
    """(d/dp_axis) f at pts via the FD4_D1 stencil.

    ``f`` maps (din, N) -> array whose last axis is N; the step is taken
    per point as step * max(1, |p_axis|).  The centre, whose weight is
    zero, is not evaluated.
    """
    h = step * np.maximum(1.0, np.abs(pts[axis]))
    taps = FD4_D1 != 0.0
    shifted = []
    for k in FD4_OFFSETS[taps]:
        q = pts.copy()
        q[axis] = q[axis] + k * h
        shifted.append(f(q))
    return np.tensordot(FD4_D1[taps], np.stack(shifted), axes=(0, 0)) / h


def fd4_jacobian(f, pts, step):
    """Full Jacobian (dout, din, N) of f: (din, N) -> (dout, N) by FD4."""
    cols = [fd4_directional(f, pts, a, step) for a in range(pts.shape[0])]
    return np.stack(cols, axis=1)
