"""Trigonometric polynomials on the circle and the classical boundary pairings.

A trigonometric polynomial

    p(theta) = c0 + sum_{n=1}^{N} a_n cos(n theta) + b_n sin(n theta)

is stored by its coefficient arrays.  Coefficients may be real or complex;
complex coefficients make the basis e^{i n theta} available (e.g.
``TrigPoly.exp_harmonic(n)``).  All operations are coefficient-exact (no
sampling, no aliasing): products are computed by convolution in the
exponential basis, integrals over a period read off the constant term.

The module also carries the two classical pairings of boundary vector
fields v(theta) d/dtheta used downstream:

* ``gelfand_fuchs(v, w)`` -- (1 / 24 pi i) * integral of v' w'' ;
* ``heisenberg_cocycle(v, w)`` -- integral of v' w .
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import HarmonicCapError

#: Operations refuse to build coefficient arrays longer than this unless the
#: operands carry a more permissive cap of their own.
DEFAULT_MAX_HARMONIC = 256

_TWO_PI = 2.0 * math.pi


def _as_coeff_array(arr: np.ndarray, dtype) -> np.ndarray:
    """A read-only 1-D copy of ``arr`` as ``dtype``, with exactly-zero
    trailing harmonics dropped so degree() is meaningful."""
    if arr.size == 0:
        return _EMPTY[dtype]
    arr = arr.reshape(1).astype(dtype) if arr.ndim == 0 else arr.astype(dtype)
    nz = arr.nonzero()[0]
    if not nz.size:
        return _EMPTY[dtype]
    arr = arr[: nz[-1] + 1]
    arr.flags.writeable = False
    return arr


_EMPTY = {dtype: np.zeros(0, dtype) for dtype in (np.float64, np.complex128)}
for _empty in _EMPTY.values():
    _empty.flags.writeable = False


class TrigPoly:
    """Immutable trigonometric polynomial on [0, 2 pi).

    Parameters
    ----------
    constant : scalar
        The mean value c0.
    cos_coeffs, sin_coeffs : sequence of scalars
        Coefficients a_n, b_n for n = 1, 2, ...; trailing zeros are trimmed.
    max_harmonic : int
        Cap on the harmonic content this polynomial (and products built from
        it) may carry.  Products whose exact degree would exceed the cap
        raise :class:`HarmonicCapError` instead of aliasing.
    """

    __slots__ = ("constant", "cos_coeffs", "sin_coeffs", "max_harmonic",
                 "degree")

    def __init__(self, constant=0.0, cos_coeffs=(), sin_coeffs=(),
                 max_harmonic: int = DEFAULT_MAX_HARMONIC):
        cos_coeffs = np.asarray(cos_coeffs)
        sin_coeffs = np.asarray(sin_coeffs)
        force_complex = (isinstance(constant, complex)
                         or cos_coeffs.dtype.kind == "c"
                         or sin_coeffs.dtype.kind == "c")
        dtype = np.complex128 if force_complex else np.float64
        cos_arr = _as_coeff_array(cos_coeffs, dtype)
        sin_arr = _as_coeff_array(sin_coeffs, dtype)
        constant = complex(constant) if force_complex else float(constant)
        degree = max(len(cos_arr), len(sin_arr))
        if degree > max_harmonic:
            raise HarmonicCapError(
                f"degree {degree} exceeds max_harmonic={max_harmonic}")
        self.constant = constant
        self.cos_coeffs = cos_arr
        self.sin_coeffs = sin_arr
        self.max_harmonic = int(max_harmonic)
        self.degree = degree

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(0.0)

    @classmethod
    def const(cls, c):
        return cls(c)

    @classmethod
    def harmonic_cos(cls, n: int, a=1.0, max_harmonic: int = DEFAULT_MAX_HARMONIC):
        """a * cos(n theta), n >= 1."""
        if n < 1:
            raise ValueError("harmonic index must be >= 1")
        coeffs = [0.0] * n
        coeffs[n - 1] = a
        return cls(0.0, coeffs, (), max_harmonic=max_harmonic)

    @classmethod
    def harmonic_sin(cls, n: int, b=1.0, max_harmonic: int = DEFAULT_MAX_HARMONIC):
        """b * sin(n theta), n >= 1."""
        if n < 1:
            raise ValueError("harmonic index must be >= 1")
        coeffs = [0.0] * n
        coeffs[n - 1] = b
        return cls(0.0, (), coeffs, max_harmonic=max_harmonic)

    @classmethod
    def exp_harmonic(cls, n: int, c=1.0):
        """c * e^{i n theta} for any integer n (complex coefficients)."""
        c = complex(c)
        if n == 0:
            return cls(c)
        m = abs(n)
        cos_coeffs = [0j] * m
        sin_coeffs = [0j] * m
        cos_coeffs[m - 1] = c
        sin_coeffs[m - 1] = 1j * c if n > 0 else -1j * c
        return cls(0j, cos_coeffs, sin_coeffs)

    @classmethod
    def from_exp_coeffs(cls, coeffs: dict, max_harmonic: int = DEFAULT_MAX_HARMONIC):
        """Build from {k: c_k} with p = sum c_k e^{i k theta}."""
        if not coeffs:
            return cls(0.0, max_harmonic=max_harmonic)
        N = max(abs(k) for k in coeffs)
        const = complex(coeffs.get(0, 0.0))
        a = [0j] * N
        b = [0j] * N
        for k, c in coeffs.items():
            if k == 0:
                continue
            m = abs(k)
            a[m - 1] += c
            b[m - 1] += 1j * c if k > 0 else -1j * c
        return cls(const, a, b, max_harmonic=max_harmonic)

    # -- basic queries -----------------------------------------------------

    @property
    def is_complex(self) -> bool:
        return isinstance(self.constant, complex)

    def exp_coeffs(self) -> dict:
        """Exponential-basis coefficients {k: c_k}, exact from the stored data:
        c_k = (a_k - i b_k)/2 and c_{-k} = (a_k + i b_k)/2 for k >= 1."""
        out = {}
        if self.constant != 0:
            out[0] = complex(self.constant)
        for n in range(1, self.degree + 1):
            a = complex(self.cos_coeffs[n - 1]) if n <= len(self.cos_coeffs) else 0j
            b = complex(self.sin_coeffs[n - 1]) if n <= len(self.sin_coeffs) else 0j
            cp = (a - 1j * b) / 2.0
            cm = (a + 1j * b) / 2.0
            if cp != 0:
                out[n] = cp
            if cm != 0:
                out[-n] = cm
        return out

    def coeff_l1(self) -> float:
        """|c0| + sum_n |a_n| + |b_n|, a bound on max |p| over the circle."""
        return (abs(self.constant) + float(np.sum(np.abs(self.cos_coeffs)))
                + float(np.sum(np.abs(self.sin_coeffs))))

    def signature(self) -> tuple:
        """Hashable exact fingerprint (used for cache keys)."""
        return ("trigpoly", complex(self.constant),
                self.cos_coeffs.tobytes(), self.sin_coeffs.tobytes(),
                len(self.cos_coeffs), len(self.sin_coeffs))

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return (complex(self.constant) == complex(other.constant)
                and np.array_equal(self.cos_coeffs, other.cos_coeffs)
                and np.array_equal(self.sin_coeffs, other.sin_coeffs))

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return (f"TrigPoly(constant={self.constant!r}, "
                f"cos={list(self.cos_coeffs)!r}, sin={list(self.sin_coeffs)!r})")

    # -- evaluation --------------------------------------------------------

    def __call__(self, theta):
        """Evaluate at theta (scalar or ndarray)."""
        theta = np.asarray(theta, dtype=np.float64)
        scalar = theta.ndim == 0
        th = np.atleast_1d(theta)
        out = np.full(th.shape, self.constant,
                      dtype=np.complex128 if self.is_complex else np.float64)
        N = self.degree
        if N:
            n = np.arange(1, N + 1)
            ang = np.multiply.outer(th, n)          # (..., N)
            a = np.zeros(N, dtype=out.dtype)
            a[: len(self.cos_coeffs)] = self.cos_coeffs
            b = np.zeros(N, dtype=out.dtype)
            b[: len(self.sin_coeffs)] = self.sin_coeffs
            out = out + np.cos(ang) @ a + np.sin(ang) @ b
        return out[0] if scalar else out

    # -- arithmetic (thin wrappers over the module ops) --------------------

    def _combine(self, other, op):
        """self op other for op one of operator.iadd, operator.isub."""
        if isinstance(other, (int, float, complex)):
            other = TrigPoly(other, max_harmonic=self.max_harmonic)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        N = max(self.degree, other.degree)
        dtype = (np.complex128 if self.is_complex or other.is_complex
                 else np.float64)
        a = np.zeros(N, dtype)
        b = np.zeros(N, dtype)
        a[: len(self.cos_coeffs)] += self.cos_coeffs
        b[: len(self.sin_coeffs)] += self.sin_coeffs
        op(a[: len(other.cos_coeffs)], other.cos_coeffs)
        op(b[: len(other.sin_coeffs)], other.sin_coeffs)
        const = op(self.constant, other.constant)
        cap = min(self.max_harmonic, other.max_harmonic)
        return TrigPoly(const, a, b, max_harmonic=cap)

    def __add__(self, other):
        return self._combine(other, operator.iadd)

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly(-self.constant, -np.asarray(self.cos_coeffs),
                        -np.asarray(self.sin_coeffs), max_harmonic=self.max_harmonic)

    def __sub__(self, other):
        return self._combine(other, operator.isub)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return TrigPoly(other * self.constant,
                            other * np.asarray(self.cos_coeffs),
                            other * np.asarray(self.sin_coeffs),
                            max_harmonic=self.max_harmonic)
        if isinstance(other, TrigPoly):
            return tp_multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__


def _exp_vector(p: TrigPoly, N: int):
    """Coefficient vector c_k, k = -N..N (length 2N+1), exponential basis."""
    c = np.zeros(2 * N + 1, np.complex128)
    c[N] = p.constant
    D = p.degree
    if D:
        a = np.zeros(D, np.complex128)
        b = np.zeros(D, np.complex128)
        a[: len(p.cos_coeffs)] = p.cos_coeffs
        b[: len(p.sin_coeffs)] = p.sin_coeffs
        c[N + 1: N + D + 1] = (a - 1j * b) / 2.0
        c[N - D: N] = ((a + 1j * b) / 2.0)[::-1]
    return c


def _from_exp_vector(c, is_complex: bool, cap: int) -> TrigPoly:
    N = (len(c) - 1) // 2
    const = c[N]
    a = c[N + 1:] + c[N - 1::-1][: N]            # c_n + c_{-n}
    b = 1j * (c[N + 1:] - c[N - 1::-1][: N])     # i (c_n - c_{-n})
    if not is_complex:
        return TrigPoly(const.real, a.real, b.real, max_harmonic=cap)
    return TrigPoly(const, a, b, max_harmonic=cap)


# -- core operations -------------------------------------------------------

def tp_derivative(p: TrigPoly) -> TrigPoly:
    """d/dtheta, exact on coefficients:  a_n cos -> -n a_n sin, etc."""
    N = p.degree
    if N == 0:
        return TrigPoly(0.0, max_harmonic=p.max_harmonic)
    n = np.arange(1, N + 1)
    a = np.zeros(N, p.cos_coeffs.dtype)
    b = np.zeros(N, p.sin_coeffs.dtype)
    a[: len(p.cos_coeffs)] = p.cos_coeffs
    b[: len(p.sin_coeffs)] = p.sin_coeffs
    zero = 0j if p.is_complex else 0.0
    return TrigPoly(zero, n * b, -n * a, max_harmonic=p.max_harmonic)


def _product_exp_vector(p: TrigPoly, q: TrigPoly):
    """Exponential-basis coefficients of p q and the product's harmonic cap."""
    cap = min(p.max_harmonic, q.max_harmonic)
    if p.degree + q.degree > cap:
        raise HarmonicCapError(
            f"product degree {p.degree + q.degree} exceeds cap {cap}")
    Np, Nq = p.degree, q.degree
    cp = _exp_vector(p, Np) if Np else np.array([complex(p.constant)])
    cq = _exp_vector(q, Nq) if Nq else np.array([complex(q.constant)])
    return np.convolve(cp, cq), cap


def tp_multiply(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Exact product by convolution in the exponential basis.

    Raises
    ------
    HarmonicCapError
        If deg p + deg q exceeds the (smaller) cap of the operands.
    """
    conv, cap = _product_exp_vector(p, q)
    return _from_exp_vector(conv, p.is_complex or q.is_complex, cap)


def tp_integrate_period(p: TrigPoly):
    """integral over [0, 2 pi]; only the constant term survives."""
    return _TWO_PI * p.constant


def tp_integrate_product(p: TrigPoly, q: TrigPoly):
    """tp_integrate_period(tp_multiply(p, q)), reading the product's constant
    term off the convolution without building the product."""
    conv, _ = _product_exp_vector(p, q)
    const = conv[(len(conv) - 1) // 2]
    if p.is_complex or q.is_complex:
        return _TWO_PI * complex(const)
    return _TWO_PI * float(const.real)


class CircleField:
    """Vector field v(theta) d/dtheta on the circle, v a TrigPoly."""

    __slots__ = ("component",)

    def __init__(self, component: TrigPoly):
        if not isinstance(component, TrigPoly):
            component = TrigPoly(component)
        self.component = component

    def __call__(self, theta):
        return self.component(theta)

    def __eq__(self, other):
        if not isinstance(other, CircleField):
            return NotImplemented
        return self.component == other.component

    def __repr__(self):
        return f"CircleField({self.component!r})"


def _field_component(v) -> TrigPoly:
    return v.component if isinstance(v, CircleField) else v


def circle_bracket(v, w) -> CircleField:
    """Lie bracket of circle fields: [v d, w d] = (v w' - v' w) d/dtheta."""
    vp = _field_component(v)
    wp = _field_component(w)
    comp = tp_multiply(vp, tp_derivative(wp)) - tp_multiply(tp_derivative(vp), wp)
    return CircleField(comp)


def gelfand_fuchs(v, w) -> complex:
    """(1 / 24 pi i) * integral over a period of v' w''.

    With v = e^{i theta} d/dtheta and w = e^{-i theta} d/dtheta this equals
    -1/12 exactly.
    """
    vp = tp_derivative(_field_component(v))
    wpp = tp_derivative(tp_derivative(_field_component(w)))
    integral = tp_integrate_product(vp, wpp)
    return complex(integral) / (24.0 * math.pi * 1j)


def heisenberg_cocycle(v, w):
    """integral over a period of v' w  (the loop-group/Heisenberg pairing)."""
    vp = tp_derivative(_field_component(v))
    return tp_integrate_product(vp, _field_component(w))
