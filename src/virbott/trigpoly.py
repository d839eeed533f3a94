"""Trigonometric polynomials on the circle and the classical boundary pairings.

A trigonometric polynomial

    p(theta) = sum_{k=-N}^{N} c_k e^{i k theta}
             = c0 + sum_{n=1}^{N} a_n cos(n theta) + b_n sin(n theta)

is stored as one read-only complex vector ``coeffs`` = (c_{-N}, ..., c_N),
trimmed so that N is the degree, and a flag ``real``.  A real polynomial
has c_{-k} = conj(c_k) exactly and evaluates to floats; a complex one makes
the basis e^{i n theta} available (e.g. ``TrigPoly.exp_harmonic(n)``).
The cos/sin coefficients a_n = c_n + c_{-n} and b_n = i (c_n - c_{-n}) are
derived, trimmed, read-only views (``cos_coeffs``, ``sin_coeffs``).  All
operations are coefficient-exact (no sampling, no aliasing): a sum pads
and adds the vectors, the derivative multiplies c_k by i k, a product
convolves the vectors, and an integral over a period reads off c_0.
Every degree is capped at ``MAX_HARMONIC``: building a polynomial or
taking a product past it raises ``HarmonicCapError`` instead of aliasing.

The module also carries the bracket and the two classical pairings of
boundary vector fields v(theta) d/dtheta, each field given by its
component v, a TrigPoly:

* ``circle_bracket(v, w)`` -- v w' - w v', every product p q' skipped
  (the zero polynomial with its flag) when a factor is zero;
* ``gelfand_fuchs(v, w)`` -- (1 / 24 pi i) * integral of v' w'' ;
* ``heisenberg_cocycle(v, w)`` -- integral of v' w .
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError, HarmonicCapError

#: The largest degree a polynomial, and so a product, may have.
MAX_HARMONIC = 256

_TWO_PI = 2.0 * math.pi


def _read_only_trimmed(arr: np.ndarray) -> np.ndarray:
    """``arr`` without its exactly-zero trailing entries, read-only."""
    nz = np.flatnonzero(arr)
    arr = arr[: nz[-1] + 1 if nz.size else 0]
    arr.flags.writeable = False
    return arr


class TrigPoly:
    """Immutable trigonometric polynomial on [0, 2 pi).

    Parameters
    ----------
    constant : scalar
        The mean value c0.
    cos_coeffs, sin_coeffs : sequence of scalars
        Coefficients a_n, b_n for n = 1, 2, ...; trailing zeros are trimmed.
        The polynomial is complex if any of the data is.  A degree past
        ``MAX_HARMONIC`` raises :class:`HarmonicCapError`.
    """

    __slots__ = ("coeffs", "real", "degree")

    def __init__(self, constant=0.0, cos_coeffs=(), sin_coeffs=()):
        a = np.asarray(cos_coeffs).ravel()
        b = np.asarray(sin_coeffs).ravel()
        real = not (isinstance(constant, complex) or a.dtype.kind == "c"
                    or b.dtype.kind == "c")
        n = max(a.size, b.size)
        c = np.zeros(2 * n + 1, np.complex128)
        c[n] = constant
        if n:
            ab = np.zeros((2, n), np.complex128)
            ab[0, : a.size] = a
            ab[1, : b.size] = b
            c[n + 1:] = (ab[0] - 1j * ab[1]) / 2.0       # c_1 .. c_n
            c[n - 1::-1] = (ab[0] + 1j * ab[1]) / 2.0    # c_{-1} .. c_{-n}
        self._set(c, real)

    def _set(self, c: np.ndarray, real: bool):
        """Store the vector ``c`` (odd length, centred on c_0), trimmed to
        the first and last nonzero harmonic."""
        nz = c.nonzero()[0]
        mid = len(c) // 2
        degree = max(mid - int(nz[0]), int(nz[-1]) - mid) if nz.size else 0
        if degree > MAX_HARMONIC:
            raise HarmonicCapError(
                f"degree {degree} exceeds the cap {MAX_HARMONIC}")
        c = c[mid - degree: mid + degree + 1]
        c.flags.writeable = False
        self.coeffs = c
        self.real = real
        self.degree = degree

    @classmethod
    def _from_vector(cls, c: np.ndarray, real: bool):
        p = cls.__new__(cls)
        p._set(c, real)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(0.0)

    @classmethod
    def exp_harmonic(cls, n: int, c=1.0):
        """c * e^{i n theta} for any integer n (complex coefficients)."""
        return cls.from_exp_coeffs({n: complex(c)})

    @classmethod
    def from_exp_coeffs(cls, coeffs: dict):
        """Build from {k: c_k} with p = sum c_k e^{i k theta}."""
        if not coeffs:
            return cls(0.0)
        N = max(abs(k) for k in coeffs)
        c = np.zeros(2 * N + 1, np.complex128)
        for k, ck in coeffs.items():
            c[N + k] += ck
        return cls._from_vector(c, False)

    # -- basic queries -----------------------------------------------------

    @property
    def constant(self):
        """The mean value c0: a float when the polynomial is real."""
        c0 = self.coeffs[self.degree]
        return float(c0.real) if self.real else complex(c0)

    def _cos_sin(self):
        """Untrimmed (a_n, b_n), n = 1..N, read off the vector; real arrays
        for a real polynomial."""
        N = self.degree
        pos = self.coeffs[N + 1:]
        if self.real:
            return 2.0 * pos.real, -2.0 * pos.imag
        neg = self.coeffs[:N][::-1]
        return pos + neg, 1j * (pos - neg)

    @property
    def cos_coeffs(self) -> np.ndarray:
        """a_n for n = 1, 2, ..., trailing zeros trimmed (read-only)."""
        return _read_only_trimmed(self._cos_sin()[0])

    @property
    def sin_coeffs(self) -> np.ndarray:
        """b_n for n = 1, 2, ..., trailing zeros trimmed (read-only)."""
        return _read_only_trimmed(self._cos_sin()[1])

    def exp_coeffs(self) -> dict:
        """Exponential-basis coefficients {k: c_k} of the nonzero entries,
        ordered 0, 1, -1, 2, -2, ..."""
        N = self.degree
        out = {}
        for k in [0] + [s * n for n in range(1, N + 1) for s in (1, -1)]:
            ck = complex(self.coeffs[N + k])
            if ck != 0:
                out[k] = ck
        return out

    def coeff_l1(self) -> float:
        """|c0| + sum_n |a_n| + |b_n|, a bound on max |p| over the circle."""
        return (abs(self.constant) + float(np.sum(np.abs(self.cos_coeffs)))
                + float(np.sum(np.abs(self.sin_coeffs))))

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, so polynomials that compare equal,
        # real or complex, hash alike
        return hash((self.coeffs + 0.0).tobytes())

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
                      dtype=np.float64 if self.real else np.complex128)
        N = self.degree
        if N:
            a, b = self._cos_sin()
            ang = np.multiply.outer(th, np.arange(1, N + 1))   # (..., N)
            out = out + np.cos(ang) @ a + np.sin(ang) @ b
        return out[0] if scalar else out

    # -- arithmetic (thin wrappers over the module ops) --------------------

    def _combine(self, other, op):
        """self op other for op one of operator.iadd, operator.isub."""
        if isinstance(other, (int, float, complex)):
            other = TrigPoly(other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        N = max(self.degree, other.degree)
        c = np.zeros(2 * N + 1, np.complex128)
        c[N - self.degree: N + self.degree + 1] = self.coeffs
        op(c[N - other.degree: N + other.degree + 1], other.coeffs)
        return TrigPoly._from_vector(c, self.real and other.real)

    def __add__(self, other):
        return self._combine(other, operator.iadd)

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly._from_vector(-self.coeffs, self.real)

    def __sub__(self, other):
        return self._combine(other, operator.isub)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return TrigPoly._from_vector(
                self.coeffs * other,
                self.real and not isinstance(other, complex))
        if isinstance(other, TrigPoly):
            return tp_multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__


class TrigStack:
    """Real polynomials p_1..p_T and their first two derivatives, evaluated
    together on one cos/sin table.

    The derivative coefficients are laid out once, at construction.  A call
    takes one cos and one sin per angle, builds cos(k theta), sin(k theta)
    up to the largest degree by angle addition, and reads every requested
    derivative of every polynomial off that table by one matrix product.
    """

    __slots__ = ("size", "degree", "_const", "_coef")

    def __init__(self, polys):
        polys = tuple(polys)
        if any(not p.real for p in polys):
            raise DomainError("TrigStack evaluates real polynomials only")
        self.size = len(polys)
        self.degree = D = max((p.degree for p in polys), default=0)
        k = np.arange(1, D + 1)
        a = np.zeros((self.size, D))
        b = np.zeros((self.size, D))
        for i, p in enumerate(polys):
            a[i, : p.degree], b[i, : p.degree] = p._cos_sin()
        self._const = np.array([p.constant for p in polys])
        # derivative orders 0, 1, 2 against the table rows cos | sin:
        # d/dtheta sends (a, b) to (k b, -k a)
        self._coef = np.stack([np.concatenate(pair, axis=1) for pair in (
            (a, b), (k * b, -k * a), (-k * k * a, -k * k * b))])

    def __call__(self, theta, orders=(0, 1, 2)):
        """Array (len(orders), T, *theta.shape) holding d^n p_i / dtheta^n
        for each derivative order n of ``orders`` (each 0, 1 or 2)."""
        th = np.asarray(theta, dtype=np.float64)
        flat = th.ravel()
        orders = list(orders)
        D = self.degree
        shape = (len(orders), self.size, flat.size)
        if D:
            # rows cos(k theta) then sin(k theta), k = 1..D, by angle addition
            table = np.empty((2 * D, flat.size))
            cos, sin = table[:D], table[D:]
            cos[0], sin[0] = np.cos(flat), np.sin(flat)
            for k in range(1, D):
                cos[k] = cos[k - 1] * cos[0] - sin[k - 1] * sin[0]
                sin[k] = sin[k - 1] * cos[0] + cos[k - 1] * sin[0]
            out = (self._coef[orders].reshape(-1, 2 * D) @ table).reshape(shape)
        else:
            out = np.zeros(shape)
        if 0 in orders:
            out[orders.index(0)] += self._const[:, None]
        return out.reshape((len(orders), self.size) + th.shape)


# -- core operations -------------------------------------------------------

def tp_derivative(p: TrigPoly) -> TrigPoly:
    """d/dtheta, exact on coefficients: c_k -> i k c_k."""
    k = np.arange(-p.degree, p.degree + 1)
    return TrigPoly._from_vector(p.coeffs * (1j * k), p.real)


def _check_product_degree(p: TrigPoly, q: TrigPoly):
    """Raise HarmonicCapError if p q would pass ``MAX_HARMONIC``."""
    if p.degree + q.degree > MAX_HARMONIC:
        raise HarmonicCapError(f"product degree {p.degree + q.degree} "
                               f"exceeds the cap {MAX_HARMONIC}")


def tp_multiply(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Exact product by convolution in the exponential basis.

    Raises
    ------
    HarmonicCapError
        If deg p + deg q exceeds ``MAX_HARMONIC``.
    """
    _check_product_degree(p, q)
    c = np.convolve(p.coeffs, q.coeffs)
    real = p.real and q.real
    if real:
        # c_k and c_{-k} are summed in different orders; averaging c_k with
        # conj(c_{-k}) restores the exact symmetry of a real polynomial
        c = 0.5 * (c + c[::-1].conj())
    return TrigPoly._from_vector(c, real)


def tp_integrate_period(p: TrigPoly):
    """integral over [0, 2 pi]; only the constant term survives."""
    return _TWO_PI * p.constant


def tp_integrate_product(p: TrigPoly, q: TrigPoly):
    """tp_integrate_period(tp_multiply(p, q)), reading the product's constant
    term off the convolution without building the product."""
    _check_product_degree(p, q)
    c0 = np.convolve(p.coeffs, q.coeffs)[p.degree + q.degree]
    return _TWO_PI * (float(c0.real) if p.real and q.real else complex(c0))


def _is_zero_poly(p: TrigPoly) -> bool:
    return p.degree == 0 and p.constant == 0


def _times_derivative(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """p q'.  With an identically-zero factor neither q' nor the product
    is formed: the result is the zero polynomial with the product's flag,
    which is what ``tp_multiply`` returns there, bit for bit.  A zero factor
    has degree 0, so the product is within the cap."""
    if _is_zero_poly(p) or _is_zero_poly(q):
        return TrigPoly._from_vector(np.zeros(1, np.complex128),
                                     p.real and q.real)
    return tp_multiply(p, tp_derivative(q))


def circle_bracket(v: TrigPoly, w: TrigPoly) -> TrigPoly:
    """Lie bracket of circle fields: [v d, w d] = (v w' - w v') d/dtheta."""
    return _times_derivative(v, w) - _times_derivative(w, v)


def gelfand_fuchs(v: TrigPoly, w: TrigPoly) -> complex:
    """(1 / 24 pi i) * integral over a period of v' w''.

    With v = e^{i theta} d/dtheta and w = e^{-i theta} d/dtheta this equals
    -1/12 exactly.
    """
    integral = tp_integrate_product(tp_derivative(v),
                                    tp_derivative(tp_derivative(w)))
    return complex(integral) / (24.0 * math.pi * 1j)


def heisenberg_cocycle(v: TrigPoly, w: TrigPoly):
    """integral over a period of v' w  (the loop-group/Heisenberg pairing)."""
    return tp_integrate_product(tp_derivative(v), w)
