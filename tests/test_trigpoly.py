"""Tests for the trigonometric-polynomial layer.

The sympy oracles below integrate the defining expressions symbolically and
are the source of every frozen constant asserted here.
"""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from virbott.errors import DomainError, HarmonicCapError
from virbott.trigpoly import (
    TrigPoly,
    TrigStack,
    circle_bracket,
    gelfand_fuchs,
    heisenberg_cocycle,
    tp_derivative,
    tp_integrate_period,
    tp_integrate_product,
    tp_multiply,
)

TH = sp.symbols("theta", real=True)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def sympy_expr(p: TrigPoly):
    """Exact sympy expression for a TrigPoly."""
    expr = sp.nsimplify(p.constant, rational=False)
    expr = sp.sympify(p.constant)
    for n in range(1, p.degree + 1):
        if n <= len(p.cos_coeffs):
            expr += sp.sympify(complex(p.cos_coeffs[n - 1])) * sp.cos(n * TH)
        if n <= len(p.sin_coeffs):
            expr += sp.sympify(complex(p.sin_coeffs[n - 1])) * sp.sin(n * TH)
    return sp.expand(expr)


def oracle_period_integral(expr):
    return complex(sp.integrate(expr, (TH, 0, 2 * sp.pi)))


def oracle_gelfand_fuchs(vexpr, wexpr):
    integrand = sp.diff(vexpr, TH) * sp.diff(wexpr, TH, 2)
    return complex(sp.integrate(integrand, (TH, 0, 2 * sp.pi)) / (24 * sp.pi * sp.I))


def oracle_heisenberg(vexpr, wexpr):
    return complex(sp.integrate(sp.diff(vexpr, TH) * wexpr, (TH, 0, 2 * sp.pi)))


# a small pool of deterministic sample polynomials used in several tests
SAMPLES = [
    TrigPoly(1.0),
    TrigPoly(0.5, [1.0, 0.0, -0.25], [0.0, 2.0]),
    TrigPoly(-2.0, [0.0, 0.75], [1.5]),
    TrigPoly.exp_harmonic(2, 1.0 + 0.5j),
    TrigPoly(0.0, [0.3], [0.1, 0.0, 0.4]),
]

coeffs = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False),
    min_size=0, max_size=3,
)
polys = st.builds(
    TrigPoly,
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    coeffs,
    coeffs,
)


# ----------------------------------------------------------------------
# representation and evaluation
# ----------------------------------------------------------------------

def test_trailing_zeros_trimmed():
    p = TrigPoly(1.0, [0.5, 0.0, 0.0], [0.0, 0.0])
    assert p.degree == 1
    assert len(p.cos_coeffs) == 1
    assert len(p.sin_coeffs) == 0


def test_evaluate_matches_direct_formula():
    p = TrigPoly(0.5, [1.0, -0.25], [2.0])
    th = np.linspace(0, 2 * math.pi, 17)
    expected = 0.5 + 1.0 * np.cos(th) - 0.25 * np.cos(2 * th) + 2.0 * np.sin(th)
    assert np.allclose(p(th), expected, atol=1e-14, rtol=0)


def test_exp_harmonic_is_complex_exponential():
    th = np.linspace(0, 2 * math.pi, 13)
    for n in (-3, -1, 1, 2):
        p = TrigPoly.exp_harmonic(n)
        assert np.allclose(p(th), np.exp(1j * n * th), atol=1e-14)


def test_exp_coeffs_round_trip():
    for p in SAMPLES:
        q = TrigPoly.from_exp_coeffs(p.exp_coeffs())
        th = np.linspace(0.1, 6.0, 11)
        assert np.allclose(p(th), q(th), atol=1e-13)


def test_periodicity():
    p = SAMPLES[1]
    th = np.linspace(0, 2 * math.pi, 9)
    assert np.allclose(p(th), p(th + 2 * math.pi), atol=1e-12)


def test_real_inputs_stay_real():
    p = SAMPLES[1]
    q = SAMPLES[2]
    prod = tp_multiply(p, q)
    assert prod.real
    assert tp_derivative(p).real
    assert isinstance(tp_integrate_period(p), float)


# ----------------------------------------------------------------------
# derivative / product / integral against the sympy oracle
# ----------------------------------------------------------------------

def test_derivative_exact_vs_sympy():
    for p in SAMPLES:
        d = tp_derivative(p)
        dexpr = sp.diff(sympy_expr(p), TH)
        f = sp.lambdify(TH, dexpr, "numpy")
        th = np.linspace(0.0, 2 * math.pi, 23)
        assert np.allclose(d(th), np.asarray(f(th), dtype=complex), atol=1e-12)


def test_product_exact_vs_pointwise():
    for p in SAMPLES:
        for q in SAMPLES:
            prod = tp_multiply(p, q)
            th = np.linspace(0.0, 2 * math.pi, 29)
            assert np.allclose(prod(th), p(th) * q(th), atol=1e-12), (p, q)


def test_integral_vs_sympy():
    for p in SAMPLES[:3]:
        val = tp_integrate_period(p)
        assert abs(val - oracle_period_integral(sympy_expr(p))) < 1e-12


def test_integral_of_derivative_vanishes():
    for p in SAMPLES:
        assert tp_integrate_period(tp_derivative(p)) == 0


def test_integrate_product_reads_the_product_constant():
    # the same convolution entry, so the two routes agree bit for bit
    for p in SAMPLES:
        for q in SAMPLES:
            direct = tp_integrate_product(p, q)
            via_product = tp_integrate_period(tp_multiply(p, q))
            assert type(direct) is type(via_product), (p, q)
            assert direct == via_product, (p, q)
    p = TrigPoly(0.0, [0.0] * 129 + [1.0])
    with pytest.raises(HarmonicCapError):
        tp_integrate_product(p, TrigPoly(0.0, [0.0] * 127 + [1.0]))


def test_arithmetic_keeps_coefficients_read_only():
    p, q = SAMPLES[1], SAMPLES[2]
    for r in (p + q, p - q, -p, 2.0 * p, tp_derivative(p), tp_multiply(p, q),
              p - p, TrigPoly.zero()):
        assert r.degree == max(len(r.cos_coeffs), len(r.sin_coeffs))
        for arr in (r.cos_coeffs, r.sin_coeffs):
            assert not arr.flags.writeable
    assert (p - p).degree == 0
    coeffs = np.array([1.0, 2.0])
    kept = TrigPoly(0.0, coeffs)
    coeffs[0] = 5.0  # the polynomial holds its own copy
    assert kept.cos_coeffs[0] == 1.0


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_product_rule(p, q):
    lhs = tp_derivative(tp_multiply(p, q))
    rhs = tp_multiply(tp_derivative(p), q) + tp_multiply(p, tp_derivative(q))
    th = np.linspace(0.0, 2 * math.pi, 17)
    assert np.allclose(lhs(th), rhs(th), atol=1e-10)


def test_harmonic_cap_enforced():
    # cos 130 theta times cos 127 theta has degree 257, one past the cap
    p = TrigPoly(0.0, [0.0] * 129 + [1.0])
    q = TrigPoly(0.0, [0.0] * 126 + [1.0])
    with pytest.raises(HarmonicCapError):
        tp_multiply(p, q)
    with pytest.raises(HarmonicCapError):
        TrigPoly(0.0, [0.0] * 299 + [1.0], ())
    with pytest.raises(HarmonicCapError):
        TrigPoly.from_exp_coeffs({-257: 1.0})


def test_cap_allows_products_within_bound():
    p = TrigPoly(0.0, [0.0] * 99 + [1.0])        # cos 100 theta
    q = TrigPoly(0.0, (), [0.0] * 155 + [1.0])   # sin 156 theta
    assert tp_multiply(p, q).degree == 256  # right at the cap


# ----------------------------------------------------------------------
# circle bracket
# ----------------------------------------------------------------------

def test_bracket_value():
    # [cos d, sin d] = (cos * cos - (-sin) * sin) d = 1 * d
    v = TrigPoly(0.0, [1.0])
    w = TrigPoly(0.0, (), [1.0])
    b = circle_bracket(v, w)
    assert b == TrigPoly(1.0)


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry(p, q):
    b1 = circle_bracket(p, q)
    b2 = circle_bracket(q, p)
    th = np.linspace(0.0, 2 * math.pi, 17)
    assert np.allclose(b1(th), -b2(th), atol=1e-10)


def test_bracket_jacobi_on_exponentials():
    # exact check on the e^{i n theta} basis, |n| <= 3
    fields = {n: TrigPoly.exp_harmonic(n) for n in range(-3, 4)}
    th = np.linspace(0.0, 2 * math.pi, 19)
    for n in (-3, -1, 2):
        for m in (0, 1, 3):
            for k in (-2, 1):
                u, v, w = fields[n], fields[m], fields[k]
                total = (
                    circle_bracket(u, circle_bracket(v, w))(th)
                    + circle_bracket(v, circle_bracket(w, u))(th)
                    + circle_bracket(w, circle_bracket(u, v))(th)
                )
                assert np.max(np.abs(total)) < 1e-10


def test_bracket_on_exponential_basis_structure():
    # [e^{in}, e^{im}] d: (e^{in})(im e^{im}) - (in e^{in})(e^{im})
    #                    = i(m - n) e^{i(n+m)}
    for n in (-2, 1, 3):
        for m in (-1, 0, 2):
            b = circle_bracket(TrigPoly.exp_harmonic(n),
                               TrigPoly.exp_harmonic(m))
            expected = TrigPoly.exp_harmonic(n + m, 1j * (m - n))
            th = np.linspace(0.0, 2 * math.pi, 15)
            assert np.allclose(b(th), expected(th), atol=1e-12)


# ----------------------------------------------------------------------
# Gelfand-Fuchs pairing
# ----------------------------------------------------------------------

def test_gelfand_fuchs_reference_value():
    # frozen: GF(e^{i th} d, e^{-i th} d) = -1/12 exactly
    v = TrigPoly.exp_harmonic(1)
    w = TrigPoly.exp_harmonic(-1)
    assert abs(gelfand_fuchs(v, w) - (-1.0 / 12.0)) < 1e-15


def test_gelfand_fuchs_exponential_table():
    # oracle closed form: GF(e^{in}, e^{im}) = -(n m^2 / 12) delta_{n+m,0}
    #                   = -n^3/12 at m = -n   (sympy-verified below)
    for n in range(-4, 5):
        for m in range(-4, 5):
            v = TrigPoly.exp_harmonic(n)
            w = TrigPoly.exp_harmonic(m)
            got = gelfand_fuchs(v, w)
            expected = (-n ** 3 / 12.0) if n + m == 0 else 0.0
            assert abs(got - expected) < 1e-13, (n, m)


def test_gelfand_fuchs_vs_sympy_oracle():
    pairs = [(SAMPLES[1], SAMPLES[2]), (SAMPLES[2], SAMPLES[4])]
    for vp, wp in pairs:
        got = gelfand_fuchs(vp, wp)
        want = oracle_gelfand_fuchs(sympy_expr(vp), sympy_expr(wp))
        assert abs(got - want) < 1e-12


def test_gelfand_fuchs_cocycle_identity():
    # GF([u,v],w) + GF([v,w],u) + GF([w,u],v) = 0 on the exponential basis
    for n, m, k in [(1, -1, 0), (2, -1, -1), (3, -2, 1), (-3, 2, 2)]:
        u = TrigPoly.exp_harmonic(n)
        v = TrigPoly.exp_harmonic(m)
        w = TrigPoly.exp_harmonic(k)
        total = (
            gelfand_fuchs(circle_bracket(u, v), w)
            + gelfand_fuchs(circle_bracket(v, w), u)
            + gelfand_fuchs(circle_bracket(w, u), v)
        )
        assert abs(total) < 1e-12


# ----------------------------------------------------------------------
# Heisenberg pairing
# ----------------------------------------------------------------------

def test_heisenberg_reference_value():
    # frozen: integral of (cos)' sin = -integral sin^2 = -pi
    v = TrigPoly(0.0, [1.0])
    w = TrigPoly(0.0, (), [1.0])
    assert abs(heisenberg_cocycle(v, w) - (-math.pi)) < 1e-14


def test_heisenberg_vs_sympy_oracle():
    pairs = [(SAMPLES[1], SAMPLES[2]), (SAMPLES[4], SAMPLES[1])]
    for vp, wp in pairs:
        got = heisenberg_cocycle(vp, wp)
        want = oracle_heisenberg(sympy_expr(vp), sympy_expr(wp))
        assert abs(got - want) < 1e-12


@given(polys, polys)
@settings(max_examples=30, deadline=None)
def test_heisenberg_antisymmetry(p, q):
    a = heisenberg_cocycle(p, q)
    b = heisenberg_cocycle(q, p)
    assert abs(a + b) < 1e-10


# ----------------------------------------------------------------------
# the exp-basis vector behind the cos/sin views
# ----------------------------------------------------------------------

def test_equal_polynomials_hash_alike():
    # a real and a complex copy, and a signed zero, compare equal
    pairs = [(TrigPoly(1.0, [0.5]), TrigPoly(1.0 + 0j, [0.5 + 0j])),
             (TrigPoly(0.0, [-0.0, 1.0]), TrigPoly(0.0, [0.0, 1.0]))]
    for p, q in pairs:
        assert p == q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1


def test_constructor_cos_sin_data_come_back_bit_exact():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal(6), rng.standard_normal(4)
    p = TrigPoly(0.25, a, b)
    assert p.cos_coeffs.tobytes() == a.tobytes()
    assert p.sin_coeffs.tobytes() == b.tobytes()
    # complex data come back exactly when (a -+ i b) / 2 round exactly,
    # as they do for these dyadic entries
    a = np.array([0.5 + 0.25j, -1.0 + 0.0j, 3.0j])
    b = np.array([0.75j, 1.5 - 0.5j])
    q = TrigPoly(1.0j, a, b)
    assert q.cos_coeffs.dtype == np.complex128
    assert np.array_equal(q.cos_coeffs, a)
    assert np.array_equal(q.sin_coeffs, b)
    assert q.constant == 1.0j


def test_real_flag_follows_the_arithmetic():
    p = SAMPLES[1]
    th = np.linspace(0.0, 2 * math.pi, 7)
    assert not (p * 1j).real
    assert (p * 1j)(th).dtype == np.complex128
    for r in (p * 2.0, 2.0 * p, -p, tp_derivative(p), p + 1, p - p):
        assert r.real
        assert isinstance(r.constant, float)
        assert r(th).dtype == np.float64


def test_product_vector_is_the_convolution():
    # the vector c_{-N}..c_N of a product is np.convolve of the operands'
    # vectors; these coefficients are dyadic, so the convolution is exact
    dyadic = SAMPLES[:4]
    for p in dyadic:
        for q in dyadic:
            conv = np.convolve(p.coeffs, q.coeffs)
            mid = p.degree + q.degree
            want = {k: complex(conv[mid + k]) for k in range(-mid, mid + 1)
                    if conv[mid + k] != 0}
            got = tp_multiply(p, q).exp_coeffs()
            assert got == want, (p, q)
            assert len(tp_multiply(p, q).coeffs) == len(conv)


# ----------------------------------------------------------------------
# one shared cos/sin table for values and derivatives
# ----------------------------------------------------------------------

@pytest.mark.parametrize("degree", [0, 1, 5, 12])
def test_trig_stack_matches_separate_evaluations(degree):
    rng = np.random.default_rng(29 + degree)
    polys = [TrigPoly(rng.normal(), rng.normal(size=degree),
                      rng.normal(size=degree)) for _ in range(2)]
    polys.append(TrigPoly(0.5))            # a lower degree in the same stack
    theta = rng.uniform(-7.0, 13.0, size=(3, 41))
    stack = TrigStack(polys)
    table = stack(theta)
    assert table.shape == (3, 3, 3, 41)
    for i, p in enumerate(polys):
        dp = tp_derivative(p)
        for order, q in enumerate((p, dp, tp_derivative(dp))):
            # angle addition loses about k eps at harmonic k, and the
            # n-th derivative scales harmonic k by k^n
            tol = 4e-16 * (degree + 1) ** (order + 1) * (p.coeff_l1() + 1)
            assert np.max(np.abs(table[order, i] - q(theta))) <= tol
    # any subset of the orders, in any order, reads the same rows (up to
    # the summation order of the matrix product)
    part = stack(theta, (2, 0))
    assert np.allclose(part, table[[2, 0]], rtol=1e-14, atol=1e-14)
    assert stack(0.3, (1,)).shape == (1, 3)


def test_trig_stack_refuses_complex_polynomials():
    with pytest.raises(DomainError, match="real polynomials only"):
        TrigStack([TrigPoly.exp_harmonic(1)])
