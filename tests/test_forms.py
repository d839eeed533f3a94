"""Tests for Maurer-Cartan components, wedge traces and quadrature.

Oracles: closed-form integrals for the grids, ``math.fsum`` for the exact
quadrature sum, FD differentiation of the Jacobian for the Maurer-Cartan
components, and full permutation sums for both wedge-trace shortcuts.
"""

import importlib
import itertools
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import virbott
from virbott import forms
from virbott.diffeo import (
    AlexanderRadial,
    BumpProfile,
    DiscDiffeo,
    RadialTwist,
    Rotation,
    cutoff_make,
    disc_compose,
)
from virbott.errors import DimensionError, DomainError, NumericError, SupportError
from virbott.forms import (
    BallGrid,
    DiscGrid,
    _check_edge,
    _fsum_products,
    _gl_nodes,
    _gl_rule,
    eta_closedness_residual,
    integrate_ball,
    integrate_disc,
    mc_components,
    wedge_trace_2form,
    wedge_trace_cube,
)
from virbott.trigpoly import TrigPoly


# ----------------------------------------------------------------------
# grids and integration
# ----------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(DomainError):
        DiscGrid(3, 64)
    with pytest.raises(DomainError):
        DiscGrid(16, 4)
    with pytest.raises(DomainError):
        BallGrid(2, 16)
    with pytest.raises(DomainError):
        BallGrid(8, 16, L=0.5)


@pytest.mark.parametrize("build, named", [
    (lambda: DiscGrid(4.7, 8.9), "'n_r': 4.7"),
    (lambda: DiscGrid(16, 32.0), "'n_theta': 32.0"),
    (lambda: BallGrid(4.5, 4.2), "'n_rho': 4.5"),
    (lambda: BallGrid(8, math.inf), "'n_plane': inf"),
], ids=["disc-both", "disc-integral-float", "ball-both", "ball-inf"])
def test_grids_refuse_non_integral_node_counts(build, named):
    # a count is taken whole or refused, never truncated
    with pytest.raises(DomainError, match=named):
        build()


@pytest.mark.parametrize("L", ["abc", None, "1.5", 1j, math.nan, math.inf,
                               0.5, 10 ** 400],
                         ids=["str", "none", "numeric-str", "complex", "nan",
                              "inf", "too-small", "int-past-float"])
def test_ball_grid_refuses_a_box_half_width_that_is_no_real_number(L):
    # no raw TypeError or OverflowError escapes, and the message names L
    with pytest.raises(DomainError, match=re.escape(f"got L={L!r}")):
        BallGrid(8, 16, L=L)


def test_grids_take_numpy_integer_node_counts():
    grid = DiscGrid(np.int64(8), np.int32(16))
    assert (type(grid.n_r), grid.n_r, grid.n_theta) == (int, 8, 16)
    assert BallGrid(np.int64(4), np.int16(6)).n_plane == 6


def _mp_gauss_legendre(n, dps=40):
    """Gauss-Legendre nodes and weights on (-1, 1) to ``dps`` digits: Newton
    on the three-term recurrence from the Tricomi start, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        tol = mpmath.mpf(10) ** (-dps)
        nodes, weights = [], []
        for i in range(1, n + 1):
            x = mpmath.cos(mpmath.pi * (4 * i - 1) / (4 * n + 2))
            for _ in range(100):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                step = p1 / dp
                x -= step
                if abs(step) < tol:
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        order = sorted(range(n), key=lambda j: nodes[j])
        return [nodes[j] for j in order], [weights[j] for j in order]


@pytest.mark.parametrize("n", [4, 12, 24, 64, 96])
def test_gl_rule_matches_a_40_digit_reference(n):
    nodes, weights = _mp_gauss_legendre(n)
    x, w = _gl_rule(n)
    assert max(abs(float(a - b)) for a, b in zip(nodes, x)) <= 2e-16
    assert max(abs(float(a - b)) for a, b in zip(weights, w)) <= 1e-14


@pytest.mark.parametrize("n", [4, 12, 24, 64, 96])
def test_gl_rule_integrates_every_monomial_up_to_degree_2n_minus_1(n):
    x, w = _gl_rule(n)
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(math.fsum(w * x ** k) - exact) <= 1e-14, k


def test_gl_rule_is_cached_read_only_and_grids_copy_it():
    x, w = _gl_rule(96)
    assert _gl_rule(96)[0] is x and _gl_rule(96)[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    a, b = DiscGrid(96, 256), DiscGrid(96, 256)
    assert np.array_equal(a.r, b.r) and np.array_equal(a.weights, b.weights)
    for grid in (a, b):
        for arr in (grid.r, grid.weights):
            assert not np.shares_memory(arr, x)
            assert not np.shares_memory(arr, w)
    mapped = _gl_nodes(96, -1.0, 1.0)
    assert not any(np.shares_memory(m, c) for m in mapped for c in (x, w))


def loaded_after_import(module, package):
    """Names of ``package`` and its submodules that a fresh interpreter has
    loaded after importing ``module``, as one printed list."""
    src = str(Path(virbott.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_importing_the_cli_loads_no_scipy():
    # virbott's only runtime dependency is numpy
    assert loaded_after_import("virbott.cli", "scipy") == "[]"


def test_forms_sits_below_diffeo():
    # the forms layer works on jets and grids and knows no map type
    loaded = loaded_after_import("virbott.forms", "virbott")
    assert "'virbott.forms'" in loaded
    assert "'virbott.diffeo'" not in loaded


def test_every_exported_name_resolves():
    modules = [virbott] + [importlib.import_module(f"virbott.{info.name}")
                           for info in pkgutil.iter_modules(virbott.__path__)]
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert {m.__name__ for m, _ in exported} >= {
        "virbott", "virbott.cli", "virbott.cocycle", "virbott.liealg"}
    assert [f"{m.__name__}.{name}" for m, name in exported
            if not hasattr(m, name)] == []


def test_disc_quadrature_reference_values():
    grid = DiscGrid(32, 64)
    assert abs(integrate_disc(lambda r, th: np.ones_like(r), grid)
               - math.pi) < 1e-12
    assert abs(integrate_disc(lambda r, th: r ** 2, grid)
               - math.pi / 2.0) < 1e-12
    assert abs(integrate_disc(lambda r, th: np.sin(th), grid)) < 1e-12


def test_disc_quadrature_order_independent():
    grid = DiscGrid(16, 32)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(grid.npts)
    ref = integrate_disc(vals, grid)
    perm = rng.permutation(grid.npts)
    shuffled = math.fsum((vals * grid.weights)[perm].tolist())
    assert shuffled == ref                     # fsum is exactly rounded


def test_disc_quadrature_of_weighted_blocks_equals_the_values():
    # blocks of weighted products, a node left out where its value is 0
    grid = DiscGrid(16, 32)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(grid.npts)
    vals[rng.permutation(grid.npts)[:100]] = 0.0
    moved = np.flatnonzero(vals)
    blocks = (vals[idx] * grid.weights[idx]
              for idx in np.array_split(moved, 7))
    assert integrate_disc(blocks, grid) == integrate_disc(vals, grid)


def test_ball_grid_nodes_are_the_tensor_product():
    grid = BallGrid(5, 7, L=1.25)
    rho, _ = _gl_nodes(5, 0.0, 1.0)
    x, _ = _gl_nodes(7, -1.25, 1.25)
    want = np.stack([g.ravel() for g in np.meshgrid(rho, x, x,
                                                    indexing="ij")])
    assert grid.nodes.shape == (3, 5 * 7 * 7)
    assert np.array_equal(grid.nodes, want)


def test_ball_quadrature_box_volume():
    grid = BallGrid(6, 12, L=1.0)
    vol = integrate_ball(np.ones(grid.npts), grid)
    assert abs(vol - 4.0) < 1e-12              # 1 * (2L)^2 with L = 1


def test_ball_quadrature_separable_gaussian():
    grid = BallGrid(12, 48, L=1.25)
    s2 = 0.02

    def density(rho, x, y):
        return rho * (1 - rho) * np.exp(-(x ** 2 + y ** 2) / s2)

    got = integrate_ball(density, grid)
    want = (1.0 / 6.0) * (math.pi * s2)        # full-line Gaussian, tiny tails
    assert abs(got - want) < 1e-10


def test_ball_support_error():
    grid = BallGrid(6, 16, L=1.25)
    with pytest.raises(SupportError):
        integrate_ball(lambda rho, x, y: np.exp(-(x ** 2 + y ** 2)), grid)


def test_nan_edge_sample_raises_support_error():
    # NaN only on the x = +-L edge, which no quadrature node touches
    grid = BallGrid(4, 8)

    def density(rho, x, y):
        return np.where(np.abs(x) == grid.L, np.nan, 0.0)

    nan_edge = r"integrand reaches the box edge \(nan at rho=\S+ x=1\.25, "
    with pytest.raises(SupportError, match=nan_edge):
        integrate_ball(density, grid)
    # the check behind the Wess-Zumino and plane-box integrals
    edge = grid.edge_points
    with pytest.raises(SupportError, match=nan_edge):
        _check_edge(density(*edge), edge, "integrand", "box")


def test_numeric_error_on_nan():
    grid = DiscGrid(8, 16)
    bad = np.ones(grid.npts)
    bad[3] = np.nan
    with pytest.raises(NumericError):
        integrate_disc(bad, grid)


def assert_sums_like_fsum(blocks):
    """_fsum_products of ``blocks`` equals math.fsum of their values bit
    for bit, the sign of a zero included."""
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
    values = [v for b in blocks for v in b.tolist()]
    assert _fsum_products(iter(blocks)).hex() == math.fsum(values).hex()


# bounded so that no partial sum of fsum's overflows (it raises then)
finite_doubles = st.floats(-1e300, 1e300, allow_nan=False,
                           allow_infinity=False)


@given(st.lists(finite_doubles, max_size=60),
       st.lists(st.integers(0, 60), max_size=4))
@settings(max_examples=300, deadline=None)
def test_exact_sum_equals_fsum_over_random_blocks(values, cuts):
    cuts = sorted(min(c, len(values)) for c in cuts)
    assert_sums_like_fsum(np.split(np.array(values, dtype=np.float64), cuts))


def test_exact_sum_of_subnormals_and_exponent_ends():
    rng = np.random.default_rng(5)
    tiny = rng.integers(-(1 << 40), 1 << 40, 500) * 5e-324
    assert_sums_like_fsum([tiny])
    assert_sums_like_fsum([[5e-324] * 3, [-5e-324]])
    assert_sums_like_fsum([[1.7e308, 5e-324], [-1.7e308]])
    assert_sums_like_fsum([[1.7e308, -5e-324, 1e292], [-1e292]])
    assert_sums_like_fsum([[-1.7e308, 2.2250738585072014e-308, -5e-324]])


def test_exact_sum_cancellation_and_small_streams():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(1000) * np.exp2(rng.integers(-900, 900, 1000))
    both = np.concatenate([x, -x])
    rng.shuffle(both)
    assert_sums_like_fsum(np.array_split(both, 3))      # exactly +0.0
    assert _fsum_products(iter([both])).hex() == "0x0.0p+0"
    assert_sums_like_fsum([[-0.0, -0.0]])
    assert_sums_like_fsum([[1e16, 1.0], [1.0, -1e16], [1.0] * 7])
    assert_sums_like_fsum([[1e16] + [1.0] * 9 + [-1e16, 0.5]])
    assert_sums_like_fsum([])                            # no block at all
    assert_sums_like_fsum([[], []])
    assert_sums_like_fsum([[-3.25e-7]])


def test_exact_sum_across_the_flush_point(monkeypatch):
    # tiny pieces and flushes, so the stream folds its bins many times
    folds = []
    fold = forms._fold

    def counted(hi, lo):
        folds.append(1)
        return fold(hi, lo)

    monkeypatch.setattr(forms, "_PIECE", 3)
    monkeypatch.setattr(forms, "_FLUSH", 7)
    monkeypatch.setattr(forms, "_fold", counted)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(200) * np.exp2(rng.integers(-600, 600, 200))
    x[::17] = 1e16
    assert_sums_like_fsum(np.array_split(x, 11))
    assert len(folds) > 20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_sum_refuses_non_finite_values(bad):
    with pytest.raises(NumericError, match="non-finite values in quadrature"):
        _fsum_products(iter([np.ones(5), np.array([1.0, bad])]))


def test_exact_sum_overflows_as_fsum_does():
    with pytest.raises(OverflowError):
        math.fsum([1.7e308, 1.7e308])
    with pytest.raises(OverflowError):
        _fsum_products(iter([np.array([1.7e308, 1.7e308])]))


# ----------------------------------------------------------------------
# Maurer-Cartan components
# ----------------------------------------------------------------------

def sample_map():
    disp = TrigPoly(0.1, [0.3], [0.2])
    alex = DiscDiffeo.from_link(AlexanderRadial(disp, cutoff_make(0.2, 0.1),
                                                0.8))
    twist = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.3, 0.7, 0.6)))
    return disc_compose(alex, twist)


def test_mc_form_vanishes_for_isometries():
    p = np.array([[0.4], [0.2]])
    for g in (DiscDiffeo.identity(), DiscDiffeo.from_link(Rotation(0.7))):
        comps = mc_components(g.jet(p))
        assert comps.shape == (2, 2, 2, 1)
        assert np.max(np.abs(comps)) < 1e-14


def test_mc_form_matches_fd_of_jacobian():
    g = sample_map()
    pts = np.stack([np.array([0.45, 0.6, 0.3]), np.array([0.2, -0.3, 0.55])])
    jet = g.jet(pts)
    comps = mc_components(jet)
    h = 1e-5
    for b in range(2):
        shift = np.zeros((2, 1))
        shift[b, 0] = h
        Jp = g.jet(pts + shift).j
        Jm = g.jet(pts - shift).j
        Jp2 = g.jet(pts + 2 * shift).j
        Jm2 = g.jet(pts - 2 * shift).j
        dJ = (Jm2 - 8 * Jm + 8 * Jp - Jp2) / (12 * h)
        inv = np.linalg.inv(jet.j.transpose(2, 0, 1)).transpose(1, 2, 0)
        want = np.einsum("jln,lkn->jkn", inv, dJ)
        assert np.max(np.abs(comps[b] - want)) < 1e-9


def test_mc_form_composition_law():
    # theta(g o h) = J(h)^{-1} (theta(g) o h) J(h) + theta(h), pointwise
    g = sample_map()
    h = DiscDiffeo.from_link(RadialTwist(BumpProfile(0.35, 0.8, -0.5)))
    gh = disc_compose(g, h)
    pts = np.stack([np.array([0.5, 0.42, 0.61]), np.array([0.1, -0.35, 0.2])])
    jet_h = h.jet(pts)
    th_h = mc_components(jet_h)
    th_gh = mc_components(gh.jet(pts))
    th_g_at = mc_components(g.jet(h.apply(pts)))
    Jh = jet_h.j
    Jh_inv = np.linalg.inv(Jh.transpose(2, 0, 1)).transpose(1, 2, 0)
    for b in range(2):
        # d-direction b pulls back through J(h): theta_b(gh) =
        #   J(h)^{-1} [ sum_c theta_c(g)|_h (J h)_{cb} ] J(h) + theta_b(h)
        pulled = np.einsum("cjkn,cn->jkn", th_g_at, Jh[:, b])
        want = (np.einsum("jln,lkn,kmn->jmn", Jh_inv, pulled, Jh)
                + th_h[b])
        assert np.max(np.abs(th_gh[b] - want)) < 1e-10


# ----------------------------------------------------------------------
# wedge traces
# ----------------------------------------------------------------------

def random_stack(rng, d):
    """A one-form at one point: a (d, d, d, 1) stack of random matrices."""
    return rng.standard_normal((d, d, d, 1))


def test_wedge2_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_stack(rng, 2)
        b = random_stack(rng, 2)
        assert abs(wedge_trace_2form(a, b)[0]
                   + wedge_trace_2form(b, a)[0]) < 1e-12


def test_wedge_cube_vs_permutation_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = random_stack(rng, 3)
        comps = a[..., 0]
        total = 0.0
        for perm in itertools.permutations(range(3)):
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            total += sign * np.trace(
                comps[perm[0]] @ comps[perm[1]] @ comps[perm[2]])
        assert abs(wedge_trace_cube(a)[0] - total) < 1e-12


def test_wedge_dimension_errors():
    rng = np.random.default_rng(2)
    with pytest.raises(DimensionError):
        wedge_trace_cube(random_stack(rng, 2))
    with pytest.raises(DimensionError):
        wedge_trace_2form(np.zeros((2, 2, 2, 4)), np.zeros((2, 2, 2, 5)))


# ----------------------------------------------------------------------
# closedness of the quartic trace
# ----------------------------------------------------------------------

def test_eta_closedness_tiny():
    assert eta_closedness_residual(2, samples=100, seed=0) < 1e-12
    assert eta_closedness_residual(3, samples=100, seed=1) < 1e-12


def test_eta_closedness_dimension_guard():
    with pytest.raises(DimensionError):
        eta_closedness_residual(4)
