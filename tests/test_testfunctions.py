"""Smooth test-function families: derivatives, supports, rescaling."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from boxproj.checks import finite_difference
from boxproj.quadrature import box_batches, tile_points
from boxproj.testfunctions import (
    Bump,
    Gaussian,
    Monomial,
    bump,
    gaussian,
    monomial,
)


class TestGaussian:
    def test_value(self):
        f = gaussian(2, 1.0)
        x = np.array([[0.0, 0.0], [1.0, 2.0]])
        want = np.exp(-np.pi * np.array([0.0, 5.0]))
        assert np.abs(f.value(x) - want).max() < 1e-15

    def test_derivatives_match_finite_differences(self):
        f = gaussian(2, 1.3)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.5, 1.5, size=(12, 2))
        for beta in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1)):
            exact = np.asarray(f.derivative(beta, pts))
            approx = np.array([finite_difference(f, beta, p) for p in pts])
            assert np.abs(exact - approx).max() < 1e-6, beta

    def test_second_derivative_closed_form(self):
        f = gaussian(1, 1.0)
        t = np.array([[0.3], [0.9], [-1.2]])
        want = (4 * np.pi ** 2 * t[:, 0] ** 2 - 2 * np.pi) * np.exp(-np.pi * t[:, 0] ** 2)
        assert np.abs(f.derivative((2,), t) - want).max() < 1e-12

    def test_effective_box_contains_mass(self):
        f = gaussian(2, 0.8)
        lo, hi = f.effective_box()
        assert (lo < 0).all() and (hi > 0).all()
        corners = np.array([[lo[0], lo[1]], [hi[0], hi[1]]])
        assert f.value(corners).max() < 1e-12

    def test_rescale_composes_with_dilation(self):
        f = gaussian(2, 1.0)
        g = f.rescale(0.25)
        x = np.array([[0.8, -0.4], [2.0, 1.0]])
        assert np.abs(g.value(x) - f.value(0.25 * x)).max() < 1e-15

    def test_rescale_box_shrinks(self):
        f = gaussian(1, 1.0)
        lo, hi = f.effective_box()
        lo4, hi4 = f.rescale(0.25).effective_box()
        assert abs(hi4[0] - 4 * hi[0]) < 1e-12

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="finite and positive"):
            gaussian(2, scale)


class TestBump:
    def test_compact_support(self):
        f = bump(2, 2.0)
        inside = np.array([[0.0, 0.0], [1.0, 1.0]])
        outside = np.array([[2.1, 0.0], [0.0, -2.5], [3.0, 3.0]])
        assert f.value(inside).min() > 0
        assert np.abs(f.value(outside)).max() == 0.0

    def test_peak_normalization(self):
        f = bump(2, 3.0)
        assert abs(f.value(np.zeros((1, 2)))[0] - 1.0) < 1e-15

    def test_derivatives_match_finite_differences(self):
        f = bump(2, 2.5)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.4, 1.4, size=(10, 2))
        for beta in ((1, 0), (0, 1), (1, 1), (2, 0)):
            exact = np.asarray(f.derivative(beta, pts))
            approx = np.array([finite_difference(f, beta, p) for p in pts])
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(exact - approx).max() < 1e-6 * scale, beta

    def test_effective_box_is_support(self):
        f = bump(2, 2.0)
        lo, hi = f.effective_box()
        assert np.abs(lo + 2.0).max() < 1e-12
        assert np.abs(hi - 2.0).max() < 1e-12

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            bump(2, radius)


class TestMonomial:
    def test_value_and_derivatives_exact(self):
        f = monomial((2, 3))
        pts = np.array([[1.5, -0.5], [2.0, 1.0]])
        assert np.abs(f.value(pts) - pts[:, 0] ** 2 * pts[:, 1] ** 3).max() < 1e-14
        # d^(1,2): 2x * 6y
        want = 2 * pts[:, 0] * 6 * pts[:, 1]
        assert np.abs(f.derivative((1, 2), pts) - want).max() < 1e-14
        # exceeding an exponent annihilates
        assert np.abs(f.derivative((3, 0), pts)).max() == 0.0

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_power_by_products_within_ulps_of_pow(self, k):
        # x^k is the product of k columns, k - 1 roundings; measured on
        # 2e6 uniform and log-normal points the gap to np.power is 1, 2, 3
        # and 3 ulp at k = 3..6, so k - 2 ulp bounds it
        rng = np.random.default_rng(k)
        x = np.concatenate([rng.uniform(-3.2, 3.2, 100_000),
                            rng.lognormal(0.0, 3.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)])
        got = monomial((k,)).value(x[:, None])
        want = np.power(x, k)
        assert np.all(np.isfinite(want)) and np.all(want != 0.0)
        assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= k - 2

    @pytest.mark.parametrize("d", [1, 3])
    def test_value_is_the_order_zero_derivative_bitwise(self, d):
        # value multiplies the columns of the positive exponents kept at
        # construction, on the batches of the point route and at single
        # points; exponent-1 columns alone are still copied
        nodes = np.random.default_rng(d).uniform(0.0, 1.0, size=(6, d))
        axes = [np.arange(-3.0, 3.0)] * d
        zero = (0,) * d
        for e in itertools.product(range(4), repeat=d):
            f = monomial(e)
            for x in box_batches(nodes, axes, 0.35):
                kept = x.copy()
                got = f.value(x)
                assert got.tobytes() == f.derivative(zero, x).tobytes(), e
                assert not np.shares_memory(got, x)
                got[:] = -7.0
                assert x.tobytes() == kept.tobytes()
                for point in [x[0], x[-1]] + ([0.7] if d == 1 else []):
                    got = f.value(point)
                    assert type(got) is float, e
                    assert np.float64(got).tobytes() == np.float64(
                        f.derivative(zero, point)).tobytes(), e

    @pytest.mark.parametrize("e", [(2,), (1, 0), (0, 1, 3)])
    def test_value_rejects_points_of_another_dimension(self, e):
        f = monomial(e)
        for x in (np.ones((4, len(e) + 1)), np.ones(len(e) + 1)):
            with pytest.raises(ValueError, match="dimension"):
                f.value(x)

    def test_no_effective_box(self):
        assert monomial((1, 1)).effective_box() is None

    def test_rescale_unsupported(self):
        with pytest.raises(Exception):
            monomial((2,)).rescale(0.5)


def _reference(f, beta, x):
    """D^beta f as whole-array expressions over the (n, d) points: the
    squares summed across each row, and each monomial factor x^k as the
    left-to-right product of k columns (within k - 2 ulp of pow, see
    `test_power_by_products_within_ulps_of_pow`)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(f, Gaussian):
        out = np.exp(-f._a * np.sum(pts ** 2, axis=1))
        for j, bj in enumerate(beta):
            if bj:
                out = out * P.polyval(pts[:, j], f._factor_poly(bj))
    elif isinstance(f, Bump):
        t = pts / f.radius
        inside = np.all(np.abs(t) < 1.0, axis=1)
        out = np.zeros(len(pts))
        if inside.any():
            ti = t[inside]
            val = np.exp(np.sum(1.0 - 1.0 / (1.0 - ti ** 2), axis=1))
            for j, bj in enumerate(beta):
                if bj:
                    tj = ti[:, j]
                    num = P.polyval(tj, f._numerator_poly(bj))
                    val = val * num / (1.0 - tj ** 2) ** (2 * bj) / f.radius ** bj
            out[inside] = val
    else:
        out = np.ones(len(pts))
        for j, (ej, bj) in enumerate(zip(f.exponents, beta)):
            if bj > ej:
                out = np.zeros(len(pts))
                break
            factor = np.ones(len(pts))
            for _ in range(ej - bj):
                factor = factor * pts[:, j]
            out = out * math.perm(ej, bj) * factor
    return float(out[0]) if np.ndim(x) == 1 else out


def _layouts(d):
    """C-order points, a coordinate-major tiled batch, and single points."""
    rng = np.random.default_rng(10 + d)
    c_order = rng.uniform(-3.2, 3.2, size=(40, d))
    tiled = tile_points(rng.uniform(0.0, 1.0, size=(7, d)), rng.integers(-5, 5, size=(6, d)))
    tiled *= 0.55
    assert tiled.T.flags.c_contiguous
    return [c_order, tiled, c_order[0], c_order[3], tiled[5]]


def _families(d):
    yield gaussian(d, 1.3)
    yield bump(d, 2.5)
    for e in itertools.product(range(4), repeat=d):
        yield monomial(e)


class TestColumnKernels:
    """Every family's values equal the whole-array reference bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_equal_to_reference(self, d):
        layouts = _layouts(d)
        for f in _families(d):
            for beta in itertools.product(range(4), repeat=d):
                for x in layouts:
                    got, want = f.derivative(beta, x), _reference(f, beta, x)
                    if np.ndim(x) == 1:
                        assert type(got) is float
                    else:
                        assert got.shape == (len(x),)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (
                        f.tag, getattr(f, "exponents", None), beta, np.shape(x))

    # measured maxima over these layouts: 47 ulp (gaussian, d = 3) and
    # 123 ulp (bump, d = 3); the gap grows with the size of the exponent,
    # which the product rounds per axis and `value` rounds as one sum
    FACTOR_ULPS = {"gaussian": 64, "bump": 160, "monomial": 0}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_factors_multiply_to_value(self, d):
        for f in _families(d):
            bound = self.FACTOR_ULPS[f.tag] if d > 1 else 0
            for x in _layouts(d):
                pts = np.atleast_2d(x)
                got = f.factor(0, pts[:, 0])
                for j in range(1, d):
                    got = got * f.factor(j, pts[:, j])
                want = np.atleast_1d(f.value(x))
                if bound == 0:
                    assert got.tobytes() == want.tobytes(), (f.tag, getattr(f, "exponents", None))
                    continue
                assert np.array_equal(got == 0.0, want == 0.0)
                ulps = np.abs(got - want) / np.spacing(np.abs(want))
                assert ulps.max() <= bound, (f.tag, ulps.max())

    def test_result_does_not_alias_points(self):
        x = tile_points(np.array([[0.25, 0.5]]), np.array([[0, 0], [1, 2]]))
        out = monomial((1, 0)).value(x)
        out[:] = -7.0
        assert x[:, 0].tolist() == [0.25, 1.25]

    @pytest.mark.parametrize("e", [(1, 0), (0, 1), (1, 1), (1, 2), (3, 0)])
    def test_leading_column_is_read_not_copied(self, e):
        # a lone exponent-1 column is copied, and one that leads a product
        # is read in place: neither changes a bit or hands back the points
        x = tile_points(np.array([[0.25, 0.5]]), np.array([[0, 0], [1, 2]]))
        kept = x.copy()
        f = monomial(e)
        for beta in [(0, 0), (e[0], 0), (0, e[1])]:
            out = f.derivative(beta, x)
            assert out.tobytes() == _reference(f, beta, x).tobytes(), beta
            assert not np.shares_memory(out, x)
            out[:] = -7.0
            assert x.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("f", [monomial((1, 1)), gaussian(2), bump(2)],
                             ids=lambda f: f.tag)
    @pytest.mark.parametrize("beta", [(1,), (1, 0, 0), (0, 0, 1), ()])
    def test_wrong_length_multi_index_rejected(self, f, beta):
        with pytest.raises(ValueError, match="dimension"):
            f.derivative(beta, np.ones((3, 2)))


class TestFactorDerivatives:
    @pytest.mark.parametrize("f", [gaussian(1, 1.3), bump(1, 2.5)], ids=lambda f: f.tag)
    def test_rows_are_the_1d_derivatives_bitwise(self, f):
        # in 1-D, f.derivative((b,), t) is phi^(b)(t) with the same
        # operations in the same order
        t = np.random.default_rng(3).uniform(-3.0, 3.0, size=50)
        rows = f.factor_derivative(0, 4, t)
        assert rows.shape == (5, len(t))
        for b in range(5):
            assert rows[b].tobytes() == f.derivative((b,), t[:, None]).tobytes(), b

    @pytest.mark.parametrize("f", [gaussian(3, 0.9), bump(3, 2.0)], ids=lambda f: f.tag)
    def test_products_are_the_partials(self, f):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.8, 1.8, size=(30, 3))
        rows = [f.factor_derivative(j, 3, pts[:, j]) for j in range(3)]
        for beta in itertools.product(range(4), repeat=3):
            got = rows[0][beta[0]] * rows[1][beta[1]] * rows[2][beta[2]]
            want = f.derivative(beta, pts)
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max()), beta

    def test_monomial_has_none(self):
        assert not hasattr(monomial((1, 2)), "factor_derivative")

    def test_derivative_polynomials_built_once_and_read_only(self):
        f = gaussian(2, 1.1)
        p3 = f._factor_poly(3)
        assert f._factor_poly(3) is p3
        assert Bump._numerator_poly(3) is Bump._numerator_poly(3)
        for poly in (p3, Bump._numerator_poly(3)):
            with pytest.raises(ValueError):
                poly[0] = 1.0

    def test_derivative_polynomials_match_the_recurrence(self):
        # the cached orders are the recurrence run from scratch, bit for bit
        f = gaussian(1, 0.7)
        f._factor_poly(6)
        a = math.pi / 0.7 ** 2
        poly = np.array([1.0])
        for k in range(1, 7):
            poly = P.polysub(P.polyder(poly), 2.0 * a * P.polymulx(poly))
            assert f._factor_poly(k).tobytes() == poly.tobytes(), k
