"""Smooth test-function families: derivatives, supports, rescaling."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from boxproj.quadrature import tile_points
from boxproj.testfunctions import (
    Bump,
    Gaussian,
    Monomial,
    bump,
    finite_difference,
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

    def test_no_effective_box(self):
        assert monomial((1, 1)).effective_box() is None

    def test_rescale_unsupported(self):
        with pytest.raises(Exception):
            monomial((2,)).rescale(0.5)


def _reference(f, beta, x):
    """D^beta f as whole-array expressions over the (n, d) points: the
    squares summed across each row, pow for every monomial exponent."""
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
            out = out * math.perm(ej, bj) * pts[:, j] ** (ej - bj)
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

    def test_result_does_not_alias_points(self):
        x = tile_points(np.array([[0.25, 0.5]]), np.array([[0, 0], [1, 2]]))
        out = monomial((1, 0)).value(x)
        out[:] = -7.0
        assert x[:, 0].tolist() == [0.25, 1.25]

    @pytest.mark.parametrize("f", [monomial((1, 1)), gaussian(2), bump(2)],
                             ids=lambda f: f.tag)
    @pytest.mark.parametrize("beta", [(1,), (1, 0, 0), (0, 0, 1), ()])
    def test_wrong_length_multi_index_rejected(self, f, beta):
        with pytest.raises(ValueError, match="dimension"):
            f.derivative(beta, np.ones((3, 2)))
