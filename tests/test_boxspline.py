"""Evaluator and Fourier-transform tests.

The univariate evaluator is checked against scipy's B-spline basis (an
entirely separate recurrence); the transform derivatives are checked
against sympy symbolic differentiation at regular rational frequencies.
"""

import itertools
import math

import numpy as np
import pytest
import sympy
from scipy.interpolate import BSpline

from boxproj import (
    BoxSplineEvaluator,
    DirectionSet,
    fourier_transform,
    preset,
    transform_derivative,
    transform_derivatives,
)
from boxproj.boxspline import sinc_factor, sinc_factor_derivative
from boxproj.checks import integral_identity_check
from boxproj.checks import _leibniz_transform_derivative
from boxproj.lattice import multi_indices, nonorthogonal_directions, product_derivative

THREE_D = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


class TestSincFactor:
    def test_special_values(self):
        assert abs(sinc_factor(np.array([0.0])) - 1.0) < 1e-15
        val = sinc_factor(np.array([0.5]))
        assert abs(val - (-2j / np.pi)) < 1e-14

    def test_integer_zeros(self):
        t = np.array([1.0, -1.0, 2.0, 3.0, -5.0])
        assert np.abs(sinc_factor(t)).max() < 1e-14

    def test_series_direct_seam(self):
        # both branches agree in a band around the switch threshold
        t = np.concatenate([np.linspace(1e-4, 5e-3, 40),
                            -np.linspace(1e-4, 5e-3, 40)])
        direct = (1 - np.exp(-2j * np.pi * t)) / (2j * np.pi * t)
        assert np.abs(sinc_factor(t) - direct).max() < 1e-13

    def test_derivative_at_zero(self):
        for k in range(1, 7):
            expect = (-2j * np.pi) ** k / (k + 1)
            got = sinc_factor_derivative(k, np.array([0.0]))
            assert abs(got - expect) < 1e-13 * abs(expect)

    def test_derivative_matches_finite_difference(self):
        t = np.array([0.3, 0.7, 1.0, 2.4, -1.3, 0.001])
        h = 1e-5
        for k in range(1, 4):
            lower = lambda s: sinc_factor_derivative(k - 1, s) if k > 1 else sinc_factor(s)
            fd = (lower(t + h) - lower(t - h)) / (2 * h)
            # central-difference truncation grows with k; precision is
            # covered by the mpmath moment oracle below
            assert np.abs(sinc_factor_derivative(k, t) - fd).max() < 1e-7

    # 2.5 and 3.0 raised TypeError from range, and True ran as order 1
    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_order_must_be_nonnegative_integer(self, k):
        with pytest.raises(ValueError, match="^derivative order must be a nonnegative integer"):
            sinc_factor_derivative(k, np.array([0.3]))


class TestFourierTransform:
    def test_normalization(self):
        for name in ("haar", "bspline(3)", "courant", "zp"):
            V = preset(name)
            assert abs(fourier_transform(V, np.zeros(V.dimension)) - 1.0) < 1e-14

    def test_hat_half_frequency(self):
        V = preset("bspline(2)")
        val = fourier_transform(V, np.array([0.5]))
        assert abs(val - (-4 / np.pi ** 2)) < 1e-14

    def test_integer_lattice_zeros(self):
        for name in ("bspline(2)", "courant", "zp"):
            V = preset(name)
            for alpha in ([1] * V.dimension, [2] + [0] * (V.dimension - 1)):
                assert abs(fourier_transform(V, np.array(alpha, dtype=float))) < 1e-14

    def test_conjugate_symmetry(self):
        V = preset("courant")
        xi = np.array([0.37, -0.22])
        a = fourier_transform(V, xi)
        b = fourier_transform(V, -xi)
        assert abs(a - np.conj(b)) < 1e-14

    @pytest.mark.parametrize("xi", [np.zeros((2, 3)), np.zeros(3)], ids=["points", "point"])
    def test_frequencies_of_another_dimension_rejected(self, xi):
        # numpy's matmul message leaked
        with pytest.raises(ValueError, match="^points of dimension 3, not 2"):
            fourier_transform(preset("courant"), xi)


class TestTransformDerivative:
    def test_structural_zero_below_active_count(self):
        V = preset("courant")
        # alpha=(1,0) is non-orthogonal to two directions; any first
        # derivative of the double zero still vanishes
        val = transform_derivative(V, (1, 0), (1, 0))
        assert val == 0

    def test_two_routes_random_frequencies(self):
        V = preset("courant")
        for beta in multi_indices(2, 2):
            for alpha in ((1, 0), (0, 1), (1, -1), (2, 1), (-1, 2)):
                a = transform_derivative(V, beta, alpha)
                b = _leibniz_transform_derivative(V, beta, alpha)
                assert abs(a - b) < 1e-12

    def test_frozen_symbolic_limits(self):
        # symbolic limits of d^beta [g(x) g(y) g(x+y)] at lattice points,
        # resolved once with sympy and frozen here
        V = preset("courant")
        frozen = {
            ((1, 1), (1, 0)): 1.0,
            ((2, 0), (1, 0)): 2.0,
            ((1, 1), (1, 1)): 0.0,
            ((0, 2), (0, 1)): 2.0,
        }
        for (beta, alpha), want in frozen.items():
            for route in (transform_derivative, _leibniz_transform_derivative):
                got = route(V, beta, alpha)
                assert abs(got - want) < 1e-12, (beta, alpha, route.__name__)

    def test_moments_against_mpmath(self):
        import mpmath as mp
        mp.mp.dps = 30
        from boxproj.boxspline import _moments
        for t in (0.45, 0.5, 0.55, 1.0, 2.3):
            ms = _moments(6, np.array([t]))
            for k in range(7):
                want = complex(mp.quad(
                    lambda u: u ** k * mp.e ** (-2j * mp.pi * u * t), [0, 1]))
                assert abs(complex(ms[k][0]) - want) < 1e-13, (k, t)


class TestTransformDerivatives:
    SETS = ("haar", "bspline(2)", "bspline(3)", "tensor(1,1)", "tensor(2,2)", "courant",
            "courant2", "3d")

    @pytest.mark.parametrize("name", SETS)
    def test_batched_equals_scalar_auto(self, name):
        # a critical beta (closed forms and structural zeros) and a
        # super-critical one (rows with fewer active directions than |beta|
        # take the Leibniz expansion)
        V = THREE_D if name == "3d" else preset(name)
        d, k = V.dimension, V.margin + 1
        freqs = np.array([a for a in itertools.product(range(-6, 7), repeat=d) if any(a)])
        active = np.array([sum(np.dot(a, v) != 0 for v in V.vectors) for a in freqs])
        for order in (k, k + 1):
            beta = next(multi_indices(d, order))
            got = transform_derivatives(V, beta, freqs)
            want = [transform_derivative(V, beta, tuple(a)) for a in freqs]
            assert np.array_equal(got, want)
            # each route of the rule is exercised with nonzero values
            closed, leibniz = active == order, active < order
            assert np.any(got[closed if order == k else leibniz] != 0)

    SMOOTH = ("bspline(2)", "bspline(3)", "tensor(2,2)", "courant", "courant2")

    @staticmethod
    def _critical_cases(name):
        """(V, beta, rows) for every critical beta of the preset, on the
        series rows k alpha (k = +-1, 2, 7, 2000) and on a shuffled
        radius-6 cube."""
        V = preset(name)
        d, k = V.dimension, V.margin + 1
        mults = np.array([1, 2, 7, 2000, -1, -2, -7, -2000])
        lines = np.concatenate([np.multiply.outer(mults, cls.alpha) for cls in V.classes])
        cube = np.array([a for a in itertools.product(range(-6, 7), repeat=d) if any(a)])
        cube = cube[np.random.default_rng(25).permutation(len(cube))]
        return [(V, beta, rows) for beta in multi_indices(d, k) for rows in (lines, cube)]

    @pytest.mark.parametrize("name", SMOOTH)
    def test_closed_form_is_the_complex_division(self, name):
        # a row with exactly |beta| active directions weighs
        # complex(c) / d_1 / d_2 ... (the d_i its integer dots with the
        # active directions, c the product derivative), bit for bit in the
        # real part; a row with more is exactly 0
        for V, beta, rows in self._critical_cases(name):
            got = transform_derivatives(V, beta, rows)
            groups = {}
            for r, freq in enumerate(rows):
                groups.setdefault(nonorthogonal_directions(V, freq), []).append(r)
            for active, members in groups.items():
                if len(active) > sum(beta):
                    assert np.all(got[members] == 0)
                    continue
                c = product_derivative(beta, [V[i] for i in active])
                want = np.full(len(members), complex(c))
                for i in active:
                    want = want / (rows[members] @ np.array(V[i]))
                assert np.array_equal(got[members].real, want.real), (name, beta, active)

    @pytest.mark.parametrize("name", SMOOTH)
    def test_shuffling_rows_permutes_the_weights(self, name):
        perm = np.random.default_rng(7).permutation
        for V, beta, rows in self._critical_cases(name):
            got = transform_derivatives(V, beta, rows)
            p = perm(len(rows))
            shuffled = transform_derivatives(V, beta, rows[p])
            assert np.array_equal(shuffled.view(float), got[p].view(float))

    def test_rejects_bad_frequencies(self):
        V = preset("courant")
        for freqs in ([[0, 0], [1, 0]], [[0.5, 1.0]], [1, 0], [[1, 0, 0]]):
            with pytest.raises(ValueError):
                transform_derivatives(V, (1, 1), freqs)


class TestEvaluatorUnivariate:
    def test_hat_frozen_values(self):
        B = BoxSplineEvaluator(preset("bspline(2)"))
        x = np.array([-0.1, 0.0, 0.5, 1.0, 1.5, 2.0, 2.3])
        want = np.array([0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0])
        assert np.abs(B(x[:, None]) - want).max() < 5e-9

    def test_quadratic_frozen_values(self):
        B = BoxSplineEvaluator(preset("bspline(3)"))
        x = np.array([0.5, 1.0, 1.5, 2.5])
        want = np.array([1 / 8, 1 / 2, 3 / 4, 1 / 8])
        assert np.abs(B(x[:, None]) - want).max() < 5e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_scipy_bspline(self, n):
        B = BoxSplineEvaluator(preset(f"bspline({n})"))
        ref = BSpline.basis_element(np.arange(n + 1.0), extrapolate=False)
        x = np.linspace(-0.5, n + 0.5, 277)
        mine = B(x[:, None])
        theirs = np.nan_to_num(ref(x), nan=0.0)
        assert np.abs(mine - theirs).max() < 5e-9


class TestEvaluatorCourant:
    def setup_method(self):
        self.B = BoxSplineEvaluator(preset("courant"))

    def test_frozen_vertex_and_midpoints(self):
        pts = np.array([
            [1.0, 1.0],    # center vertex
            [0.5, 0.5],    # midpoint of an incident diagonal edge
            [1.5, 1.5],
            [1.0, 0.5],    # midpoint of an incident vertical edge
            [1.5, 1.0],
            [1.5, 0.5],    # midpoint of a non-incident mesh edge
            [2.5, 1.0],    # outside the support
            [-0.2, 0.3],
        ])
        want = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0])
        assert np.abs(self.B(pts) - want).max() < 5e-9

    def test_partition_of_unity(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(40, 2))
        total = np.zeros(40)
        for i in range(-2, 2):
            for j in range(-2, 2):
                total += self.B(X - np.array([i, j], dtype=float))
        assert np.abs(total - 1.0).max() < 1e-10

    def test_linear_precision(self):
        # center of the direction sum is (1, 1)
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(25, 2))
        acc = np.zeros((25, 2))
        for i in range(-3, 4):
            for j in range(-3, 4):
                sh = np.array([i, j], dtype=float)
                acc += np.outer(self.B(X - sh), sh)
        assert np.abs(acc - (X - 1.0)).max() < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 3, size=(400, 2))
        assert self.B(X).min() > -1e-12


class TestEvaluatorZp:
    def test_partition_of_unity(self):
        B = BoxSplineEvaluator(preset("zp"))
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, size=(15, 2))
        total = np.zeros(15)
        for i in range(-2, 3):
            for j in range(-2, 3):
                total += B(X - np.array([i, j], dtype=float))
        assert np.abs(total - 1.0).max() < 1e-9

    def test_supported_inside_zonotope_box(self):
        B = BoxSplineEvaluator(preset("zp"))
        pts = np.array([[3.1, 1.0], [-0.1, 0.0], [1.0, 2.2], [1.0, -1.2]])
        assert np.abs(B(pts)).max() < 1e-12


class TestDefiningIdentity:
    def test_haar_exact(self):
        lhs, rhs = integral_identity_check(preset("haar"), lambda X: X[:, 0] ** 2)
        assert abs(lhs - 1 / 3) < 1e-14
        assert abs(rhs - 1 / 3) < 1e-14

    def test_hat_exact(self):
        lhs, rhs = integral_identity_check(preset("bspline(2)"), lambda X: X[:, 0] ** 2)
        assert abs(lhs - 7 / 6) < 1e-13
        assert abs(rhs - 7 / 6) < 1e-13

    def test_courant_polynomial(self):
        f = lambda X: X[:, 0] * X[:, 1]
        lhs, rhs = integral_identity_check(preset("courant"), f)
        assert abs(lhs - rhs) < 1e-12
