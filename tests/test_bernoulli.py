"""Periodic Bernoulli machinery and the monomial error expansions."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from boxproj import (
    DirectionSet,
    MultiIndex,
    bernoulli,
    boxspline,
    error_expansion,
    hyperplane_classes,
    lattice,
    monomial_error_series,
    multi_indices,
    preset,
    transform_derivative,
)
from boxproj.bernoulli import (
    BernoulliSplineTerm,
    bernoulli_interior_roots,
    bernoulli_l2_norm_sq,
    bernoulli_numbers,
    bernoulli_periodic,
    bernoulli_poly_coeffs,
)
from boxproj.checks import bernoulli_l2_norm_sq_series, periodic_lp_power, ridge_lp_power
from boxproj.quadrature import sample_grid

THREE_D = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


class TestBernoulliBasics:
    def test_number_table(self):
        nums = bernoulli_numbers(12)
        assert nums[0] == 1
        assert nums[1] == Fraction(-1, 2)
        assert nums[2] == Fraction(1, 6)
        assert nums[4] == Fraction(-1, 30)
        assert nums[12] == Fraction(-691, 2730)
        assert all(nums[k] == 0 for k in (3, 5, 7, 9, 11))

    def test_quadratic_coeffs(self):
        # b_2(t) = t^2 - t + 1/6, stored lowest degree first
        assert bernoulli_poly_coeffs(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))

    def test_periodic_values(self):
        assert bernoulli_periodic(1, 0.0) == 0.0
        assert bernoulli_periodic(1, 5.0) == 0.0
        assert abs(bernoulli_periodic(1, 0.25) - 0.25) < 1e-15
        assert abs(bernoulli_periodic(1, 0.75) + 0.25) < 1e-15
        assert abs(bernoulli_periodic(2, 0.0) + 1 / 12) < 1e-15
        assert abs(bernoulli_periodic(2, 0.5) - 1 / 24) < 1e-15

    def test_periodicity_and_vectorization(self):
        t = np.linspace(0.05, 0.95, 19)
        for k in (1, 2, 3):
            a = bernoulli_periodic(k, t)
            b = bernoulli_periodic(k, t + 7.0)
            c = bernoulli_periodic(k, t - 3.0)
            assert np.abs(a - b).max() < 1e-14
            assert np.abs(a - c).max() < 1e-14

    def test_matches_defining_fourier_series(self):
        # B^k(t) = sum_{n != 0} e^{2 pi i n t} / (2 pi i n)^k
        n = np.arange(1, 200001)
        for k, tol in ((1, 1e-5), (2, 1e-10), (3, 1e-14)):
            for t in (0.21, 0.5, 0.83):
                phases = np.exp(2j * np.pi * n * t) / (2j * np.pi * n) ** k
                partial = 2 * phases.sum().real if k != 1 else 2 * np.real(phases.sum())
                assert abs(partial - bernoulli_periodic(k, t)) < tol, (k, t)

    def test_continuity_at_integers_above_degree_one(self):
        eps = 1e-9
        for k in (2, 3, 4):
            left = bernoulli_periodic(k, 1.0 - eps)
            right = bernoulli_periodic(k, 1.0 + eps)
            assert abs(left - right) < 1e-7

    # bernoulli_l2_norm_sq(0) returned -1, a negative squared norm; degree
    # 2.5 raised TypeError from range, and True ran as degree 1
    @pytest.mark.parametrize("k", [0, 2.5, True])
    @pytest.mark.parametrize("call", [bernoulli_l2_norm_sq, lambda k: bernoulli_periodic(k, 0.3)],
                             ids=["l2_norm_sq", "periodic"])
    def test_degree_must_be_positive_integer(self, call, k):
        with pytest.raises(ValueError, match="^degree must be a positive integer"):
            call(k)


class TestParseval:
    def test_closed_form_values(self):
        assert bernoulli_l2_norm_sq(1) == Fraction(1, 12)
        assert bernoulli_l2_norm_sq(2) == Fraction(1, 720)
        assert bernoulli_l2_norm_sq(3) == Fraction(1, 30240)

    def test_closed_form_is_bernoulli_ratio(self):
        for k in (1, 2, 3, 4):
            want = (-1) ** (k - 1) * bernoulli_numbers(2 * k)[2 * k] / math.factorial(2 * k)
            assert bernoulli_l2_norm_sq(k) == want

    def test_series_route(self):
        for k in (1, 2, 3):
            exact = float(bernoulli_l2_norm_sq(k))
            assert abs(bernoulli_l2_norm_sq_series(k) - exact) < 1e-12

    def test_quadrature_route(self):
        from boxproj.quadrature import cell_rule
        pts, wts = cell_rule([0.0], [1.0], (), order=16)
        for k in (1, 2):
            val = float(np.dot(wts, bernoulli_periodic(k, pts[:, 0]) ** 2))
            assert abs(val - float(bernoulli_l2_norm_sq(k))) < 1e-15

    def test_interior_roots(self):
        roots = bernoulli_interior_roots(2)
        want = sorted(((3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6))
        assert np.abs(np.array(roots) - np.array(want)).max() < 1e-12


class TestLpPowers:
    def test_frozen_exact_norms(self):
        # exact values from symbolic integration of |b_2(t)/2| pieces
        assert abs(periodic_lp_power(1, 1.0) - 0.25) < 1e-14
        assert abs(periodic_lp_power(1, 3.0) - 1 / 32) < 1e-14
        assert abs(periodic_lp_power(2, 1.0) - math.sqrt(3) / 54) < 1e-14
        assert abs(periodic_lp_power(2, 3.0) - (1 / 30240 + math.sqrt(3) / 45360)) < 1e-16

    def test_p2_matches_parseval(self):
        for k in (1, 2, 3):
            assert abs(periodic_lp_power(k, 2.0) - float(bernoulli_l2_norm_sq(k))) < 1e-15

    def test_ridge_power_factorizes(self):
        # unit-cell integral of a composed ridge equals the 1-D integral
        V = preset("courant")
        for cls in hyperplane_classes(V):
            term = BernoulliSplineTerm(cls)
            for p in (1.0, 2.0, 3.0):
                a = ridge_lp_power(term, p)
                b = abs(float(cls.scale)) ** p * periodic_lp_power(2, p)
                assert abs(a - b) < 1e-12, (cls.alpha, p)


class TestErrorExpansion:
    def test_haar_first_order(self):
        exp = error_expansion(preset("haar"), (1,))
        x = np.array([[0.1], [0.5], [0.9], [1.3], [-0.2]])
        want = 0.5 - np.mod(x[:, 0], 1.0)
        assert np.abs(exp.evaluate(x) - want).max() < 1e-15

    def test_below_critical_order_is_zero(self):
        exp = error_expansion(preset("courant"), (1, 0))
        x = sample_grid(2, 4)
        assert np.abs(exp.evaluate(x)).max() == 0.0

    @pytest.mark.parametrize("name, beta", [("courant", (1, 0)), ("bspline(3)", (1,))])
    def test_empty_expansion_has_the_points_shape(self, name, beta):
        V = preset(name)
        exp = error_expansion(V, beta)
        assert exp.terms == ()
        many = exp.evaluate(np.zeros((5, V.dimension)))
        assert isinstance(many, np.ndarray) and many.shape == (5,)
        assert not many.any()
        one = exp.evaluate(np.zeros(V.dimension))
        assert type(one) is float and one == 0.0

    def test_single_point_is_float(self):
        exp = error_expansion(preset("courant"), (2, 0))
        x = sample_grid(2, 3)
        one = exp.evaluate(x[4])
        assert type(one) is float and one == exp.evaluate(x)[4]

    def test_courant_frozen_point_values(self):
        # hand-computed: at (1/2, 1/2) the three ridge terms give
        # 1/24 + 1/12 + 1/24 = 1/6; along (1/4, y) the (1,0) ridge of
        # the pure-x index gives 2 * (1/96)
        exp = error_expansion(preset("courant"), (1, 1))
        assert abs(exp.evaluate(np.array([[0.5, 0.5]]))[0] - 1 / 6) < 1e-15
        exp20 = error_expansion(preset("courant"), (2, 0))
        got = exp20.evaluate(np.array([[0.25, 0.13], [0.25, 0.71]]))
        assert np.abs(got - 1 / 48).max() < 1e-15

    def test_periodicity(self):
        exp = error_expansion(preset("courant"), (1, 1))
        x = sample_grid(2, 5)
        shift = np.array([3.0, -2.0])
        assert np.abs(exp.evaluate(x) - exp.evaluate(x + shift)).max() < 1e-12

    def test_over_critical_order_rejected(self):
        with pytest.raises(ValueError):
            error_expansion(preset("courant"), (2, 1))

    def test_zp_rejected(self):
        from boxproj import NonUnimodularError
        with pytest.raises(NonUnimodularError):
            error_expansion(preset("zp"), (3, 0))

    @pytest.mark.parametrize("beta", [(1, 0), (1, 1)])
    @pytest.mark.parametrize("x", [np.zeros((2, 3)), np.zeros(3)], ids=["points", "point"])
    def test_points_of_another_dimension_rejected(self, beta, x):
        # below the critical order courant's empty expansion returned
        # zeros, and at it numpy's matmul message leaked
        with pytest.raises(ValueError, match="^points of dimension 3, not 2"):
            error_expansion(preset("courant"), beta).evaluate(x)


class TestMonomialErrorSeries:
    def test_cube_and_lines_agree(self):
        # the class lines carry every nonzero coefficient of the cube
        V = preset("courant")
        x = sample_grid(2, 4)
        a = _reference_series(V, (1, 1), x, 40, "cube")
        b = monomial_error_series(V, (1, 1), x, 40)
        assert np.abs(a - b).max() < 1e-14

    def test_series_tail_shrinks(self):
        V = preset("courant")
        x = sample_grid(2, 4)
        closed = error_expansion(V, (1, 1)).evaluate(x)
        errs = []
        for radius in (50, 100, 200, 400):
            s = monomial_error_series(V, (1, 1), x, radius).real
            errs.append(np.abs(s - closed).max())
        assert errs[-1] < errs[0] / 8
        assert errs[-1] < 1e-6

    def test_haar_discontinuity_midpoint_value(self):
        # at the jump the symmetric partial sums converge to the average
        V = preset("haar")
        val = monomial_error_series(V, (1,), np.array([[0.0]]), 5000)
        assert abs(val[0]) < 1e-12

    def test_imaginary_part_vanishes(self):
        V = preset("tensor(2,2)")
        x = sample_grid(2, 4)
        s = monomial_error_series(V, (1, 1), x, 100)
        assert np.abs(s.imag).max() < 1e-12

    # values of the series at radius 2000 when the weights came from a
    # complex division per active direction; the weighing changed, the
    # values must not (within 1e-14: progression_sum's matrix product runs
    # on whatever BLAS is installed)
    PINNED_POINTS = ((0.1, 0.2), (0.37, 0.81), (0.5, 0.25), (0.93, 0.06))
    PINNED = {
        ("courant", (2, 0)): (-0.07666667926549951, 0.06643332067570377,
                              0.083333320674518, -0.10156667919874174),
        ("courant2", (4, 0)): (0.025233333333334315, -0.021002276666665754,
                               -0.029166666666665727, 0.029095323333334283),
    }

    @pytest.mark.parametrize("name, beta", list(PINNED))
    def test_pinned_values(self, name, beta):
        want = np.array(self.PINNED[name, beta])
        got = monomial_error_series(preset(name), beta, np.array(self.PINNED_POINTS), 2000)
        scale = np.abs(want).max()
        assert np.abs(got.real - want).max() <= 1e-14 * scale
        assert np.abs(got.imag).max() <= 1e-14 * scale

    SMOOTH = ("bspline(2)", "bspline(3)", "tensor(2,2)", "courant", "courant2")

    @pytest.mark.parametrize("radius", [50, 2000])
    def test_single_point_agrees_with_its_batch(self, radius):
        # one point's fine @ W is a vector product, another BLAS path than
        # a batch's matrix product, so the two may differ in the last bits:
        # measured at most 5.0e-16 of the batch's largest value
        for name in self.SMOOTH:
            V = preset(name)
            x = sample_grid(V.dimension, 5)
            for beta in multi_indices(V.dimension, V.margin + 1):
                batch = monomial_error_series(V, beta, x, radius)
                bound = 2e-15 * np.abs(batch).max()
                for point, want in zip(x, batch):
                    got = monomial_error_series(V, beta, point, radius)
                    assert np.ndim(got) == 0
                    assert abs(got - want) <= bound, (name, beta.exponents, point)

    def test_repeat_calls_are_bitwise_equal(self):
        # the constants kept per set and per class (ridge terms with their
        # float normal and scale, product derivatives) change no bit between
        # a call that builds them and one that reuses them
        for V in [preset(name) for name in self.SMOOTH] + [THREE_D]:
            x = sample_grid(V.dimension, 5)
            runs = []
            for _ in range(2):
                bernoulli._ridge_terms.cache_clear()
                lattice._product_derivative.cache_clear()
                fresh = DirectionSet(V.vectors)
                for _ in range(2):
                    runs.append([a.tobytes() for beta in multi_indices(V.dimension, V.margin + 1)
                                 for a in (error_expansion(fresh, beta).evaluate(x),
                                           monomial_error_series(fresh, beta, x, 300))])
            assert all(run == runs[0] for run in runs), V

    def test_temporaries_stay_small(self):
        # weighing one class at a time keeps a radius-2000 courant2 call's
        # temporaries near 270 KB (1.1 MB as one transform_derivatives call
        # over every class keeping every dot, which the C allocator trims
        # off its heap and faults in again on every call)
        V, pts = preset("courant2"), sample_grid(2, 7)
        monomial_error_series(V, (4, 0), pts, 2000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            monomial_error_series(V, (4, 0), pts, 2000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 640 * 1024


def _reference_series(V, beta, x, radius, mode):
    """The series one frequency at a time: a scalar transform_derivative
    and one exponential per nonzero weight, summed in frequency order."""
    d = V.dimension
    beta = MultiIndex.of(beta)
    if mode == "cube":
        freqs = [a for a in itertools.product(range(-radius, radius + 1), repeat=d) if any(a)]
    else:
        freqs = [tuple(s * a for a in cls.alpha) for cls in hyperplane_classes(V)
                 for k in range(1, radius // max(map(abs, cls.alpha)) + 1) for s in (k, -k)]
    acc = np.zeros(len(x), dtype=complex)
    for freq in freqs:
        w = transform_derivative(V, beta, freq)
        if w != 0.0:
            acc += w * np.exp(2j * np.pi * (x @ np.array(freq, dtype=float)))
    return acc * (1.0 / (2j * np.pi)) ** beta.order


def _exact_progression_sum(t, weights, sign):
    """progression_sum's S + sign conj(S) for each t a multiple of 1/64.

    z^k is then the root of unity exp(2 pi i j / 64), j = 64 t k mod 64,
    with t k exact; the weights of each j are summed by math.fsum and the
    64 sums combined at 30 digits, so the error is fsum's roundings, about
    eps sum |w|."""
    m = np.rint(np.asarray(t) * 64).astype(np.int64)
    assert np.array_equal(m / 64, t)
    k = np.arange(1, len(weights) + 1)
    out = []
    with mpmath.workdps(30):
        roots = [mpmath.expjpi(mpmath.mpf(j) / 32) for j in range(64)]
        for mi in m:
            j = (mi * k) % 64
            S = mpmath.mpc(0)
            for jj in np.unique(j):
                sel = weights[j == jj]
                S += mpmath.mpc(math.fsum(sel.real), math.fsum(sel.imag)) * roots[jj]
            out.append(complex(S + sign * mpmath.conj(S)))
    return np.array(out)


def _term_series(term, x, radius: int):
    """Partial Fourier sum of a ridge term over multiples k alpha with
    |k| <= radius, by the library's progression sum."""
    bernoulli._check_radius(radius)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    dots = pts @ np.array(term.hyperplane.alpha, dtype=float)
    coefs = 1.0 / (bernoulli.TWO_PI_I * np.arange(1, radius + 1)) ** term.degree
    # the weight at -k is conj(coefs), sign +1
    acc = bernoulli.progression_sum(dots, coefs, 1) * float(term.scale)
    return acc[0] if single else acc


@pytest.fixture
def exp_sizes(monkeypatch):
    """Element counts of the arrays passed to np.exp while the test runs."""
    sizes = []
    real = np.exp

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    return sizes


class TestBatchedSeries:
    @pytest.mark.parametrize("name, radius, mode", [
        ("haar", 2000, "lines"), ("bspline(3)", 300, "lines"),
        ("tensor(2,2)", 300, "lines"), ("courant", 300, "lines"),
        ("courant2", 300, "lines"), ("courant", 20, "cube"), ("courant2", 20, "cube"),
        ("tensor(1,1)", 20, "cube"), ("3d", 6, "cube")])
    def test_matches_per_frequency_reference(self, name, radius, mode):
        # mode is the frequency set of the reference: the class lines, or
        # the whole cube
        V = THREE_D if name == "3d" else preset(name)
        x = sample_grid(V.dimension, 5 if V.dimension < 3 else 3)
        for beta in multi_indices(V.dimension, V.margin + 1):
            want = _reference_series(V, beta, x, radius, mode)
            got = monomial_error_series(V, beta, x, radius)
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)

    @pytest.mark.parametrize("name", ["courant", "courant2"])
    @pytest.mark.parametrize("radius", [1, 2, 97, 144, 2000])
    def test_lines_split_matches_reference(self, name, radius):
        # K = 1 and 2 are single-row splits, 97 a prime, 144 = 12^2 fills
        # its (Q, B) table with no padding; radius 2000 is criterion 1's
        V = preset(name)
        x = sample_grid(2, 5)
        betas = list(multi_indices(2, V.margin + 1))
        for beta in betas if radius < 1000 else betas[len(betas) // 2:][:1]:
            want = _reference_series(V, beta, x, radius, "lines")
            got = monomial_error_series(V, beta, x, radius)
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)

    def test_class_beyond_radius_contributes_nothing(self, exp_sizes):
        # (2, 1) puts the class normal (1, -2) on this set; at radius 1 its
        # line holds no frequency, so the sum is the cube over |xi| <= 1
        V = DirectionSet(((1, 0), (2, 1), (1, 1)))
        assert V.is_unimodular and (1, -2) in [cls.alpha for cls in V.classes]
        x = sample_grid(2, 5)
        for beta in multi_indices(2, V.margin + 1):
            want = _reference_series(V, beta, x, 1, "cube")
            assert np.abs(_reference_series(V, beta, x, 1, "lines") - want).max() < 1e-15
            exp_sizes.clear()
            got = monomial_error_series(V, beta, x, 1)
            assert np.abs(got - want).max() < 1e-15
            # one exponential per point and class within the radius
            assert sum(exp_sizes) <= len(x) * (len(V.classes) - 1)

    @pytest.mark.parametrize("name, beta", [("courant", (1, 1)), ("courant2", (2, 2))])
    def test_lines_exponentials_grow_like_root_radius(self, exp_sizes, name, beta):
        # one exponential per point and class, z = exp(2 pi i alpha.x); its
        # powers up to K = 2000 are running products, where one exponential
        # per frequency is 2 npts K
        V = preset(name)
        x = sample_grid(2, 9)
        monomial_error_series(V, beta, x, 2000)
        assert 0 < sum(exp_sizes) <= len(x) * len(V.classes)

    @pytest.mark.parametrize("K", [2000, 10000])
    def test_progression_sum_against_exact_phases(self, K):
        # the running-product tables against exact roots of unity, in units
        # of sum |w|; with z taken at t mod 1 the worst case measured
        # 2.2e-15 (K = 10000, 1/k^2, t = -20), against 1.0e-11 for z =
        # exp(2 pi i t) at integer t, where the rounding of 2 pi t enters
        # z^k k times over and adds up
        t = np.array([-20, -19.984375, -13.015625, -2.5, -0.984375, -0.015625, 0.015625,
                      0.328125, 0.5, 1.234375, 3, 7.75, 12.453125, 19.984375, 20])
        k = np.arange(1, K + 1, dtype=float)
        for degree in (1, 2):
            for weights in (1.0 / k ** degree + 0j, 1j / k ** degree):
                for sign in (1, -1):
                    want = _exact_progression_sum(t, weights, sign)
                    got = bernoulli.progression_sum(t, weights, sign)
                    assert np.abs(got - want).max() <= 4.4e-15 * np.abs(weights).sum(), (
                        degree, weights[0], sign)

    @pytest.mark.parametrize("radius", [-5, 0, 2.5, 3.0, True, "10"])
    def test_radius_must_be_positive_integer(self, radius):
        V = preset("courant")
        x = sample_grid(2, 3)
        with pytest.raises(ValueError, match="positive integer"):
            monomial_error_series(V, (1, 1), x, radius)
        with pytest.raises(ValueError, match="positive integer"):
            _term_series(BernoulliSplineTerm(V.classes[0]), x, radius)

    def test_empty_point_set_rejected(self):
        V = preset("courant")
        with pytest.raises(ValueError, match="at least one point"):
            monomial_error_series(V, (1, 1), np.zeros((0, 2)), 50)

    @pytest.mark.parametrize("beta", [(1,), (1, 0, 0), (1, 1, 0)])
    def test_beta_of_another_dimension_rejected(self, beta):
        # (1,) and (1, 0, 0) returned zeros on courant, and (1, 1, 0)
        # raised "every vector must have 3 entries"
        with pytest.raises(ValueError, match="^multi-index dimension mismatch"):
            monomial_error_series(preset("courant"), beta, sample_grid(2, 3), 50)

    @pytest.mark.parametrize("beta", [(1, 0), (1, 1)])
    def test_points_of_another_dimension_rejected(self, beta):
        # below the critical order the series returned zeros, and at it
        # numpy's matmul message leaked
        with pytest.raises(ValueError, match="^points of dimension 3, not 2"):
            monomial_error_series(preset("courant"), beta, np.zeros((2, 3)), 50)

    def test_no_scalar_transform_calls(self, monkeypatch):
        calls = []
        real = boxspline.transform_derivative

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(boxspline, "transform_derivative", counting)
        monkeypatch.setattr(bernoulli, "transform_derivative", counting, raising=False)
        x = sample_grid(2, 4)
        monomial_error_series(preset("courant"), (1, 1), x, 30)
        assert calls == []

    @pytest.mark.parametrize("name", ["courant", "courant2", "tensor(2,2)", "bspline(3)"])
    def test_lines_below_critical_order_is_zero(self, name):
        # every nonzero-frequency coefficient is a structural zero there
        V = preset(name)
        x = sample_grid(V.dimension, 4)
        for order in range(V.margin + 1):
            for beta in multi_indices(V.dimension, order):
                s = monomial_error_series(V, beta, x, 400)
                assert np.array_equal(s, np.zeros(len(x)))
                assert np.array_equal(s, _reference_series(V, beta, x, 6, "cube"))

    def test_lines_above_critical_order_rejected(self):
        with pytest.raises(ValueError, match="critical order"):
            monomial_error_series(preset("courant"), (2, 1), sample_grid(2, 3), 50)

    @pytest.mark.parametrize("n", [13, 16])
    def test_orders_past_the_transform_derivative_limit(self, n):
        # the class weights take no derivative of a transform factor, so
        # the series runs past transform_derivatives' order 12 (measured
        # 4.6e-15 relative at n = 13)
        V, x = preset(f"bspline({n})"), sample_grid(1, 7)
        want = error_expansion(V, (n,)).evaluate(x)
        got = monomial_error_series(V, (n,), x, 2000)
        assert np.abs(got.real - want).max() <= 1e-13 * np.abs(want).max()


class TestSplineTermSeries:
    def test_term_series_matches_direct(self):
        V = preset("courant")
        classes = hyperplane_classes(V)
        x = sample_grid(2, 4)
        for cls in classes:
            term = BernoulliSplineTerm(cls)
            direct = term.evaluate(x)
            series = _term_series(term, x, 400)
            assert np.abs(direct - np.real(series)).max() < 5e-7
