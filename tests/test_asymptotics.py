"""Directional derivatives, limiting constants, convergence ladders."""

import math
import tracemalloc

import numpy as np
import pytest

from boxproj import (
    DirectionSet,
    UnsupportedDimensionError,
    build_model,
    convergence_sweep,
    directional_derivative,
    error_constant,
    error_constant_l2,
    error_norm,
    norm_equivalence_constants,
    preset,
    project,
)
from boxproj import quadrature
from boxproj.asymptotics import (
    OUTER_ORDER,
    _derivative_gram,
    _extrapolate,
    _form_coefficients,
    _outer_cells,
    _outer_rule,
    _ridge_cell_table,
    _ridge_gram,
    sobolev_product_norm,
)
from boxproj.bernoulli import BernoulliSplineTerm, bernoulli_interior_roots, bernoulli_l2_norm_sq
from boxproj.checks import _nested_directional_derivative
from boxproj.lattice import hyperplane_classes, linear_form_product
from boxproj.testfunctions import bump, gaussian


class TestDirectionalDerivative:
    def test_gaussian_second_derivative_closed_form(self):
        # f = exp(-pi x^2): applying d/dx twice gives (4 pi^2 x^2 - 2 pi) f
        f = gaussian(1, 1.0)
        t = np.linspace(-1.5, 1.5, 7).reshape(-1, 1)
        got = directional_derivative(f, [(1,), (1,)], t)
        want = (4 * math.pi ** 2 * t[:, 0] ** 2 - 2 * math.pi) * f.value(t)
        assert np.abs(got - want).max() < 1e-10

    def test_two_routes_agree(self):
        f = gaussian(2, 1.0)
        rng = np.random.default_rng(5)
        t = rng.uniform(-1, 1, size=(40, 2))
        vecs = [(1, 0), (1, 1)]
        a = directional_derivative(f, vecs, t)
        b = _nested_directional_derivative(f, vecs, t)
        assert np.abs(a - b).max() < 1e-10

    def test_against_finite_differences(self):
        f = gaussian(2, 1.0)
        vecs = [(1, 1), (0, 1)]
        pts = [np.array([0.3, -0.2]), np.array([0.0, 0.5])]
        exact = directional_derivative(f, vecs, np.array(pts))
        # iterated directional FD: (D_v g)(x) ~ (g(x + h v) - g(x - h v)) / 2h
        h = 1e-5

        def dv(g, v):
            v = np.asarray(v, dtype=float)
            return lambda x: (g(x + h * v) - g(x - h * v)) / (2 * h)

        g = f.value
        for v in vecs:
            g = dv(g, v)
        approx = np.array([g(p) for p in pts])
        assert np.abs(exact - approx).max() < 1e-5


class TestErrorConstant:
    def test_hat_gaussian_frozen_value(self):
        # ||f''||_2^2 = 3 pi^2 / sqrt(2) for f = exp(-pi x^2), B2 norm 1/720,
        # one class of 2 directions with unit scale -> pi^2 / (240 sqrt 2)
        val = error_constant_l2(gaussian(1, 1.0), preset("bspline(2)"))
        assert abs(val - math.pi ** 2 / (240 * math.sqrt(2))) < 1e-12

    def test_tensor_gaussian_frozen_value(self):
        val = error_constant_l2(gaussian(2, 1.0), preset("tensor(1,1)"))
        assert abs(val - math.pi / 12) < 1e-10

    def test_haar_gaussian_frozen_value(self):
        val = error_constant_l2(gaussian(1, 1.0), preset("haar"))
        assert abs(val - math.pi / (12 * math.sqrt(2))) < 1e-12

    def test_quadrature_route_matches_closed_p2(self):
        for name in ("haar", "bspline(2)", "tensor(1,1)", "tensor(2,2)", "courant", "courant2"):
            V = preset(name)
            f = gaussian(V.dimension, 1.0)
            closed = error_constant_l2(f, V)
            quad = error_constant(f, V, 2.0)
            assert abs(quad - closed) < 1e-8 * max(1.0, closed)

    def test_p1_p3_positive_and_ordered_by_window(self):
        V = preset("bspline(2)")
        f = gaussian(1, 1.0)
        for p in (1.0, 3.0):
            assert error_constant(f, V, p) > 0


def _direct_double_sum(f, V, p, chunk_rows=2048):
    """Reference: sum_t w_t sum_x w_x |D(t) . B(x)|^p, chunked over t, at
    the default orders of `error_constant` (inner 16, outer 12)."""
    classes = hyperplane_classes(V)
    roots = bernoulli_interior_roots(V.margin + 1)
    cuts = [
        quadrature.CutFamily(tuple(float(a) for a in cls.alpha), 1.0, (0.0,) + roots)
        for cls in classes
    ]
    d = V.dimension
    xpts, xwts = quadrature.cell_rule([0.0] * d, [1.0] * d, cuts, 16)
    B = np.stack([BernoulliSplineTerm(cls).evaluate(xpts) for cls in classes], axis=-1)
    tpts, twts = _outer_rule(f, 12)
    D = np.stack(
        [directional_derivative(f, cls.members, tpts) for cls in classes], axis=-1
    )
    total = 0.0
    for start in range(0, len(tpts), chunk_rows):
        S = D[start:start + chunk_rows] @ B.T
        total += np.dot(twts[start:start + chunk_rows], np.abs(S) ** p @ xwts)
    return float(total)


GRAM_PRESETS = ("haar", "bspline(3)", "tensor(2,2)", "courant", "courant2")
SET_3D = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


class TestGramRoute:
    @pytest.mark.parametrize("name", GRAM_PRESETS)
    def test_p2_matches_direct_double_sum(self, name):
        V = preset(name)
        for scale in (0.8, 1.25):
            f = gaussian(V.dimension, scale)
            want = _direct_double_sum(f, V, 2.0)
            assert abs(error_constant(f, V, 2.0) - want) <= 1e-13 * want

    @pytest.mark.parametrize("name", GRAM_PRESETS)
    def test_other_p_is_the_direct_sum(self, name):
        V = preset(name)
        f = gaussian(V.dimension, 0.8)
        for p in (1.0, 3.0):
            assert error_constant(f, V, p) == _direct_double_sum(f, V, p)

    def test_courant2_peak_memory(self):
        f, V = gaussian(2, 1.25), preset("courant2")
        error_constant(f, V, 2.0)
        tracemalloc.start()
        try:
            error_constant(f, V, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_three_dimensions_raise_typed_error(self):
        # p = 2 is exact on the cut 3-D cell; the direct sums of other p and
        # of the sandwich would hold 1.8 million cell nodes per row
        f = gaussian(3, 0.6)
        want = error_constant_l2(f, SET_3D)
        assert abs(error_constant(f, SET_3D, 2.0) - want) <= 1e-6 * want
        for p in (1.0, 3.0):
            with pytest.raises(UnsupportedDimensionError, match="1.8 million"):
                error_constant(f, SET_3D, p)
        with pytest.raises(UnsupportedDimensionError, match="1.8 million"):
            norm_equivalence_constants(SET_3D, 2.0, samples=10)


MOMENT_SETS = ("bspline(2)", "bspline(3)", "tensor(1,1)", "tensor(2,2)", "courant", "courant2",
               "3d")
MOMENT_FUNCTIONS = ((gaussian, 0.8), (gaussian, 1.25), (bump, 2.0), (bump, 3.0))


def _pointwise_gram_d(f, vector_lists):
    """Reference G_D: the class derivatives from `directional_derivative`
    at every node of the outer rule."""
    tpts, twts = _outer_rule(f, OUTER_ORDER)
    D = np.stack([directional_derivative(f, vs, tpts) for vs in vector_lists], axis=-1)
    return (D.T * twts) @ D


def _gram_b(V):
    _, B, xwts = _ridge_cell_table(V, V.margin + 3)
    return (B.T * xwts) @ B


def _class_weights(V):
    norm = float(bernoulli_l2_norm_sq(V.margin + 1))
    return np.array([norm * float(cls.scale) ** 2 for cls in V.classes])


class PointwiseOnly:
    """A test function seen through `derivative` and `effective_box` alone."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def derivative(self, beta, x):
        self.calls += 1
        return self.f.derivative(beta, x)

    def effective_box(self):
        return self.f.effective_box()


class ShiftedProduct:
    """prod_j g_j(x_j - c_j) for 1-D Gaussians g_j of different scales: a
    product f whose factors, moments and support box differ by axis."""

    def __init__(self, scales, centers):
        self.axes = [gaussian(1, s) for s in scales]
        self.centers = np.asarray(centers, dtype=float)

    def derivative(self, beta, x):
        x = np.atleast_2d(x) - self.centers
        out = np.ones(len(x))
        for j, (g, b) in enumerate(zip(self.axes, beta)):
            out = out * g.derivative((b,), x[:, j:j + 1])
        return out

    def factor_derivative(self, axis, order, t):
        return self.axes[axis].factor_derivative(0, order, np.asarray(t) - self.centers[axis])

    def effective_box(self):
        boxes = [g.effective_box() for g in self.axes]
        return (np.array([b[0][0] for b in boxes]) + self.centers,
                np.array([b[1][0] for b in boxes]) + self.centers)


class TestMomentRoute:
    """At p = 2 a Gaussian or a bump takes G_D from per-axis moment
    matrices; it must match the pointwise G_D on the same outer rule."""

    @pytest.mark.parametrize("name", MOMENT_SETS)
    def test_matches_pointwise_class_gram(self, name):
        V = SET_3D if name == "3d" else preset(name)
        members = [cls.members for cls in V.classes]
        gram_b, weights = _gram_b(V), _class_weights(V)
        for family, size in MOMENT_FUNCTIONS:
            f = family(V.dimension, size)
            gram_d = _pointwise_gram_d(f, members)
            want = float(np.sum(gram_d * gram_b))
            assert abs(error_constant(f, V, 2.0) - want) <= 1e-13 * want, (family, size)
            want = float(weights @ np.diag(gram_d))
            assert abs(error_constant_l2(f, V) - want) <= 1e-13 * want, (family, size)

    # classes that no permutation of the axes maps onto themselves, so that
    # a mix-up of the axes' moments shows
    @pytest.mark.parametrize("vectors", [
        [(1, 0), (0, 1), (0, 1), (1, 1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)],
    ], ids=["2d", "3d"])
    def test_axes_kept_apart(self, vectors):
        V = DirectionSet(vectors)
        f = ShiftedProduct([0.7, 1.1, 0.9][:V.dimension], [0.3, -0.45, 0.2][:V.dimension])
        members = [cls.members for cls in V.classes]
        gram_d = _pointwise_gram_d(f, members)
        want = float(np.sum(gram_d * _gram_b(V)))
        assert abs(error_constant(f, V, 2.0) - want) <= 1e-13 * want
        want = float(_class_weights(V) @ np.diag(gram_d))
        assert abs(error_constant_l2(f, V) - want) <= 1e-13 * want

    @pytest.mark.parametrize("name", ["bspline(3)", "courant2", "3d"])
    def test_kronecker_product_bitwise_from_ones(self, name):
        # the product over the axes starts from the first axis's moment
        # matrix; one started from np.ones((1, 1)) gives the same bytes
        V = SET_3D if name == "3d" else preset(name)
        members = [cls.members for cls in V.classes]
        order = max(len(vs) for vs in members)
        x, w = quadrature.unit_nodes(OUTER_ORDER)
        for family, size in MOMENT_FUNCTIONS:
            f = family(V.dimension, size)
            K = np.ones((1, 1))
            for j, (a, b) in enumerate(zip(*_outer_cells(f))):
                T = f.factor_derivative(j, order,
                                        np.add.outer(np.arange(a, b, dtype=float), x).ravel())
                K = np.kron(K, (T * np.tile(w, b - a)) @ T.T)
            C = _form_coefficients(tuple(members), order, V.dimension)
            want = C @ K @ C.T
            assert _derivative_gram(f, members).tobytes() == want.tobytes(), (family, size)

    @pytest.mark.parametrize("name", ["bspline(3)", "courant", "courant2"])
    def test_wrapper_takes_pointwise_route(self, name):
        V = preset(name)
        f = gaussian(V.dimension, 1.25)
        g = PointwiseOnly(f)
        quad = error_constant(g, V, 2.0)
        assert g.calls > 0
        members = [cls.members for cls in V.classes]
        assert quad == float(np.sum(_pointwise_gram_d(f, members) * _gram_b(V)))
        assert abs(quad - error_constant(f, V, 2.0)) <= 1e-13 * quad
        closed = error_constant_l2(g, V)
        assert abs(closed - error_constant_l2(f, V)) <= 1e-13 * closed

    def test_sobolev_product_norm_any_vectors(self):
        vectors = [(1, 2), (1, -1), (0, 1)]
        for f in (gaussian(2, 0.9), bump(2, 2.0)):
            want = _pointwise_gram_d(f, [vectors])[0, 0]
            got = sobolev_product_norm(f, vectors, p=2.0)
            assert abs(got - want) <= 1e-13 * want
            # other p keep the pointwise sum
            assert sobolev_product_norm(f, vectors, p=3.0) == sobolev_product_norm(
                PointwiseOnly(f), vectors, p=3.0)


class TestRidgeCellTable:
    def test_cached_on_the_set_value(self):
        vectors = preset("courant").vectors
        first = _ridge_cell_table(DirectionSet(vectors), 4)
        assert _ridge_cell_table(DirectionSet(list(vectors)), 4) is first
        assert isinstance(first[0], tuple)

    def test_arrays_are_read_only(self):
        _, B, wts = _ridge_cell_table(preset("courant2"), 5)
        for a in (B, wts):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_ridge_gram_is_cached_read_only_and_exact(self):
        V = preset("courant2")
        first = _ridge_gram(DirectionSet(V.vectors), V.margin + 3)
        assert _ridge_gram(DirectionSet(list(V.vectors)), V.margin + 3) is first
        assert np.array_equal(first, _gram_b(V))
        with pytest.raises(ValueError):
            first[0, 0] = 0.0

    def test_error_constant_forms_the_ridge_gram_once(self):
        _ridge_gram.cache_clear()
        V, g = preset("courant"), gaussian(2, 1.0)
        first = error_constant(g, V, 2.0)
        assert error_constant(gaussian(2, 0.8), V, 2.0) != first
        assert error_constant(g, V, 2.0) == first
        info = _ridge_gram.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        error_constant_l2(g, V)
        assert _ridge_gram.cache_info().misses == 1


    def test_form_coefficients_are_kept_read_only(self):
        members = tuple(cls.members for cls in preset("courant2").classes)
        C = _form_coefficients(members, 4, 2)
        assert _form_coefficients(tuple(list(members)), 4, 2) is C
        with pytest.raises(ValueError):
            C[0, 0] = 1.0
        # row U holds the coefficients of prod_{v in U} (x . v), beta in C order
        for row, vs in zip(C, members):
            want = np.zeros(25)
            for beta, coef in linear_form_product(vs).items():
                want[5 * beta[0] + beta[1]] = coef
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("f", [gaussian, bump], ids=["gaussian", "bump"])
    def test_p2_constants_repeat_bitwise(self, f):
        # a call that builds the kept coefficient matrix and one that
        # reuses it give the same bits, at p = 2 and in closed form
        for V in [preset(name) for name in GRAM_PRESETS] + [SET_3D]:
            g = f(V.dimension, 1.1)
            runs = []
            for _ in range(2):
                _form_coefficients.cache_clear()
                fresh = DirectionSet(V.vectors)
                runs += [(error_constant(g, fresh, 2.0), error_constant_l2(g, fresh))
                         for _ in range(2)]
            assert all(np.array(run).tobytes() == np.array(runs[0]).tobytes() for run in runs), V

BAD_EXPONENTS = [0.0, 0.5, -1.0, np.inf, np.nan]


class TestExponentValidation:
    @pytest.mark.parametrize("p", BAD_EXPONENTS)
    def test_error_constant_rejects(self, p):
        with pytest.raises(ValueError, match="exponent"):
            error_constant(gaussian(1, 1.0), preset("bspline(2)"), p)

    @pytest.mark.parametrize("p", BAD_EXPONENTS)
    def test_norm_equivalence_constants_rejects(self, p):
        with pytest.raises(ValueError, match="exponent"):
            norm_equivalence_constants(preset("courant"), p, samples=10)

    @pytest.mark.parametrize("p", BAD_EXPONENTS)
    def test_sobolev_product_norm_rejects(self, p):
        # p = 0.5 returned 3.99 and p = nan returned nan
        with pytest.raises(ValueError, match="exponent"):
            sobolev_product_norm(gaussian(2, 1.0), [(1, 0), (0, 1)], p)


class TestDimensionValidation:
    # gaussian(3) on courant leaked numpy's "parameter multi_index must be
    # a sequence of length 3" at p = 2, and "every vector must have 3
    # entries", about V's vectors, at p = 3
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("call", [lambda f, V: error_constant(f, V, 2.0),
                                      lambda f, V: error_constant(f, V, 3.0),
                                      error_constant_l2], ids=["p=2", "p=3", "l2"])
    def test_f_of_another_dimension_rejected(self, call, dim):
        with pytest.raises(ValueError, match=f"^f of dimension {dim} for a direction set of "
                                             "dimension 2"):
            call(gaussian(dim, 1.0), preset("courant"))


class TestVectorValidation:
    # [] raised IndexError at p = 3, [(1, 0, 0)] leaked a numpy message at
    # p = 2, and [(1.5, 0)] at p = 3 returned the value for (1, 0)
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("vectors", [[], [(1, 0, 0)], [(1.5, 0)]])
    def test_sobolev_product_norm_rejects(self, vectors, p):
        with pytest.raises(ValueError, match="vector"):
            sobolev_product_norm(gaussian(2, 1.0), vectors, p)

    @pytest.mark.parametrize("vectors", [[], [(1, 0, 0)], [(1.5, 0)]])
    def test_directional_derivative_rejects(self, vectors):
        with pytest.raises(ValueError, match="vector"):
            directional_derivative(gaussian(2, 1.0), vectors, np.zeros((3, 2)))


def _error_norm_at_order(order):
    g = gaussian(1, 1.0)
    m = build_model(preset("bspline(2)"), 0.5, g)
    return error_norm(g, m, project(m, g), 2.0, order=order)


def _sweep(**kwargs):
    return convergence_sweep(gaussian(1, 1.0), preset("haar"), 2.0, [1 / 2, 1 / 4], **kwargs)


class TestParameterValidation:
    """Integer parameters and the constant of a sweep are checked at entry:
    order 2.5 leaked numpy's TypeError, order True and padding 1.5 or True
    ran, constant 0 raised ZeroDivisionError and samples 0 failed inside
    numpy."""

    @pytest.mark.parametrize("call, name", [
        (lambda: _error_norm_at_order(2.5), "order"),
        (lambda: _error_norm_at_order(True), "order"),
        (lambda: _error_norm_at_order(0), "order"),
        (lambda: build_model(preset("bspline(2)"), 0.5, gaussian(1, 1.0), padding=1.5),
         "padding"),
        (lambda: build_model(preset("bspline(2)"), 0.5, gaussian(1, 1.0), padding=True),
         "padding"),
        (lambda: _sweep(norm_order=2.5), "norm_order"),
        (lambda: _sweep(norm_order=True), "norm_order"),
        (lambda: _sweep(norm_order=0), "norm_order"),
        (lambda: _sweep(padding=1.5), "padding"),
        (lambda: _sweep(constant=0.0), "constant"),
        (lambda: _sweep(constant=np.nan), "constant"),
        (lambda: _sweep(constant=np.inf), "constant"),
        (lambda: norm_equivalence_constants(preset("courant"), 2.0, samples=0), "samples"),
        (lambda: norm_equivalence_constants(preset("courant"), 2.0, samples=2.5), "samples"),
        (lambda: norm_equivalence_constants(preset("courant"), 2.0, samples=True), "samples"),
    ], ids=["order=2.5", "order=True", "order=0", "padding=1.5", "padding=True",
            "norm_order=2.5", "norm_order=True", "norm_order=0", "sweep-padding=1.5",
            "constant=0", "constant=nan", "constant=inf", "samples=0", "samples=2.5",
            "samples=True"])
    def test_rejected_at_entry(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call()


class TestPinnedConstants:
    """The limit constants and Sobolev norms of the p = 2 and p = 3 routes,
    pinned at 1e-14 relative so that the pin holds across BLAS builds."""

    # error_constant at p = 2 and 3, error_constant_l2, and
    # sobolev_product_norm of the first class at p = 2 and 3
    VALUES = [
        ("courant", gaussian, 1.13, 0.04830842470578185, 0.009661544790655698,
         0.04830842470578181, 15.45869590585032, 44.317337040454554),
        ("courant", bump, 2.5, 0.04111152873561898, 0.004115105992450354,
         0.04111152873561894, 14.067460861642672, 26.8282987682747),
        ("courant2", gaussian, 1.13, 0.008064790887675529, 0.0007363442350269907,
         0.00806479088767554, 4772.313898747025, 259271.02959011175),
        ("courant2", bump, 2.5, 0.11071402993604387, 0.026364534054580942,
         0.11071402993604401, 66946.70725046525, 14457502.798527025),
    ]
    # error_constant at p = 2 and error_constant_l2 on [e1, e2, e3, e1+e2+e3]
    VALUES_3D = [
        (gaussian, 1.13, 0.07719982521724814, 0.07719982521724819),
        (bump, 2.5, 0.1741221165612648, 0.17412211656126492),
    ]

    @staticmethod
    def _close(got, want):
        assert abs(got - want) <= 1e-14 * abs(want), (got, want)

    @pytest.mark.parametrize("name, family, size, c2, c3, l2, s2, s3", VALUES,
                             ids=[f"{v[0]}-{v[1].__name__}" for v in VALUES])
    def test_two_dimensions(self, name, family, size, c2, c3, l2, s2, s3):
        V, f = preset(name), family(2, size)
        members = V.classes[0].members
        self._close(error_constant(f, V, 2.0), c2)
        self._close(error_constant(f, V, 3.0), c3)
        self._close(error_constant_l2(f, V), l2)
        self._close(sobolev_product_norm(f, members, 2.0), s2)
        self._close(sobolev_product_norm(f, members, 3.0), s3)

    @pytest.mark.parametrize("family, size, c2, l2", VALUES_3D,
                             ids=[v[0].__name__ for v in VALUES_3D])
    def test_three_dimensions(self, family, size, c2, l2):
        f = family(3, size)
        self._close(error_constant(f, SET_3D, 2.0), c2)
        self._close(error_constant_l2(f, SET_3D), l2)


class TestNormEquivalence:
    def test_sandwich_p2_is_tight(self):
        lo, hi = norm_equivalence_constants(preset("bspline(2)"), 2.0)
        assert lo <= hi
        # p=2 periodization is exact: both bounds equal the L2 constant
        assert hi / lo < 1.0 + 1e-6

    def test_sandwich_orders(self):
        for p in (1.0, 3.0):
            lo, hi = norm_equivalence_constants(preset("courant"), p, samples=500)
            assert 0 < lo <= hi


class TestExtrapolation:
    def test_geometric_sequence_recovers_limit(self):
        # r_h = L + c h^2 must extrapolate to L
        ladder = (1 / 4, 1 / 8, 1 / 16)
        L, c = 0.73, 2.1
        ratios = tuple(L + c * h ** 2 for h in ladder)
        assert abs(_extrapolate(ladder, ratios) - L) < 1e-12

    def test_even_powers_to_h4_are_exact(self):
        # three rungs fit r_h = L + c2 h^2 + c4 h^4 exactly
        ladder = (1 / 8, 1 / 16, 1 / 32)
        L, c2, c4 = 0.0291, -0.37, 5.3
        ratios = tuple(L + c2 * h ** 2 + c4 * h ** 4 for h in ladder)
        assert abs(_extrapolate(ladder, ratios) - L) < 1e-13 * L

    def test_stalled_sequence_returns_last(self):
        val = _extrapolate((1 / 4, 1 / 8, 1 / 16), (0.5, 0.5, 0.5))
        assert abs(val - 0.5) < 1e-12


class TestConvergenceSweep:
    def test_haar_gaussian_small_ladder(self):
        rep = convergence_sweep(gaussian(1, 1.0), preset("haar"), 2.0,
                                [1 / 8, 1 / 16, 1 / 32])
        assert rep.critical_order == 1
        assert abs(rep.constant - math.pi / (12 * math.sqrt(2))) < 1e-10
        assert abs(rep.fitted_rate - 1.0) < 0.05
        assert rep.rel_error < 0.05

    def test_ratios_monotone_toward_limit(self):
        rep = convergence_sweep(gaussian(1, 1.0), preset("bspline(2)"), 2.0,
                                [1 / 4, 1 / 8, 1 / 16])
        diffs = [abs(r - rep.constant) for r in rep.ratios]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_explicit_constant_override(self):
        rep = convergence_sweep(gaussian(1, 1.0), preset("haar"), 2.0,
                                [1 / 8, 1 / 16], constant=1.0)
        assert rep.constant == 1.0
        assert rep.rel_error == abs(rep.extrapolated_ratio - 1.0)

    @pytest.mark.parametrize("ladder", [[1 / 4, 1 / 4], [1 / 4], [1 / 2, 1 / 4, 1 / 4]])
    def test_ladder_needs_two_distinct_mesh_sizes(self, ladder):
        with pytest.raises(ValueError, match="at least two mesh sizes, all distinct"):
            convergence_sweep(gaussian(1, 1.0), preset("haar"), 2.0, ladder)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            convergence_sweep(gaussian(1, 1.0), preset("haar"), 2.0, [])
