"""Property tests over families of direction sets.

The three-direction family {e1^l, e2^m, (e1+e2)^n} (l, m, n >= 1), the
tensor family tensor(m1, m2), the univariate family bspline(n) and the
spanning sub-multisets of {e1, e2, e3, e1+e2, e2+e3, e1+e2+e3} are drawn
by hypothesis with a fixed seed, so every run tests the same sets.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boxproj import (BoxSplineEvaluator, DirectionSet, autocorrelation_table, hyperplane_classes,
                     monomial_error_series, multi_indices, nonorthogonal_directions, preset,
                     transform_derivatives)
from boxproj.bernoulli import TWO_PI_I, BernoulliSplineTerm, _class_weights, progression_sum
from boxproj.checks import _doubled_autocorrelation, _leibniz_transform_derivative, gram_symbol_range
from boxproj.quadrature import box_cells, sample_grid
from test_bernoulli import _reference_series


def three_direction(l, m, n):
    return DirectionSet([(1, 0)] * l + [(0, 1)] * m + [(1, 1)] * n)


# (direction set, its margin by formula)
SETS = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).map(
        lambda lmn: (three_direction(*lmn),
                     min(lmn[0] + lmn[1], lmn[1] + lmn[2], lmn[0] + lmn[2]) - 1)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda mm: (preset(f"tensor({mm[0]},{mm[1]})"), min(mm) - 1)),
    st.integers(1, 8).map(lambda n: (preset(f"bspline({n})"), n - 1)),
)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(SETS)
def test_classes_are_derived_once_and_have_critical_degree(case):
    V, margin = case
    assert V.margin == margin
    classes = V.classes
    assert classes == hyperplane_classes(V)
    assert V.classes is classes
    assert classes
    for cls in classes:
        assert cls.degree == margin + 1
        assert BernoulliSplineTerm(cls).degree == margin + 1


@pytest.mark.parametrize("lmn", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)])
def test_gram_table_matches_doubled_spline(lmn):
    # the doubled route evaluates M_{V u -V}, whose cost grows quickly
    # with the number of directions, so only l + m + n <= 4 is covered
    V = three_direction(*lmn)
    table = autocorrelation_table(V)
    worst = max(abs(a - _doubled_autocorrelation(V, gamma)) for gamma, a in table.items())
    assert worst <= 1e-8


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(SETS)
def test_partition_of_unity_and_gram_invariants(case):
    # over every set of these families: partition of unity within 8.9e-16,
    # symmetry within 2.8e-17, row sum within 3.6e-14 (each dropped entry
    # is at most GRAM_DROP = 1e-14), symbol minimum 1.3e-4; the 3-D sets
    # are left out, their Gram tables take seconds each
    V, _ = case
    d = V.dimension
    spline = BoxSplineEvaluator(V)
    # the shifts alpha with B(x - alpha) possibly nonzero for x in [0, 1)^d
    zlo = np.rint(spline.support_lo).astype(int)
    zhi = np.rint(spline.support_hi).astype(int)
    x = sample_grid(d, 5)
    total = sum(spline(x - alpha) for alpha in box_cells(1 - zhi, 1 - zlo))
    assert np.abs(total - 1.0).max() <= 1e-14
    table = autocorrelation_table(V)
    for gamma, a in table.items():
        assert abs(a - table[tuple(-g for g in gamma)]) <= 1e-16
    assert abs(sum(table.values()) - 1.0) <= 1e-13
    assert gram_symbol_range(V)[0] > 0.0


# consecutive-ones vectors: every set drawn from them is unimodular
CONSECUTIVE_ONES = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]


def float_rank_margin(vectors):
    """Largest r such that every deletion of r vectors still spans, by float ranks."""
    arr = np.array(vectors, dtype=float)
    n, d = arr.shape
    for r in range(1, n - d + 2):
        for keep in itertools.combinations(range(n), n - r):
            if np.linalg.matrix_rank(arr[list(keep)]) < d:
                return r - 1
    return n - d


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_unimodular_3d_sets_read_one_hyperplane_list(counts):
    vectors = [v for v, c in zip(CONSECUTIVE_ONES, counts) for _ in range(c)]
    assume(vectors and np.linalg.matrix_rank(np.array(vectors, dtype=float)) == 3)
    V = DirectionSet(vectors)
    assert V.is_unimodular
    assert V.margin == float_rank_margin(vectors)
    assert V.classes
    for cls in V.classes:
        active = nonorthogonal_directions(V, cls.alpha)
        assert cls.member_indices == active
        assert cls.members == tuple(sorted(vectors[i] for i in active))
    assert BoxSplineEvaluator(V).cut_normals == V.hyperplanes


# the consecutive-ones 3-D sets, as in the test above
CONSECUTIVE_ONES_SETS = st.lists(st.integers(0, 2), min_size=6, max_size=6).map(
    lambda counts: [v for v, c in zip(CONSECUTIVE_ONES, counts) for _ in range(c)]).filter(
    lambda vectors: vectors and np.linalg.matrix_rank(np.array(vectors, dtype=float)) == 3).map(
    DirectionSet)
SERIES_SETS = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).map(
        lambda lmn: three_direction(*lmn)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda mm: preset(f"tensor({mm[0]},{mm[1]})")),
    st.integers(1, 8).map(lambda n: preset(f"bspline({n})")),
    CONSECUTIVE_ONES_SETS,
)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(SERIES_SETS)
def test_lines_series_is_the_cube_series(V):
    # off the class lines every coefficient of a critical beta is a
    # structural zero, so the lines sum is the whole cube's
    d = V.dimension
    radius = 3 if d == 3 else 6
    x = sample_grid(d, 3 if d == 3 else 4)
    for beta in multi_indices(d, V.margin + 1):
        want = _reference_series(V, beta, x, radius, "cube")
        got = monomial_error_series(V, beta, x, radius)
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300), beta


def _class_multiples(cls, radius):
    """The rows k alpha, k = 1..K then -1..-K, K = radius // max|alpha_i|."""
    a = np.array(cls.alpha)
    k = np.arange(1, radius // int(np.abs(a).max()) + 1)
    return np.multiply.outer(np.concatenate([k, -k]), a)


def _per_class_series(V, beta, x, radius):
    """The lattice series with each class's weights from one
    transform_derivatives call on its multiples, both signs at once, and a
    class skipped when they all vanish; the -k half enters through its
    parity (-1)^degree, which the test below pins."""
    acc = np.zeros(len(x), dtype=complex)
    for cls in V.classes:
        weights = transform_derivatives(V, beta, _class_multiples(cls, radius))
        K = len(weights) // 2
        if weights.any():
            acc += progression_sum(x @ np.array(cls.alpha), weights[:K], (-1) ** cls.degree)
    acc *= (1.0 / TWO_PI_I) ** beta.order
    return acc


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(SERIES_SETS)
# the normal (1, -2) of this set lies beyond radius 1: a class with K = 0
@example(DirectionSet(((1, 0), (2, 1), (1, 1))))
@example(preset("tensor(2,2)"))
def test_class_weights_are_transform_derivatives_bitwise(V):
    # every class's closed-form weights against the general route on the
    # same rows, signed zeros included: the k > 0 half as built, real, and
    # the -k half rebuilt from the parity progression_sum takes,
    # (-1)^degree times the real part with +0 imaginary parts; a class
    # without weights (K = 0, beta below the critical order, c = 0) has
    # only zeros there, and the series equals the per-class
    # transform_derivatives loop exactly
    d = V.dimension
    x = sample_grid(d, 3 if d < 3 else 2)
    skipped = {"K = 0": 0, "below": 0, "c = 0": 0}
    for order in (V.margin, V.margin + 1):
        for beta in multi_indices(d, order):
            for radius in (1, 7, 2000):
                for cls in V.classes:
                    want = transform_derivatives(V, beta, _class_multiples(cls, radius))
                    got = _class_weights(V, beta, cls, radius)
                    if got is None:
                        assert not want.any(), (beta, cls.alpha, radius)
                        reason = ("K = 0" if len(want) == 0 else
                                  "below" if order <= V.margin else "c = 0")
                        skipped[reason] += 1
                    else:
                        assert got.dtype == want.dtype and 2 * len(got) == len(want)
                        assert not got.imag.any()
                        full = np.concatenate([got, (-1) ** cls.degree * got.real])
                        assert np.array_equal(full.view(np.uint64), want.view(np.uint64)), (
                            beta, cls.alpha, radius)
                series = monomial_error_series(V, beta, x, radius)
                assert np.array_equal(series, _per_class_series(V, beta, x, radius))
                if order <= V.margin:
                    assert not series.any()
    assert skipped["below"] > 0
    if V.vectors == ((1, 0), (2, 1), (1, 1)):
        assert skipped["K = 0"] > 0
    if d == 2 and all(0 in v for v in V.vectors):
        # a tensor set: a critical beta off an axis has c = 0 on that class
        assert skipped["c = 0"] > 0


LEIBNIZ_SETS = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).filter(
        lambda lmn: sum(lmn) <= 5).map(lambda lmn: three_direction(*lmn)),
    st.tuples(st.integers(1, 2), st.integers(1, 2)).map(
        lambda mm: preset(f"tensor({mm[0]},{mm[1]})")),
    st.integers(1, 4).map(lambda n: preset(f"bspline({n})")),
)


@settings(derandomize=True, max_examples=13, deadline=None, database=None)
@given(LEIBNIZ_SETS)
@example(DirectionSet([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))
def test_batched_transform_derivatives_are_leibniz(V):
    # every row of the radius-2 cube against the scalar product rule,
    # within `transform_two_route`'s 1e-12: rows with more active
    # directions than |beta| must be exact zeros, and rows with exactly
    # |beta| take the closed form.  At the critical order + 1 the rows
    # with fewer active directions run the batched route's own Leibniz
    # expansion, so there Leibniz is compared with itself
    d, k = V.dimension, V.margin + 1
    rows = box_cells([-2] * d, [3] * d)
    rows = rows[np.any(rows != 0, axis=1)]
    active = (rows @ np.array(V.vectors).T != 0).sum(axis=1)
    for order in (k, k + 1):
        branch = active == k  # the closed form at k, Leibniz at k + 1
        hit = False
        for beta in multi_indices(d, order):
            got = transform_derivatives(V, beta, rows)
            want = np.array([_leibniz_transform_derivative(V, beta, row) for row in rows])
            assert np.abs(got - want).max() <= 1e-12, beta
            assert not got[active > order].any(), beta
            hit |= bool(got[branch].any())
        assert hit, order
