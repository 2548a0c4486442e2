"""Property tests over families of direction sets.

The three-direction family {e1^l, e2^m, (e1+e2)^n} (l, m, n >= 1), the
tensor family tensor(m1, m2) and the univariate family bspline(n) are
drawn by hypothesis with a fixed seed, so every run tests the same sets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxproj import DirectionSet, autocorrelation_table, hyperplane_classes, preset
from boxproj.bernoulli import BernoulliSplineTerm
from boxproj.checks import _doubled_autocorrelation


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
