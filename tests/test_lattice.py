"""Integer combinatorics: margins, hyperplane classes, derivative constants.

Oracles here are deliberately independent of the library internals:
margins are recomputed with float SVD ranks, derivative constants with
sympy symbolic expansion, and normals checked against raw dot products.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from boxproj import (
    BoxSplineEvaluator,
    DirectionSet,
    MultiIndex,
    NonUnimodularError,
    hyperplane_classes,
    nonorthogonal_directions,
    preset,
)
from boxproj import lattice
from boxproj.lattice import (
    MAX_DIRECTIONS,
    _echelon as echelon,
    deletion_margin,
    integer_det,
    integer_rank,
    linear_form_product,
    multi_indices,
    product_derivative,
)

UNIMODULAR = ["haar", "bspline(2)", "bspline(3)", "tensor(1,1)",
              "tensor(2,2)", "courant", "courant2"]


def margin_oracle(vectors):
    """Largest r such that every deletion of r vectors still spans."""
    arr = np.array(vectors, dtype=float)
    n, d = arr.shape
    for r in range(1, n - d + 2):
        for keep in itertools.combinations(range(n), n - r):
            rank = np.linalg.matrix_rank(arr[list(keep)]) if keep else 0
            if rank < d:
                return r - 1
    return n - d


class TestMultiIndex:
    def test_order_and_factorial(self):
        b = MultiIndex.of((2, 1, 3))
        assert b.order == 6
        assert b.factorial == 2 * 1 * 6

    def test_of_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex.of((1, -1))

    @pytest.mark.parametrize("beta", [(1.5, 1), (1, 0.5), (float("nan"),), (float("inf"), 0),
                                      (Fraction(3, 2),), ("2",)])
    def test_of_rejects_non_integral_entries(self, beta):
        # int() used to truncate (1.5, 1) to (1, 1) without a word
        with pytest.raises(ValueError, match="finite integers"):
            MultiIndex.of(beta)

    def test_integral_floats_and_numpy_integers_accepted(self):
        b = MultiIndex.of((2.0, np.int64(1), np.float64(0.0), Fraction(4, 2)))
        assert b.exponents == (2, 1, 0, 2)
        assert all(type(e) is int for e in b)

    def test_enumeration_is_complete(self):
        found = list(multi_indices(3, 4))
        assert len(found) == math.comb(4 + 2, 2)
        assert len(set(found)) == len(found)
        assert all(b.order == 4 for b in found)


class TestIntegerLinearAlgebra:
    def test_rank_matches_float_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            m = rng.integers(-4, 5, size=(rng.integers(1, 5), rng.integers(1, 5)))
            assert integer_rank(m.tolist()) == np.linalg.matrix_rank(m.astype(float))

    def test_det_matches_float_det(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            k = int(rng.integers(1, 5))
            m = rng.integers(-4, 5, size=(k, k))
            assert integer_det(m.tolist()) == round(np.linalg.det(m.astype(float)))

    def test_rank_and_det_match_sympy(self):
        # every shape from 0 x 1 to 5 x 5; a third of the matrices with two
        # or more rows get one row replaced by the sum of two others
        rng = np.random.default_rng(11)
        for _ in range(2000):
            rows, cols = int(rng.integers(0, 6)), int(rng.integers(1, 6))
            m = rng.integers(-4, 5, size=(rows, cols))
            if rows >= 2 and rng.random() < 1 / 3:
                i = int(rng.integers(rows))
                j, k = rng.choice([r for r in range(rows) if r != i], size=2)
                m[i] = m[j] + m[k]
            ref = sympy.Matrix(rows, cols, m.ravel().tolist())
            assert integer_rank(m.tolist()) == ref.rank(), m
            if rows == cols:
                assert integer_det(m.tolist()) == ref.det(), m


def random_direction_sets(seed, count):
    """Seeded spanning direction sets in dimensions 2 and 3, entries in
    -1..1 for most of them so that many are unimodular."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        d = int(rng.integers(2, 4))
        width = 1 if rng.random() < 0.7 else 2
        vecs = [tuple(int(x) for x in rng.integers(-width, width + 1, size=d))
                for _ in range(int(rng.integers(d, d + 4)))]
        if any(all(x == 0 for x in v) for v in vecs) or \
                np.linalg.matrix_rank(np.array(vecs, dtype=float)) < d:
            continue
        found.append(DirectionSet(vecs))
    return found


def normalized_nullspace(rows, d):
    """The sympy nullspace of rows (vectors in R^d) as a primitive integer
    vector with first nonzero entry positive, or None unless it is a line."""
    null = sympy.Matrix(len(rows), d, [x for r in rows for x in r]).nullspace()
    if len(null) != 1:
        return None
    vec = list(null[0])
    scale = math.lcm(*(int(sympy.fraction(x)[1]) for x in vec))
    ints = [int(x * scale) for x in vec]
    g = math.gcd(*ints)
    sign = 1 if next(x for x in ints if x) > 0 else -1
    return tuple(sign * x // g for x in ints)


class TestNormalsAgainstSympy:
    SETS = random_direction_sets(12, 200)

    @staticmethod
    def assert_primitive_oriented(normal):
        assert math.gcd(*normal) == 1, normal
        assert next(a for a in normal if a != 0) > 0, normal

    def test_knot_normals(self):
        for V in self.SETS:
            spline = BoxSplineEvaluator(V)
            d = V.dimension
            want = {normalized_nullspace(rows, d)
                    for rows in itertools.combinations(spline.distinct, d - 1)}
            want.discard(None)
            assert set(spline.cut_normals) == want, V
            for normal in spline.cut_normals:
                self.assert_primitive_oriented(normal)

    def test_class_normals(self):
        unimodular = [V for V in self.SETS if V.is_unimodular]
        assert len(unimodular) >= 50
        for V in unimodular:
            for cls in hyperplane_classes(V):
                self.assert_primitive_oriented(cls.alpha)
                rest = [v for i, v in enumerate(V) if i not in cls.member_indices]
                assert normalized_nullspace(rest, V.dimension) == cls.alpha, V


class TestDirectionSet:
    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            DirectionSet([(1, 0), (0, 0)])

    def test_rejects_non_spanning(self):
        with pytest.raises(ValueError):
            DirectionSet([(1, 0), (2, 0)])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            DirectionSet([(1.5, 0), (0, 1)])

    def test_margins_match_brute_force(self):
        for name in UNIMODULAR + ["zp"]:
            V = preset(name)
            assert V.margin == margin_oracle(V.vectors), name

    def test_margin_random_sets(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 25:
            n = int(rng.integers(2, 6))
            vecs = [tuple(int(v) for v in rng.integers(-2, 3, size=2)) for _ in range(n)]
            if any(all(c == 0 for c in v) for v in vecs):
                continue
            if np.linalg.matrix_rank(np.array(vecs, dtype=float)) < 2:
                continue
            found += 1
            assert deletion_margin(vecs) == margin_oracle(vecs)
        # dimensions 1 to 3, each set with one of its vectors repeated
        for d in (1, 2, 3):
            found = 0
            while found < 15:
                n = int(rng.integers(d, d + 5))
                vecs = [tuple(int(v) for v in rng.integers(-2, 3, size=d)) for _ in range(n)]
                vecs.append(vecs[int(rng.integers(n))])
                if any(all(c == 0 for c in v) for v in vecs):
                    continue
                if np.linalg.matrix_rank(np.array(vecs, dtype=float)) < d:
                    continue
                found += 1
                assert deletion_margin(vecs) == margin_oracle(vecs), vecs

    @pytest.mark.parametrize("distinct, margin", [
        # in 2-D each of the four lines holds 4 of the 16 vectors, so the
        # fewest vectors off a line is 12
        ([(1, 0), (0, 1), (1, 1), (1, -1)], 11),
        # in 3-D the plane x3 = 0 holds 4 of the 8 distinct directions and
        # no plane holds more, so the fewest vectors off a plane is 2 * 4
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0),
          (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 7),
    ], ids=["2d", "3d"])
    def test_margin_of_max_directions_costs_one_elimination_per_hyperplane(
            self, monkeypatch, distinct, margin):
        V = DirectionSet(distinct * (MAX_DIRECTIONS // len(distinct)))
        assert len(V) == MAX_DIRECTIONS
        calls = []

        def counting(rows):
            calls.append(rows)
            return echelon(rows)

        monkeypatch.setattr(lattice, "_echelon", counting)
        assert V.margin == margin
        assert len(calls) <= math.comb(len(distinct), V.dimension - 1)

    def test_frozen_margin_table(self):
        expected = {"haar": 0, "bspline(2)": 1, "bspline(3)": 2,
                    "tensor(1,1)": 0, "tensor(2,2)": 1,
                    "courant": 1, "courant2": 3, "zp": 2}
        for name, rho in expected.items():
            assert preset(name).margin == rho, name

    def test_unimodularity_flags(self):
        for name in UNIMODULAR:
            assert preset(name).is_unimodular, name
        assert not preset("zp").is_unimodular

    def test_unimodularity_takes_determinants_of_distinct_vectors(self, monkeypatch):
        distinct = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
        V = DirectionSet(distinct * 2)
        calls = []

        def counting(rows):
            calls.append(rows)
            return echelon(rows)

        monkeypatch.setattr(lattice, "_echelon", counting)
        assert lattice.is_unimodular(V)
        assert len(calls) == math.comb(6, 3)

    def test_unimodularity_matches_every_subset(self):
        # the definition over all d-subsets of all n vectors, repeats included
        rng = np.random.default_rng(19)
        seen = {True: 0, False: 0}
        for d in (1, 2, 3):
            found = 0
            while found < 20:
                pool = [tuple(int(v) for v in rng.integers(-2, 3, size=d)) for _ in range(d + 2)]
                vecs = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(d + 1, d + 6)))]
                if any(not any(v) for v in vecs) or len(set(vecs)) == len(vecs):
                    continue
                if np.linalg.matrix_rank(np.array(vecs, dtype=float)) < d:
                    continue
                found += 1
                want = all(integer_det(rows) in (-1, 0, 1)
                           for rows in itertools.combinations(vecs, d))
                assert lattice.is_unimodular(vecs) == want, vecs
                seen[want] += 1
        assert seen[True] and seen[False]


class TestHyperplaneClasses:
    def test_zp_rejected(self):
        with pytest.raises(NonUnimodularError):
            hyperplane_classes(preset("zp"))

    def test_haar_single_class(self):
        (cls,) = hyperplane_classes(preset("haar"))
        assert cls.alpha == (1,)
        assert cls.members == ((1,),)
        assert cls.scale == Fraction(1)

    def test_courant_frozen_classes(self):
        classes = hyperplane_classes(preset("courant"))
        got = [(c.alpha, c.members, c.scale) for c in classes]
        assert got == [
            ((0, 1), ((0, 1), (1, 1)), Fraction(1)),
            ((1, -1), ((0, 1), (1, 0)), Fraction(-1)),
            ((1, 0), ((1, 0), (1, 1)), Fraction(1)),
        ]

    def test_courant2_frozen_classes(self):
        classes = hyperplane_classes(preset("courant2"))
        assert [c.alpha for c in classes] == [(0, 1), (1, -1), (1, 0)]
        assert all(len(c.members) == 4 for c in classes)
        assert [c.scale for c in classes] == [Fraction(1)] * 3

    def test_tensor_classes(self):
        classes = hyperplane_classes(preset("tensor(2,2)"))
        assert [c.alpha for c in classes] == [(0, 1), (1, 0)]

    def test_normals_orthogonal_to_complement(self):
        for name in UNIMODULAR:
            V = preset(name)
            for cls in hyperplane_classes(V):
                complement = [v for v in V.vectors if v not in cls.members]
                for v in complement:
                    assert sum(a * c for a, c in zip(cls.alpha, v)) == 0
                for v, den in zip(cls.members, cls.denominators):
                    assert sum(a * c for a, c in zip(cls.alpha, v)) == den
                    assert den != 0

    def test_scale_is_the_exact_product_kept_per_class(self):
        sets = [preset(name) for name in UNIMODULAR + ["bspline(6)", "tensor(3,1)"]]
        sets.append(DirectionSet([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))
        for V in sets:
            for cls in hyperplane_classes(V):
                want = math.prod(Fraction(1, q) for q in cls.denominators)
                assert type(cls.scale) is Fraction and cls.scale == want, cls
                assert cls.scale is cls.scale

    def test_normals_primitive_and_oriented(self):
        for name in UNIMODULAR:
            for cls in hyperplane_classes(preset(name)):
                nz = [a for a in cls.alpha if a != 0]
                assert math.gcd(*(abs(a) for a in nz)) == 1 if len(nz) > 1 else nz[0] > 0
                assert nz[0] > 0

    def test_member_count_lower_bound(self):
        for name in UNIMODULAR:
            V = preset(name)
            for cls in hyperplane_classes(V):
                assert len(cls.members) >= V.margin + 1


class TestNonorthogonalCounting:
    def test_active_count_bound_small_frequencies(self):
        for name in ("tensor(2,2)", "courant", "courant2", "zp"):
            V = preset(name)
            for alpha in itertools.product(range(-5, 6), repeat=V.dimension):
                if all(a == 0 for a in alpha):
                    continue
                assert len(nonorthogonal_directions(V, alpha)) >= V.margin + 1

    def test_class_members_are_the_active_set(self):
        for name in UNIMODULAR:
            V = preset(name)
            for cls in hyperplane_classes(V):
                active = nonorthogonal_directions(V, cls.alpha)
                assert sorted(cls.members) == sorted(V.vectors[i] for i in active)


class TestProductDerivative:
    def test_hand_values(self):
        assert product_derivative((1, 1), [(1, 0), (0, 1)]) == 1
        assert product_derivative((2, 0), [(1, 0), (1, 0)]) == 2
        assert product_derivative((2, 0), [(1, 0), (0, 1)]) == 0
        assert product_derivative((1, 1), [(0, 1), (1, 1)]) == 1
        assert product_derivative((2, 0), [(0, 1), (1, 1)]) == 0
        assert product_derivative((0, 2), [(0, 1), (1, 1)]) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            product_derivative((1, 0), [(1, 0), (0, 1)])

    def test_vector_containers_agree_and_checks_outlive_the_cache(self):
        vectors = [(1, 2), (3, -1), (0, 1)]
        rows = np.array(vectors)
        want = product_derivative((2, 1), vectors)
        assert want == 6  # 2! 1! times the x^2 y coefficient 3 of (x + 2y)(3x - y) y
        for vecs in (vectors, tuple(vectors), [list(v) for v in vectors], list(rows), rows):
            got = product_derivative((2, 1), vecs)
            assert got == want and type(got) is int
        with pytest.raises(ValueError, match="order"):
            product_derivative((2, 2), vectors)
        with pytest.raises(ValueError, match="3 entries"):
            product_derivative((2, 1, 0), vectors)
        with pytest.raises(ValueError, match="integral"):
            product_derivative((2, 1), [(1, 2), (3, -1), (0, 1.5)])

    def test_against_sympy_expansion(self):
        rng = np.random.default_rng(9)
        x = sympy.symbols("x0 x1 x2")
        for _ in range(20):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, 4))
            vectors = [tuple(int(c) for c in rng.integers(-3, 4, size=d))
                       for _ in range(k)]
            if any(all(c == 0 for c in v) for v in vectors):
                continue
            poly = sympy.expand(sympy.prod(
                sum(int(v[j]) * x[j] for j in range(d)) for v in vectors))
            for beta in multi_indices(d, k):
                expr = poly
                for j, b in enumerate(beta.exponents):
                    expr = sympy.diff(expr, x[j], b)
                assert product_derivative(beta, vectors) == int(expr)

    def test_linear_form_product_expansion(self):
        coeffs = linear_form_product([(1, 2), (3, -1)])
        # (x + 2y)(3x - y) = 3x^2 + 5xy - 2y^2
        assert coeffs == {(2, 0): 3, (1, 1): 5, (0, 2): -2}

    def test_directional_expansion_identity(self):
        # sum_beta C(beta,U)/beta! x^beta reproduces the product itself
        vectors = [(1, 2), (3, -1), (0, 1)]
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(8, 2))
        direct = np.prod([pts @ np.array(v, dtype=float) for v in vectors], axis=0)
        total = np.zeros(8)
        for beta in multi_indices(2, 3):
            c = product_derivative(beta, vectors)
            total += c / beta.factorial * np.prod(pts ** np.array(beta.exponents), axis=1)
        assert np.abs(direct - total).max() < 1e-12
