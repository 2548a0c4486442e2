"""Gram assembly, truncated-window projection, error norms."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from boxproj import (
    BoxSplineEvaluator,
    DirectionSet,
    SolverError,
    autocorrelation_table,
    build_model,
    error_norm,
    preset,
    project,
    spline_values,
)
from boxproj import checks, projection, quadrature
from boxproj.checks import _doubled_autocorrelation, gram_symbol_range, residual_orthogonality
from boxproj.projection import _normal_operators, _right_hand_sides, cell_spline_table
from boxproj import testfunctions
from boxproj.testfunctions import bump, gaussian, monomial

THREE_D = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


class TestAutocorrelation:
    def test_hat_exact_values(self):
        table = autocorrelation_table(preset("bspline(2)"))
        assert abs(table.get((0,), 0.0) - 2 / 3) < 1e-12
        assert abs(table.get((1,), 0.0) - 1 / 6) < 1e-12
        assert abs(table.get((-1,), 0.0) - 1 / 6) < 1e-12
        assert abs(table.get((2,), 0.0)) < 1e-14

    def test_haar_is_orthonormal(self):
        table = autocorrelation_table(preset("haar"))
        assert set(table) == {(0,)}
        assert abs(table[(0,)] - 1.0) < 1e-14

    def test_two_routes_agree(self):
        for name in ("bspline(3)", "courant", "zp", "3d"):
            V = THREE_D if name == "3d" else preset(name)
            for gamma, val in autocorrelation_table(V).items():
                assert abs(val - _doubled_autocorrelation(V, gamma)) < 1e-8

    @pytest.mark.parametrize("name", ["haar", "bspline(2)", "bspline(3)", "tensor(1,1)",
                                      "tensor(2,2)", "courant", "courant2", "zp", "3d"])
    def test_table_matches_per_offset_quadrature(self, name):
        # reference: integrate B(x) B(x - gamma) over the support
        # intersection, one tiled cut-aware integration per offset
        V = THREE_D if name == "3d" else preset(name)
        spline = BoxSplineEvaluator(V)
        ref = {}
        for gamma in itertools.product(*[
                range(int(round(a - b)), int(round(b - a)) + 1)
                for a, b in zip(spline.support_lo, spline.support_hi)]):
            g = np.array(gamma, dtype=float)
            lo = np.maximum(spline.support_lo, spline.support_lo + g)
            hi = np.minimum(spline.support_hi, spline.support_hi + g)
            if np.any(hi - lo < 1e-12):
                continue
            val = float(quadrature.integrate(
                lambda X: spline(X) * spline(X - g), lo, hi,
                cuts=spline.quadrature_cuts(1.0), order=10, spacing=1.0))
            if abs(val) > 1e-14:
                ref[gamma] = val
        table = autocorrelation_table(V)
        assert list(table) == sorted(ref)
        assert max(abs(table[k] - ref[k]) for k in ref) <= 1e-15
        # a model's Gram table is the same contraction of its own cell table
        box = (np.zeros(V.dimension), np.ones(V.dimension))
        assert list(build_model(V, 0.5, box=box).gram.items()) == list(table.items())

    @staticmethod
    def _count_evaluations(monkeypatch, V, build, warm=lambda: None):
        """Evaluators built and spline points evaluated by build(), and
        the cap n_support_cells x n_nodes of one cell table of V.  The
        per-process cell tables are cleared first and warm() is run
        uncounted, so build() meets the cache warm() leaves."""
        projection._cell_tables.cache_clear()
        warm()
        spline = BoxSplineEvaluator(V)
        nodes = cell_spline_table(spline)[0]
        n_cells = int(np.prod(np.rint(spline.support_hi - spline.support_lo)))
        init, call = BoxSplineEvaluator.__init__, BoxSplineEvaluator.__call__
        built, seen = [], []

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counting_call(self, points):
            seen.append(len(np.atleast_2d(points)))
            return call(self, points)

        monkeypatch.setattr(BoxSplineEvaluator, "__init__", counting_init)
        monkeypatch.setattr(BoxSplineEvaluator, "__call__", counting_call)
        build()
        return len(built), sum(seen), n_cells * len(nodes)

    def test_table_builds_one_evaluator(self, monkeypatch):
        V = preset("courant2")
        built, points, cap = self._count_evaluations(
            monkeypatch, V, lambda: autocorrelation_table(V))
        assert built == 1
        assert points <= cap

    def test_build_model_evaluates_one_table(self, monkeypatch):
        V = preset("courant2")
        built, points, cap = self._count_evaluations(
            monkeypatch, V, lambda: build_model(V, 1 / 32, gaussian(2, 1.0)))
        assert built == 1
        assert points <= cap

    def test_second_rung_and_equal_set_evaluate_nothing(self, monkeypatch):
        # every model of an equal set shares the cell table and Gram table
        # of the first one built in the process, at any h
        V = preset("courant2")
        g = gaussian(2, 1.0)

        def build():
            rung = build_model(V, 1 / 8, g)
            equal = build_model(DirectionSet(preset("courant2").vectors), 1 / 4, g)
            assert equal.gram == rung.gram

        built, points, _ = self._count_evaluations(
            monkeypatch, V, build, warm=lambda: build_model(V, 1 / 4, g))
        assert built == 0
        assert points == 0

    def test_symmetry_and_row_sum(self):
        for name in ("bspline(2)", "courant", "tensor(2,2)"):
            table = autocorrelation_table(preset(name))
            for gamma, val in table.items():
                minus = tuple(-g for g in gamma)
                assert abs(val - table[minus]) < 1e-14
            assert abs(sum(table.values()) - 1.0) < 1e-12

    def test_symbol_range(self):
        # hat symbol (2 + cos(2 pi w)) / 3 has range [1/3, 1]
        lo, hi = gram_symbol_range(preset("bspline(2)"))
        assert abs(lo - 1 / 3) < 1e-10
        assert abs(hi - 1.0) < 1e-10
        # degenerate translates: symbol touches zero
        lo_zp, _ = gram_symbol_range(preset("zp"))
        assert abs(lo_zp) < 1e-12


class TestProjection:
    def test_haar_coefficients_are_cell_averages(self):
        V = preset("haar")
        f = monomial((1,))
        m = build_model(V, 1.0, box=(np.array([0.0]), np.array([6.0])), padding=0)
        c = project(m, f)
        for alpha in range(0, 6):
            assert abs(c.value_at((alpha,)) - (alpha + 0.5)) < 1e-12

    def test_haar_error_norms_exact(self):
        V = preset("haar")
        f = monomial((1,))
        m = build_model(V, 1.0, box=(np.array([0.0]), np.array([4.0])), padding=0)
        c = project(m, f)
        dom = (np.array([0.0]), np.array([4.0]))
        n2, p2 = error_norm(f, m, c, 2.0, domain=dom)
        assert abs(p2 - 4 / 12) < 1e-12
        # |e| kinks mid-cell where no knot line runs, so the rule is not
        # exact for p=1; the defect must shrink ~4x per doubling of order
        errs = [abs(error_norm(f, m, c, 1.0, domain=dom, order=o)[1] - 1.0)
                for o in (10, 20, 40)]
        assert errs[2] < 1e-3
        assert errs[0] > 3 * errs[1] > 9 * errs[2]

    def test_idempotence_on_spline_data(self):
        # projecting a function already in the space returns it
        V = preset("bspline(2)")
        rng = np.random.default_rng(2)
        m = build_model(V, 1.0, box=(np.array([-6.0]), np.array([6.0])), padding=0)
        coeffs = rng.normal(size=m.window_shape)
        c0 = type(project(m, gaussian(1, 1.0)))(
            window_lo=m.window_lo, values=coeffs, residual=0.0)

        class Spline:
            def value(self, x):
                return spline_values(m, c0, x)

        c1 = project(m, Spline())
        inner = np.abs(c1.values[3:-3] - coeffs[3:-3]).max()
        assert inner < 1e-10

    def test_scaling_law_exact(self):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        mh = build_model(V, 0.25, g)
        ch = project(mh, g)
        m1 = build_model(V, 1.0, g.rescale(0.25))
        c1 = project(m1, g.rescale(0.25))
        assert mh.window_lo == m1.window_lo
        assert np.abs(ch.values - c1.values).max() < 1e-12

    def test_residual_orthogonality_fresh(self):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 0.5, g)
        c = project(m, g)
        r = residual_orthogonality(g, m, c, [(-2,), (0,), (3,)])
        assert r < 1e-10

    def test_perturbed_gram_breaks_orthogonality(self):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 0.5, g)
        m.gram[(1,)] = m.gram[(1,)] + 1e-3
        c = project(m, g)
        r = residual_orthogonality(g, m, c, [(-2,), (0,), (3,)])
        assert r > 1e-6

    def test_gram_edit_takes_effect_without_reset(self):
        # nothing derived from the Gram table is kept between projections,
        # so a second projection after an edit solves the edited system
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 0.5, g)
        before = project(m, g)
        m.gram[(1,)] = m.gram[(1,)] + 1e-3
        after = project(m, g)
        assert np.abs(after.values - before.values).max() > 1e-6
        r = residual_orthogonality(g, m, after, [(-2,), (0,), (3,)])
        assert r > 1e-6

    def test_coefficients_vanish_outside_window(self):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 1.0, g)
        c = project(m, g)
        assert c.value_at((10 ** 6,)) == 0.0

    def test_padding_growth_is_stable(self):
        V = preset("courant")
        g = gaussian(2, 1.0)
        m1 = build_model(V, 0.5, g)
        c1 = project(m1, g)
        m2 = build_model(V, 0.5, g, padding=2 * m1.padding)
        c2 = project(m2, g)
        probe = [(0, 0), (1, -1), (2, 2), (-3, 1)]
        for alpha in probe:
            assert abs(c1.value_at(alpha) - c2.value_at(alpha)) < 1e-8

    @pytest.mark.parametrize("h", [0.0, -0.25, np.inf, np.nan])
    def test_mesh_size_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="mesh size"):
            build_model(preset("bspline(2)"), h, gaussian(1, 1.0))

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            build_model(preset("bspline(2)"), 0.5, gaussian(1, 1.0), padding=-1)

    def test_oversize_window_rejected(self):
        V = preset("courant")
        with pytest.raises(ValueError, match="cap"):
            build_model(V, 1.0, box=(np.full(2, -1000.0), np.full(2, 1000.0)),
                        padding=0)

    def test_corrupt_gram_raises(self):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 0.5, g)
        m.gram[(1,)] = float("nan")
        with pytest.raises(SolverError):
            project(m, g)

    def test_non_finite_gram_fails_before_iterating(self, monkeypatch):
        # on NaN entries conjugate gradients would run all 10 n iterations
        m = build_model(preset("courant"), 1 / 16, box=(np.full(2, -3.0), np.full(2, 3.0)))
        assert m.unknowns == 12321
        m.gram[(1, 0)] = float("nan")

        class NoSolver:
            def cg(self, *args, **kwargs):
                raise AssertionError("solver called on a non-finite Gram table")

        monkeypatch.setattr("boxproj.projection.spla", NoSolver())
        with pytest.raises(SolverError, match=r"non-finite Gram entry a\(1, 0\)"):
            project(m, monomial((1, 0)))

    def test_non_finite_f_fails_before_iterating(self, monkeypatch):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 0.5, g)
        monkeypatch.setattr("boxproj.projection.spla", None)
        with pytest.raises(SolverError, match="non-finite right-hand side"):
            project(m, lambda X: np.full(len(X), np.nan))

    def test_box_of_other_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension 1"):
            build_model(preset("bspline(2)"), 0.5, box=(np.zeros(2), np.ones(2)))

    @pytest.mark.parametrize("lo, hi", [([1.0, 1.0], [-5.0, -5.0]), ([0.0, 1.0], [1.0, 0.5]),
                                        ([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0]),
                                        ([-np.inf, 0.0], [1.0, 1.0])])
    def test_reversed_or_non_finite_box_rejected(self, lo, hi):
        # a reversed box used to build a negative window shape, and an
        # infinite corner a shape whose negative product passed the cap
        with pytest.raises(ValueError, match="reversed|not finite"):
            build_model(preset("courant"), 0.25, box=(lo, hi))

    def test_zero_width_box_accepted(self):
        m = build_model(preset("courant"), 0.25, box=([0.5, 0.5], [0.5, 0.5]), padding=0)
        assert min(m.window_shape) >= 1

    def test_spline_values_points_of_other_dimension_rejected(self):
        g = gaussian(1, 1.0)
        m = build_model(preset("bspline(2)"), 0.5, g)
        c = project(m, g)
        with pytest.raises(ValueError, match="dimension 2"):
            spline_values(m, c, np.zeros((3, 2)))

    def test_spline_values_one_evaluation_per_block(self, monkeypatch):
        # 16 support offsets on courant2: 49 points are 784 (point, offset)
        # pairs, one block; a chunk of 160 pairs makes blocks of 10 points
        V = preset("courant2")
        g = gaussian(2, 1.0)
        m = build_model(V, 0.25, g)
        c = project(m, g)
        X = np.random.default_rng(4).uniform(-2.0, 2.0, size=(49, 2))
        calls = []
        call = BoxSplineEvaluator.__call__
        monkeypatch.setattr(BoxSplineEvaluator, "__call__",
                            lambda self, pts: calls.append(len(pts)) or call(self, pts))
        whole = spline_values(m, c, X)
        assert len(calls) == 1
        monkeypatch.setattr(quadrature, "SAMPLE_CHUNK", 160)
        calls.clear()
        blocked = spline_values(m, c, X)
        assert len(calls) == 5
        assert np.array_equal(whole, blocked)
        ref = sum(c.value_at(a) * m.evaluator(X / m.h - a)
                  for a in itertools.product(range(-12, 13), repeat=2))
        assert np.abs(whole - ref).max() < 1e-14

    def test_spline_values_outside_support_zero(self):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 1.0, g)
        c = project(m, g)
        far = np.array([[50.0], [-50.0]])
        assert np.abs(spline_values(m, c, far)).max() == 0.0


class TestErrorNorm:
    def test_domain_snapping_consistency(self):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 0.5, g)
        c = project(m, g)
        full, _ = error_norm(g, m, c, 2.0)
        half, _ = error_norm(g, m, c, 2.0, domain=(np.array([-2.0]), np.array([2.0])))
        assert half <= full + 1e-15

    def test_domain_of_other_dimension_rejected(self):
        g = gaussian(1, 1.0)
        m = build_model(preset("bspline(2)"), 0.5, g)
        c = project(m, g)
        with pytest.raises(ValueError, match="dimension 1"):
            error_norm(g, m, c, 2.0, domain=(np.zeros(2), np.ones(2)))

    @pytest.mark.parametrize("lo, hi", [([1.0, 1.0], [-1.0, -1.0]), ([np.nan, 0.0], [1.0, 1.0]),
                                        ([0.0, 0.0], [1.0, np.inf])])
    def test_reversed_or_non_finite_domain_rejected(self, lo, hi):
        # a reversed domain used to give (0.0, 0.0)
        g = gaussian(2, 1.0)
        m = build_model(preset("courant"), 0.5, g)
        c = project(m, g)
        with pytest.raises(ValueError, match="reversed|not finite"):
            error_norm(g, m, c, 2.0, domain=(lo, hi))

    def test_zero_width_domain_is_one_cell_or_none(self):
        g = gaussian(1, 1.0)
        m = build_model(preset("bspline(2)"), 0.5, g)
        c = project(m, g)
        assert error_norm(g, m, c, 2.0, domain=([1.0], [1.0])) == (0.0, 0.0)
        one_cell = error_norm(g, m, c, 2.0, domain=([0.5], [1.0]))
        assert error_norm(g, m, c, 2.0, domain=([0.75], [0.75])) == one_cell

    @pytest.mark.parametrize("p", [0.0, 0.5, -1.0, np.inf, np.nan])
    def test_exponent_below_one_or_not_finite_rejected(self, p):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 0.5, g)
        c = project(m, g)
        with pytest.raises(ValueError, match="exponent"):
            error_norm(g, m, c, p)

    def test_p1_and_p3_run(self):
        V = preset("bspline(2)")
        g = gaussian(1, 1.0)
        m = build_model(V, 0.5, g)
        c = project(m, g)
        for p in (1.0, 3.0):
            norm, power = error_norm(g, m, c, p)
            assert norm > 0
            assert abs(power - norm ** p) < 1e-12 * max(1.0, power)


def _pointwise_error_powers(f, m, c, domain, ps):
    """Error powers for every p in ps by pointwise spline evaluation at the
    points of the tiled mesh-cell rule; one pass serves all p (the
    integrand has one column per p)."""
    h = m.h
    lo = np.floor(np.asarray(domain[0]) / h) * h
    hi = np.ceil(np.asarray(domain[1]) / h) * h
    pcol = np.asarray(ps)

    def integrand(X):
        return np.abs(f.value(X) - spline_values(m, c, X))[:, None] ** pcol

    return quadrature.integrate(integrand, lo, hi, cuts=m.evaluator.quadrature_cuts(h),
                                order=10, spacing=h)


class TestCellSplineTable:
    PS = (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("name", ["haar", "bspline(3)", "tensor(2,2)", "courant",
                                      "courant2"])
    @pytest.mark.parametrize("h", [0.5, 0.25])
    def test_table_route_matches_pointwise(self, name, h):
        V = preset(name)
        d = V.dimension
        g = gaussian(d, 1.0)
        m = build_model(V, h, g)
        c = project(m, g)
        # a small box keeps the pointwise route cheap on courant2
        dom = (np.full(d, -0.75), np.full(d, 1.25))
        ref = _pointwise_error_powers(g, m, c, dom, self.PS)
        for p, want in zip(self.PS, ref):
            _, got = error_norm(g, m, c, p, domain=dom)
            assert abs(got - want) <= 1e-12 * want

    def test_table_route_matches_pointwise_3d(self):
        V = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        g = gaussian(3, 1.0)
        m = build_model(V, 0.5, box=(np.full(3, -0.5), np.full(3, 0.5)), padding=0)
        c = project(m, g)
        # the domain's cells gather coefficients past the window on every
        # side (the offsets run over {-1, 0}^3)
        dom = (np.full(3, -1.5), np.full(3, 1.5))
        assert np.all(np.floor(dom[0] / m.h) - 1 < m.window_lo)
        assert np.all(np.ceil(dom[1] / m.h) > m.window_lo + np.array(m.window_shape))
        ref = _pointwise_error_powers(g, m, c, dom, self.PS)
        for p, want in zip(self.PS, ref):
            _, got = error_norm(g, m, c, p, domain=dom)
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("name", ["haar", "bspline(2)", "bspline(3)", "tensor(1,1)",
                                      "tensor(2,2)", "courant", "courant2", "zp", "3d"])
    def test_no_dead_rows(self, name):
        V = THREE_D if name == "3d" else preset(name)
        _, _, offsets, table = cell_spline_table(BoxSplineEvaluator(V))
        assert len(offsets) == len(table)
        assert np.all(np.any(table != 0.0, axis=1))

    @pytest.mark.parametrize("name", ["haar", "bspline(3)", "tensor(2,2)", "courant",
                                      "courant2"])
    def test_dropped_rows_change_nothing(self, name):
        # the same model with a table over every support cell, the cells on
        # which the spline vanishes included, gives the same projection
        V = preset(name)
        g = gaussian(V.dimension, 1.0)
        m = build_model(V, 0.25, g)
        nodes, weights, _, _ = m.cell_table
        spline = m.evaluator
        cells = np.array(list(itertools.product(*[
            range(int(a), int(b)) for a, b in zip(np.rint(spline.support_lo),
                                                  np.rint(spline.support_hi))])))
        pts, _ = quadrature.tile_rule(nodes, weights, cells)
        full = replace(m, cell_table=(nodes, weights, -cells,
                                      spline(pts).reshape(len(cells), len(nodes))))
        if name == "courant2":
            assert len(m.cell_table[2]) == 14 < len(cells)
        c, c_full = project(m, g), project(full, g)
        assert np.abs(c.values - c_full.values).max() <= 1e-13 * np.abs(c_full.values).max()
        for p in (1.0, 2.0):
            _, got = error_norm(g, m, c, p)
            _, want = error_norm(g, full, c_full, p)
            assert abs(got - want) <= 1e-13 * want

    def test_spline_evaluations_do_not_grow_with_refinement(self, monkeypatch):
        # on a cold cache, build_model's table is the only spline
        # evaluation in a build/project/error_norm pass: the Gram table is
        # contracted from it and error_norm reuses it
        V = preset("courant")
        g = gaussian(2, 1.0)
        nodes, _, offsets, _ = cell_spline_table(BoxSplineEvaluator(V))
        call = BoxSplineEvaluator.__call__
        seen = []

        def counting(self, points):
            seen.append(len(np.atleast_2d(points)))
            return call(self, points)

        monkeypatch.setattr(BoxSplineEvaluator, "__call__", counting)
        counts = []
        for h in (0.25, 0.125):
            projection._cell_tables.cache_clear()
            before = sum(seen)
            m = build_model(V, h, g)
            c = project(m, g)
            error_norm(g, m, c, 2.0)
            counts.append(sum(seen) - before)
        assert counts[0] == counts[1]
        assert 0 < counts[0] <= len(nodes) * len(offsets)


def _masked_gather_error_power(f, m, c, p, domain, order):
    """The p-th power of error_norm by a per-offset gather: for each
    support offset, the coefficients of the cells whose m + delta falls in
    the window, under a bounds mask, and |f - Pf| ** p at every p."""
    h, d = m.h, m.V.dimension
    mlo = np.floor(np.asarray(domain[0], dtype=float) / h).astype(int)
    shape = np.ceil(np.asarray(domain[1], dtype=float) / h).astype(int) - mlo
    nodes, weights, offsets, table = cell_spline_table(m.evaluator, order)
    wlo, dims = np.array(c.window_lo), np.array(c.values.shape)
    power = 0.0
    for start, fvals in projection._cell_samples(f, h, nodes, mlo, shape):
        cells = mlo + np.stack(np.unravel_index(
            np.arange(start, start + len(fvals)), shape), axis=1)
        gathered = np.zeros((len(cells), len(offsets)))
        for j, delta in enumerate(offsets):
            idx = cells + delta - wlo
            ok = np.all((idx >= 0) & (idx < dims), axis=1)
            gathered[ok, j] = c.values[tuple(idx[ok].T)]
        diff = gathered @ table
        np.subtract(fvals, diff, out=diff)
        np.abs(diff, out=diff)
        diff **= p
        power += float(np.sum(diff @ weights))
    return power * h ** d


class TestFlatGather:
    # first-axis extents of the domain, the other axes span [-0.5, 0.25]:
    # inside the window, straddling its upper edge, past it on both sides,
    # and of zero width on a mesh line (no cell at all)
    EXTENTS = {"inside": (-0.5, 0.5), "straddling": (0.5, 2.5),
               "beyond": (-3.5, 3.5), "zero width": (0.5, 0.5)}

    @pytest.mark.parametrize("name", ["bspline(3)", "courant2", "3d"])
    def test_bitwise_equal_to_masked_gather(self, name):
        V = THREE_D if name == "3d" else preset(name)
        d = V.dimension
        g = gaussian(d, 1.0)
        m = build_model(V, 0.5, box=(np.full(d, -1.0), np.full(d, 1.0)), padding=0)
        c = project(m, g)
        upper = m.h * (m.window_lo[0] + m.window_shape[0])
        lower = m.h * m.window_lo[0]
        for where, (a, b) in self.EXTENTS.items():
            dom = (np.array([a] + [-0.5] * (d - 1)), np.array([b] + [0.25] * (d - 1)))
            if where == "straddling":
                assert a < upper < b
            if where == "beyond":
                assert a < lower and upper < b
            for p, order in itertools.product((2.0, 3.0), (10, 16)):
                norm, got = error_norm(g, m, c, p, domain=dom, order=order)
                want = _masked_gather_error_power(g, m, c, p, dom, order)
                assert got == want, (where, p, order)
                assert norm == want ** (1.0 / p)
                assert (got == 0.0) == (where == "zero width")


class TestSharedTables:
    def test_gram_edit_stays_in_its_model(self):
        V = preset("courant")
        g = gaussian(2, 1.0)
        m = build_model(V, 0.25, g)
        want = m.gram[(1, 0)]
        m.gram[(1, 0)] += 1e-3
        assert build_model(V, 0.125, g).gram[(1, 0)] == want
        table = autocorrelation_table(V)
        assert table[(1, 0)] == want
        table[(1, 0)] += 1e-3
        assert autocorrelation_table(V)[(1, 0)] == want

    def test_cell_table_is_read_only(self):
        m = build_model(preset("courant"), 0.25, gaussian(2, 1.0))
        with pytest.raises(ValueError):
            m.cell_table[3][0, 0] = 1.0

    def test_perturbed_battery_leaves_the_next_one_passing(self):
        perturbed = checks.run_battery(perturb_gram=1e-3)
        assert any(not r.passed for r in perturbed)
        results = checks.run_battery()
        assert len(results) == len(perturbed)
        assert [r.name for r in results if not r.passed] == []


class Polynomial:
    """1 + sum_i x_i + 0.3 |x|^2 + 0.2 prod_i x_i: nonzero at every window
    edge, so the shifts whose supports leave the window see f there."""

    def value(self, X):
        X = np.atleast_2d(X)
        return 1.0 + X.sum(axis=1) + 0.3 * (X ** 2).sum(axis=1) + 0.2 * X.prod(axis=1)


def _reference_right_hand_sides(m, f):
    """b_alpha = sum over the support rule of f(h(alpha + p)) w_p B(p): the
    support cells' rule laid out around each shift, f sampled per shift."""
    nodes, weights, offsets, _ = cell_spline_table(m.evaluator)
    pts, wts = quadrature.tile_rule(nodes, weights, -offsets)
    bw = wts * m.evaluator(pts)
    return np.array([f.value(m.h * (alpha + pts)) @ bw for alpha in m.window_alphas()])


class TestRightHandSides:
    @pytest.mark.parametrize("name, h", [("haar", 0.25), ("bspline(3)", 0.25),
                                         ("tensor(2,2)", 0.25), ("courant", 0.25),
                                         ("courant2", 0.25), ("3d", 0.5)])
    def test_stencil_matches_reference(self, name, h):
        if name == "3d":
            V = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        else:
            V = preset(name)
        d = V.dimension
        m = build_model(V, h, box=(np.full(d, -0.5), np.full(d, 1.0)), padding=0)
        # the polynomial takes the point route, the product test functions
        # the tensor route of their factor tables
        for f in (Polynomial(), gaussian(d, 0.7), bump(d, 1.5),
                  monomial(((3,), (1, 2), (1, 0, 2))[d - 1])):
            want = _reference_right_hand_sides(m, f)
            got = _right_hand_sides(m, f)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            coeffs = project(m, f)
            c_ref = np.linalg.solve(m.matrix().toarray(), want).reshape(m.window_shape)
            assert np.abs(coeffs.values - c_ref).max() <= 1e-12 * np.abs(c_ref).max()

    def test_f_sampled_once_per_cell_node(self):
        # one sample per node of every mesh cell a window shift's support
        # covers: the window grown by the support extent, not unknowns times
        # the support's node count
        V = preset("courant")
        spline = BoxSplineEvaluator(V)
        extent = np.rint(spline.support_hi - spline.support_lo).astype(int)
        nodes, _, _, _ = cell_spline_table(spline)
        f = Polynomial()
        seen = []

        class Counting:
            def value(self, X):
                seen.append(len(X))
                return f.value(X)

        for h in (0.25, 0.125):
            m = build_model(V, h, box=(np.full(2, -1.0), np.full(2, 1.0)))
            seen.clear()
            project(m, Counting())
            grown = np.array(m.window_shape) + extent - 1
            assert sum(seen) == len(nodes) * int(np.prod(grown))


class TestSamplingRoute:
    """A test function is sampled through its per-axis factors; any other
    callable, a `TestFunction` without `factor` included, point by point."""

    @pytest.mark.parametrize("name", ["bspline(3)", "courant", "3d"])
    def test_factor_tables_replace_per_node_calls(self, monkeypatch, name):
        V = THREE_D if name == "3d" else preset(name)
        d = V.dimension
        box = (np.full(d, -0.5), np.full(d, 0.5))
        m = build_model(V, 0.5, box=box, padding=1)
        for f in (gaussian(d, 0.6), bump(d, 0.9), monomial((1,) * d)):
            axes = []
            factor, cls = f.factor, type(f)

            def counted_factor(self, axis, t, factor=factor):
                axes.append(axis)
                return factor(axis, t)

            def no_derivative(self, beta, x):
                raise AssertionError("derivative called on the tensor route")

            with monkeypatch.context() as patch:
                patch.setattr(cls, "factor", counted_factor)
                patch.setattr(cls, "derivative", no_derivative)
                coeffs = project(m, f)
                assert axes == list(range(d))
                error_norm(f, m, coeffs, 2.0, domain=box)
                assert axes == 2 * list(range(d))
            point = project(m, f.value)
            assert np.abs(coeffs.values - point.values).max() <= 1e-14 * np.abs(point.values).max()

    def test_callables_without_factors_keep_the_point_route(self):
        g = gaussian(2, 0.6)

        class Plain(testfunctions.TestFunction):
            def __init__(self):
                super().__init__(2)
                self.points = 0

            def derivative(self, beta, x):
                self.points += len(x)
                return g.derivative(beta, x)

            def effective_box(self):
                return g.effective_box()

        seen = []

        def opaque(X):
            seen.append(len(X))
            return g.value(X)

        m = build_model(preset("courant"), 0.5, g)
        plain = Plain()
        assert not hasattr(plain, "factor")
        with_plain, with_opaque = project(m, plain), project(m, opaque)
        assert plain.points > 0 and sum(seen) == plain.points
        want = project(m, g.value)
        assert np.array_equal(with_plain.values, want.values)
        assert np.array_equal(with_opaque.values, want.values)
        box = g.effective_box()
        assert (error_norm(plain, m, want, 2.0) == error_norm(opaque, m, want, 2.0, domain=box)
                == error_norm(g.value, m, want, 2.0, domain=box))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_point_and_tensor_routes_sample_alike(self, d):
        # `value` is the product of the factor rows in the order the tensor
        # route multiplies its factor tables, so the samples are the same
        # bytes; the domain reaches past the bump's support, where both
        # routes give zeros
        nodes, _ = quadrature.tensor_rule([0.0] * d, [1.0] * d, 3)
        lo, shape = (-4,) * d, (8,) * d
        for f in (gaussian(d, 0.7), bump(d, 1.5)):
            routes = [np.concatenate([vals.copy() for _, vals in
                                      projection._cell_samples(g, 0.5, nodes, lo, shape)])
                      for g in (f, lambda X: f.value(X))]
            tensor, point = routes
            assert np.any(tensor == 0.0) == (f.tag == "bump")
            assert tensor.tobytes() == point.tobytes(), f.tag


def _per_node_samples(f, h, nodes, lo, shape):
    """Reference tensor-route samples: for each cell in C order, the rows of
    `_factor_tables` at its indices, multiplied left to right over the axes,
    one node at a time."""
    tables = projection._factor_tables(f.factor, h, nodes, lo, shape)
    cells = np.stack(np.unravel_index(np.arange(int(np.prod(shape))), shape), axis=1)
    out = tables[0][cells[:, 0]]
    for j in range(1, len(shape)):
        out = out * tables[j][cells[:, j]]
    return out


class TestRowBatches:
    """The tensor route of `_cell_samples` takes a row of cells along the
    last axis as one broadcast product: a batch is whole rows, or a segment
    of one row when a row is longer than the batch."""

    # (lo, shape, cells per batch): None keeps SAMPLE_CHUNK
    CASES = [
        ((-3,), (7,), None),          # one whole row
        ((-3,), (7,), 7),             # the batch is exactly one row
        ((-3,), (7,), 3),             # segments 3, 3, 1
        ((-1, 2), (4, 5), None),      # every row in one batch
        ((-1, 2), (4, 5), 10),        # two whole rows a batch
        ((-1, 2), (4, 5), 13),        # two whole rows, the batch not full
        ((-1, 2), (4, 5), 5),         # one row a batch, each ending a row
        ((-1, 2), (4, 5), 3),         # segments 3, 2: every second ends a row
        ((0, -2, 1), (2, 3, 4), None),
        ((0, -2, 1), (2, 3, 4), 2),   # segments 2, 2, ending a row
        ((0, -2, 1), (2, 3, 4), 3),   # segments 3, 1
        ((0, -2, 1), (2, 3, 4), 1),
    ]

    @pytest.mark.parametrize("lo, shape, cells", CASES)
    def test_bitwise_equal_to_per_node_products(self, monkeypatch, lo, shape, cells):
        d = len(shape)
        nodes, _ = quadrature.tensor_rule([0.0] * d, [1.0] * d, 3)
        n, width = len(nodes), shape[-1]
        if cells is not None:
            monkeypatch.setattr(quadrature, "SAMPLE_CHUNK", cells * n)
        step = max(1, quadrature.SAMPLE_CHUNK // n)
        for f in (gaussian(d, 0.7), bump(d, 2.5), monomial((2,) * d)):
            want = _per_node_samples(f, 0.5, nodes, lo, shape)
            end = 0
            for start, vals in projection._cell_samples(f, 0.5, nodes, lo, shape):
                k = len(vals)
                assert start == end and 0 < k <= step
                # whole rows, or a segment within one row
                assert (start % width == 0 and k % width == 0) or \
                    start // width == (start + k - 1) // width
                assert np.array_equal(vals, want[start:start + k])
                end = start + k
            assert end == int(np.prod(shape))

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4), (2, 0, 3)])
    def test_no_cell_yields_nothing(self, shape):
        d = len(shape)
        nodes, _ = quadrature.tensor_rule([0.0] * d, [1.0] * d, 2)
        assert list(projection._cell_samples(gaussian(d, 1.0), 0.5, nodes, (0,) * d,
                                             shape)) == []

    # error powers at h, p of gaussian(d, 1) over its effective box, taken
    # with 65,536-node batches and a per-node gather of the factor rows; the
    # row batches change only the order in which batch sums are added
    POWERS = [
        ("courant", 0.25, 2.0, 0.0003183423334519785),
        ("courant", 0.25, 3.0, 5.818215390354455e-06),
        ("tensor(2,2)", 0.25, 2.0, 0.00020251788577695784),
        ("tensor(2,2)", 0.25, 3.0, 3.5498151431996066e-06),
        ("3d", 0.5, 2.0, 0.011607073175473027),
        ("3d", 0.5, 3.0, 0.0009778571015646733),
        ("3d", 0.25, 2.0, 0.0004688851773819698),
    ]

    @pytest.mark.parametrize("name, h, p, want", POWERS)
    def test_error_powers_unchanged(self, name, h, p, want):
        V = THREE_D if name == "3d" else preset(name)
        g = gaussian(V.dimension, 1.0)
        m = build_model(V, h, g)
        _, got = error_norm(g, m, project(m, g), p)
        assert abs(got - want) <= 1e-14 * want


def _ones_lead_product(lead, shape, start, stop, n):
    """`_lead_product` as a running product started from a block of ones."""
    K = np.ones((stop - start, n))
    if lead:
        for table, i in zip(lead, np.unravel_index(np.arange(start, stop), shape)):
            K *= table[i]
    return K


def _reference_error_norm(f, m, c, p, domain, order, monkeypatch):
    """error_norm by the batch loop it replaced: flat cell indices from
    `box_cells` times the strides, a fresh `gathered @ table` per batch,
    and tensor-route samples whose lead starts from ones."""
    h, d = m.h, m.V.dimension
    if domain is None:
        domain = f.effective_box()
    dlo, dhi = (np.asarray(a, dtype=float) for a in domain)
    mlo = np.floor(dlo / h).astype(int)
    shape = np.ceil(dhi / h).astype(int) - mlo
    nodes, weights, offsets, table = projection._cell_tables(m.V, order)[1]
    rlo = mlo + offsets.min(axis=0)
    reach = shape + np.ptp(offsets, axis=0)
    grid = np.zeros(reach)
    wlo = np.array(c.window_lo)
    lo, hi = np.maximum(wlo, rlo), np.minimum(wlo + c.values.shape, rlo + reach)
    if np.all(hi > lo):
        grid[tuple(map(slice, lo - rlo, hi - rlo))] = \
            c.values[tuple(map(slice, lo - wlo, hi - wlo))]
    flat = grid.ravel()
    strides = np.cumprod((1,) + tuple(reach[:0:-1]))[::-1]
    base = quadrature.box_cells(mlo - rlo, mlo - rlo + shape) @ strides
    shift = offsets @ strides
    power = 0.0
    with monkeypatch.context() as patch:
        patch.setattr(projection, "_lead_product", _ones_lead_product)
        for start, fvals in projection._cell_samples(f, h, nodes, mlo, shape):
            diff = flat.take(base[start:start + len(fvals), None] + shift) @ table
            np.subtract(fvals, diff, out=diff)
            if p == 2:
                diff *= diff
            else:
                np.abs(diff, out=diff)
                diff **= p
            power += float((diff @ weights).sum())
    power *= h ** d
    return power ** (1.0 / p), power


class TestBatchLoop:
    """error_norm's batch loop (outer-sum cell indices, the lead started
    from the first table's rows or read in place, the spline values written
    into one buffer per call) gives the bytes of the loop it replaced, on
    both sampling routes; tensor(1,1) and haar have one-row cell tables."""

    @pytest.mark.parametrize("name", ["tensor(1,1)", "haar", "bspline(2)", "tensor(2,2)",
                                      "courant", "3d"])
    def test_bitwise_equal_to_reference_loop(self, monkeypatch, name):
        V = THREE_D if name == "3d" else preset(name)
        d = V.dimension
        h = 0.5 if name == "3d" else 0.25
        g = gaussian(d, 0.6)
        m = build_model(V, h, g)
        c = project(m, g)
        domains = {"default": None, "explicit": (np.full(d, -0.7), np.linspace(0.45, 3.0, d))}
        for (where, dom), p, order in itertools.product(domains.items(), (1.0, 2.0, 3.0),
                                                        (10, 12)):
            # the point route (an opaque callable) needs its box spelled out
            box = g.effective_box() if dom is None else dom
            for f, domain in ((g, dom), (g.value, box)):
                got = error_norm(f, m, c, p, domain=domain, order=order)
                want = _reference_error_norm(f, m, c, p, domain, order, monkeypatch)
                assert np.array(got).tobytes() == np.array(want).tobytes(), \
                    (where, p, order, f is g)

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4)])
    def test_lead_product_bitwise_from_ones(self, shape):
        rng = np.random.default_rng(len(shape))
        n = 7
        lead = []
        for k in shape:
            t = rng.standard_normal((k, n))
            t[rng.random((k, n)) < 0.2] = -0.0
            lead.append(t)
        rows = int(np.prod(shape))
        # the whole grid, ranges that start mid-grid and cross rows of the
        # last leading axis, one row, and no row
        for start, stop in ((0, rows), (1, rows), (rows // 2, rows), (min(2, rows), min(rows, 9)),
                            (rows - 1, rows), (rows // 2, rows // 2)):
            got = projection._lead_product(lead, shape, start, stop, n)
            want = _ones_lead_product(lead, shape, start, stop, n)
            assert got.shape == want.shape == (stop - start, n)
            assert got.tobytes() == want.tobytes(), (start, stop)
            if len(lead) == 1:
                assert got.base is lead[0]


def _reference_matrix(m):
    """The Gram matrix by COO assembly: for each offset gamma, the rows alpha
    of the window whose column alpha - gamma stays inside it."""
    dims = m.window_shape
    rows, cols, vals = [], [], []
    for gamma, a in m.gram.items():
        alpha_idx = quadrature.box_cells(np.maximum(0, gamma), dims + np.minimum(0, gamma))
        if len(alpha_idx) == 0:
            continue
        beta_idx = alpha_idx - np.array(gamma)
        rows.append(np.ravel_multi_index(alpha_idx.T, dims))
        cols.append(np.ravel_multi_index(beta_idx.T, dims))
        vals.append(np.full(len(alpha_idx), a))
    n = m.unknowns
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()


def _assert_stencil_is_matrix(m, rng):
    """The Gram operator `project` solves with is `matrix()`, to roundoff."""
    A, _ = _normal_operators(m)
    for _ in range(3):
        c = rng.standard_normal(m.unknowns)
        want = m.matrix() @ c
        assert np.abs(A(c) - want).max() <= 1.1e-15 * np.abs(want).max()


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


class TestMatrix:
    @pytest.mark.parametrize("name", ["haar", "bspline(2)", "bspline(3)", "tensor(1,1)",
                                      "tensor(2,2)", "courant", "courant2", "zp", "3d"])
    def test_matches_coo_reference(self, name):
        # and the stencil operator of `project` matches the matrix, also
        # after an edit to the table
        rng = np.random.default_rng(7)
        V = THREE_D if name == "3d" else preset(name)
        d = V.dimension
        m = build_model(V, 0.5 if name == "3d" else 0.25,
                        box=(np.full(d, -1.0), np.full(d, 1.0)))
        _assert_same_csr(m.matrix(), _reference_matrix(m))
        _assert_stencil_is_matrix(m, rng)
        gamma = max(m.gram)
        m.gram[gamma] = m.gram[gamma] + 1e-3
        _assert_same_csr(m.matrix(), _reference_matrix(m))
        _assert_stencil_is_matrix(m, rng)

    def test_coinciding_flat_offsets(self):
        # on a window barely wider than the support, offsets (0, 3) and
        # (1, -2) share one flat offset; their entries must both appear.
        # `matrix()` is a Kronecker sum with no flat offset, so the case
        # now guards the stencil, which shifts by flat offsets on its
        # padded window
        m = build_model(preset("courant2"), 1.0, box=(np.zeros(2), np.zeros(2)), padding=0)
        strides = (m.window_shape[1], 1)
        flat = [np.dot(g, strides) for g in m.gram]
        assert len(set(flat)) < len(flat)
        _assert_same_csr(m.matrix(), _reference_matrix(m))
        _assert_stencil_is_matrix(m, np.random.default_rng(8))


class TestNormalOperators:
    """`project` solves with the Gram stencil and the inverse-symbol
    preconditioner of `_normal_operators`, never with `matrix()`; the
    stencil is checked against `matrix()`, the Kronecker sum of the Gram
    table that serves as its reference, in `TestMatrix`."""

    @pytest.mark.parametrize("name", ["bspline(3)", "tensor(2,2)", "courant2", "3d"])
    def test_preconditioner_inverts_away_from_edges(self, name):
        # the padded grid is wide enough that the circulant of the table,
        # restricted to the window, is the Gram matrix: on coefficients
        # that stay a table reach away from every edge, M A is the identity
        V = THREE_D if name == "3d" else preset(name)
        d = V.dimension
        m = build_model(V, 0.5 if name == "3d" else 0.25,
                        box=(np.full(d, -1.0), np.full(d, 1.0)))
        A, M = _normal_operators(m)
        reach = np.max(np.abs(np.array(list(m.gram))), axis=0)
        c = np.zeros(m.window_shape)
        inner = tuple(slice(r, k - r) for r, k in zip(reach, m.window_shape))
        c[inner] = np.random.default_rng(9).standard_normal(c[inner].shape)
        assert np.abs(M(A(c.ravel())) - c.ravel()).max() <= 1e-13

    def test_iterations_on_a_polynomial(self):
        # criterion 5's courant2 window: 94-98 iterations without the
        # preconditioner, 16-17 with it
        m = build_model(preset("courant2"), 1 / 32, box=(np.full(2, -2.0), np.full(2, 2.0)))
        coeffs = project(m, Polynomial())
        assert coeffs.iterations <= 20
        assert coeffs.residual <= 1e-12

    @pytest.mark.parametrize("name", ["tensor(1,1)", "tensor(2,2)", "courant"])
    @pytest.mark.parametrize("scale", [0.8, 1.25])
    def test_iterations_on_a_padded_gaussian(self, name, scale):
        # a window padded around a decaying f sees no edge: one or two
        # iterations (23-36 on tensor(2,2) and courant without the
        # preconditioner)
        f = gaussian(2, scale)
        m = build_model(preset(name), 1 / 4, f)
        assert project(m, f).iterations <= 2

    @pytest.mark.parametrize("h", [1 / 8, 1 / 16])
    def test_semidefinite_system_of_dependent_shifts(self, h):
        # zp's shifts are linearly dependent (symbol minimum ~3e-17), so its
        # Gram matrix is singular up to roundoff; a projection's right-hand
        # side is consistent, and the floored symbol keeps the
        # preconditioner positive definite (residuals measured <= 8e-16)
        f = gaussian(2, 1.0)
        m = build_model(preset("zp"), h, f)
        coeffs = project(m, f)
        assert coeffs.residual <= 1e-14


def _linear(X):
    return 1.0 + 2.0 * X[:, 0] - X[:, 1]


class TestConjugateGradients:
    """The solve of `project` against scipy's `cg`, the second route: the
    package's loop is scipy 1.17's step for step, so the solutions are
    equal bit for bit and take the same number of iterations."""

    @pytest.mark.parametrize("case", ["courant2 x^(3,0)", "tensor(2,2) linear",
                                      "courant gaussian", "zp", "3d"])
    def test_matches_scipy_bit_for_bit(self, case):
        if case == "courant2 x^(3,0)":
            f = monomial((3, 0))
            m = build_model(preset("courant2"), 1 / 32, box=(np.full(2, -2.0), np.full(2, 2.0)))
        elif case == "tensor(2,2) linear":
            f = _linear
            m = build_model(preset("tensor(2,2)"), 1 / 16, box=(np.full(2, -3.0), np.full(2, 3.0)))
        elif case == "courant gaussian":
            f = gaussian(2, 1.0)
            m = build_model(preset("courant"), 1 / 8, f)
        elif case == "zp":
            f = gaussian(2, 1.0)
            m = build_model(preset("zp"), 1 / 8, f)
        else:
            f = gaussian(3, 1.0)
            m = build_model(THREE_D, 1 / 2, f)
        b = _right_hand_sides(m, f)
        A, M = _normal_operators(m)
        n, rtol = m.unknowns, projection.RESIDUAL_TOL * 1e-2
        x, iterations = projection.spla.cg(A, b, M, rtol=rtol, maxiter=10 * n)
        steps = []
        want, info = spla.cg(spla.LinearOperator((n, n), matvec=A, dtype=float), b,
                             rtol=rtol, atol=0.0,
                             M=spla.LinearOperator((n, n), matvec=M, dtype=float),
                             callback=lambda xk: steps.append(1))
        assert info == 0
        assert 0 < iterations == len(steps)
        assert np.array_equal(x, want)

    def test_zero_right_hand_side(self):
        m = build_model(preset("courant"), 1 / 4, box=(np.full(2, -1.0), np.full(2, 1.0)))
        A, M = _normal_operators(m)
        x, iterations = projection.spla.cg(A, np.zeros(m.unknowns), M, rtol=1e-14,
                                           maxiter=10 * m.unknowns)
        assert iterations == 0
        assert np.array_equal(x, np.zeros(m.unknowns))


class TestSampleLayout:
    """f receives (n, d) float views of coordinate-major (d, n) blocks,
    holding the values of the C-order construction they replaced."""

    class Recording:
        def __init__(self, f):
            self.f = f
            self.seen = []

        def value(self, X):
            self.seen.append((X.T.flags.c_contiguous, X.dtype, X.copy()))
            return self.f.value(X)

        __call__ = value

    @staticmethod
    def _check(seen, nodes, reference):
        """Every batch holds whole cells of `nodes`, has contiguous columns,
        and equals reference(first point of each cell) bit for bit."""
        n, d = nodes.shape
        assert seen
        for contiguous, dtype, X in seen:
            assert contiguous and dtype == np.float64
            assert X.ndim == 2 and X.shape[1] == d and len(X) % n == 0
            assert np.array_equal(X, reference(X[::n]).reshape(-1, d))

    @pytest.mark.parametrize("name", ["tensor(1,1)", "courant", "3d"])
    def test_project_and_error_norm(self, name):
        V = THREE_D if name == "3d" else preset(name)
        d = V.dimension
        h = 0.25
        box = (np.full(d, -0.5), np.full(d, 0.5))
        m = build_model(V, h, box=box, padding=0)
        nodes = m.cell_table[0]

        def reference(first):
            cells = np.rint(first / h - nodes[0]).astype(int)
            return h * (cells[:, None, :] + nodes[None, :, :])

        for run in (lambda f: project(m, f),
                    lambda f: error_norm(f, m, project(m, gaussian(d, 0.5)), 2.0, domain=box)):
            f = self.Recording(gaussian(d, 0.5))
            run(f)
            self._check(f.seen, nodes, reference)

    def test_sampling_never_tiles_weights(self, monkeypatch):
        calls = []
        tile_rule = quadrature.tile_rule

        def counted(*args):
            calls.append(args)
            return tile_rule(*args)

        monkeypatch.setattr(quadrature, "tile_rule", counted)
        m = build_model(preset("courant"), 0.25, box=(np.full(2, -0.5), np.full(2, 0.5)))
        f = gaussian(2, 0.5)
        error_norm(f, m, project(m, f), 2.0)
        error_norm(f, m, project(m, f), 3.0, order=12)
        assert calls == []

    def test_f_returning_a_view_of_its_argument(self):
        # each batch is written into the memory of the one before, so the
        # values of an f that returns a view of its points are used up first
        V = preset("courant")
        m = build_model(V, 0.25, box=(np.full(2, -1.0), np.full(2, 1.0)))
        view, copy = (lambda X: X[:, 0]), (lambda X: X[:, 0].copy())
        assert np.array_equal(_right_hand_sides(m, view), _right_hand_sides(m, copy))
        c = project(m, copy)
        assert np.array_equal(project(m, view).values, c.values)
        box = (np.full(2, -1.0), np.full(2, 1.0))
        for p in (2.0, 3.0):
            assert error_norm(view, m, c, p, domain=box) == error_norm(copy, m, c, p, domain=box)

    @pytest.mark.parametrize("name", ["tensor(1,1)", "courant", "3d"])
    def test_tiled_integrate(self, name):
        V = THREE_D if name == "3d" else preset(name)
        d = V.dimension
        spacing = 0.25
        lo = np.full(d, -0.5)
        cuts = BoxSplineEvaluator(V).quadrature_cuts(spacing)
        nodes, _ = quadrature.cell_rule([0.0] * d, [spacing] * d, cuts, 6)

        def reference(first):
            origins = lo + spacing * np.rint((first - nodes[0] - lo) / spacing).astype(int)
            return origins[:, None, :] + nodes[None, :, :]

        f = self.Recording(gaussian(d, 0.5))
        quadrature.integrate(f, lo, lo + 1.0, cuts=cuts, order=6, spacing=spacing)
        self._check(f.seen, nodes, reference)
