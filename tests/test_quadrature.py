"""Cut-aware cell quadrature: exactness on kinked piecewise polynomials."""

import numpy as np
import pytest

from boxproj import BoxSplineEvaluator, preset
from boxproj.quadrature import (
    CutFamily,
    cell_rule,
    integrate,
    sample_grid,
    tensor_rule,
    tile_rule,
)


class TestCellRule:
    def test_1d_polynomial_exact(self):
        pts, wts = cell_rule([0.0], [1.0], (), order=6)
        assert abs(np.dot(wts, pts[:, 0] ** 5) - 1 / 6) < 1e-14

    def test_1d_kink_needs_cut(self):
        f = lambda x: np.abs(x - 1 / 3)
        # exact integral over [0,1]: 1/9 + 2/9 ... = (1/3)^2/2 + (2/3)^2/2
        exact = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
        cuts = (CutFamily(np.array([3.0]), spacing=1.0),)
        pts, wts = cell_rule([0.0], [1.0], cuts, order=8)
        assert abs(np.dot(wts, f(pts[:, 0])) - exact) < 1e-14

    def test_2d_affine_exact(self):
        pts, wts = cell_rule([0.0, 0.0], [1.0, 1.0], (), order=4)
        assert abs(np.dot(wts, pts[:, 0]) - 0.5) < 1e-14
        assert abs(wts.sum() - 1.0) < 1e-14

    def test_2d_diagonal_kink(self):
        # integral of |x + y - 1| over the unit square is 1/3
        cuts = (CutFamily(np.array([1.0, 1.0]), spacing=1.0),)
        pts, wts = cell_rule([0.0, 0.0], [1.0, 1.0], cuts, order=8)
        val = np.dot(wts, np.abs(pts.sum(axis=1) - 1.0))
        assert abs(val - 1 / 3) < 1e-13

    def test_2d_offset_cut(self):
        # kink along x = 1/2 via the offsets mechanism
        cuts = (CutFamily(np.array([1.0, 0.0]), spacing=1.0, offsets=(0.5,)),)
        pts, wts = cell_rule([0.0, 0.0], [1.0, 1.0], cuts, order=8)
        val = np.dot(wts, np.abs(pts[:, 0] - 0.5))
        assert abs(val - 0.25) < 1e-13

    def test_3d_cuts_unsupported(self):
        cuts = (CutFamily(np.array([1.0, 1.0, 1.0])),)
        with pytest.raises(ValueError):
            cell_rule([0.0] * 3, [1.0] * 3, cuts, order=3)

    def test_weights_positive_total_area(self):
        cuts = (CutFamily(np.array([1.0, -1.0]), spacing=1.0),
                CutFamily(np.array([1.0, 2.0]), spacing=1.0))
        pts, wts = cell_rule([-1.0, -1.0], [1.0, 1.0], cuts, order=5)
        assert (wts > -1e-14).all()
        assert abs(wts.sum() - 4.0) < 1e-12

    @pytest.mark.parametrize("order", [6, 10])
    @pytest.mark.parametrize("spacing", [1.0, 0.25])
    def test_courant_cell_has_no_dead_nodes(self, order, spacing):
        # the diagonal cut runs through two corners of the cell: each corner
        # must stay one vertex, or the fan adds zero-area triangles
        cuts = BoxSplineEvaluator(preset("courant")).quadrature_cuts(spacing)
        pts, wts = cell_rule([0.0, 0.0], [spacing, spacing], cuts, order=order)
        assert len(wts) == len(pts) == 2 * order ** 2
        assert (wts > 0).all()
        assert abs(wts.sum() - spacing ** 2) < 1e-14


class TestIntegrate:
    def test_matches_tensor_rule_smooth(self):
        f = lambda X: np.exp(-X[:, 0] ** 2 - 0.5 * X[:, 1])
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.0])
        a = integrate(f, lo, hi, order=14)
        pts, wts = tensor_rule(lo, hi, 30)
        assert abs(a - np.dot(wts, f(pts))) < 1e-12

    def test_tiled_rule_matches_direct(self):
        f = lambda X: np.cos(X[:, 0]) * X[:, 1] ** 2
        lo, hi = np.array([0.0, 0.0]), np.array([3.0, 2.0])
        cuts = (CutFamily(np.array([1.0, 1.0]), spacing=1.0),)
        a = integrate(f, lo, hi, cuts=cuts, order=10)
        b = integrate(f, lo, hi, cuts=cuts, order=10, spacing=1.0)
        assert abs(a - b) < 1e-12

    def test_scaled_spacing(self):
        # half-integer grid of diagonal kinks, exact piecewise integral
        f = lambda X: np.abs(np.sin(np.pi * (X[:, 0] - X[:, 1])))
        lo, hi = np.array([0.0, 0.0]), np.array([2.0, 1.0])
        cuts = (CutFamily(np.array([1.0, -1.0]), spacing=1.0),)
        a = integrate(f, lo, hi, cuts=cuts, order=16, spacing=1.0)
        # exact: integral of |sin(pi t)| over any unit cell of t=x-y is 2/pi
        assert abs(a - 2 * 2 / np.pi) < 1e-9

    def test_fractional_box_rejected_when_tiled(self):
        f = lambda X: X[:, 0]
        with pytest.raises(ValueError):
            integrate(f, np.array([0.0]), np.array([1.3]), order=4, spacing=0.5)


class TestSampleGrid:
    def test_avoids_preset_class_lines(self):
        # the grids must dodge every ridge line of every preset expansion,
        # since the periodic factors lose smoothness exactly there
        from boxproj import preset, hyperplane_classes
        for name in ("haar", "bspline(2)", "bspline(3)", "tensor(1,1)",
                     "tensor(2,2)", "courant", "courant2"):
            V = preset(name)
            for count in (5, 9, 17):
                pts = sample_grid(V.dimension, count)
                for cls in hyperplane_classes(V):
                    dots = pts @ np.array(cls.alpha, dtype=float)
                    assert np.abs(dots - np.round(dots)).min() > 1e-3, (name, count)

    def test_shape_and_range(self):
        pts = sample_grid(2, 5)
        assert pts.shape == (25, 2)
        assert (pts > 0).all() and (pts < 1).all()


class TestTileRule:
    def test_translation_accumulates(self):
        pts, wts = cell_rule([0.0], [1.0], (), order=5)
        tiled_pts, tiled_wts = tile_rule(pts, wts, np.array([[0.0], [1.0], [2.0]]))
        val = np.dot(tiled_wts, tiled_pts[:, 0] ** 2)
        assert abs(val - 9.0) < 1e-12
