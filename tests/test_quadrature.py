"""Cut-aware cell quadrature: exactness on kinked piecewise polynomials."""

import numpy as np
import pytest

from boxproj import BoxSplineEvaluator, DirectionSet, error_expansion, monomial_error_series, preset, quadrature
from boxproj.asymptotics import _ridge_cell_table
from boxproj.bernoulli import INNER_ORDER
from boxproj.boxspline import fourier_transform
from boxproj.projection import RULE_ORDER
from boxproj.quadrature import (
    CutFamily,
    box_batches,
    box_cells,
    cell_rule,
    integrate,
    sample_grid,
    tensor_rule,
    tile_points,
    tile_rule,
)
from boxproj.testfunctions import gaussian


THREE_D = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
# simplices of each preset's knot rule at spacing 1 (1 for an uncut tensor
# rule) and of its ridge rule; the courant2 ridge cell has 26 triangles
KNOT_PIECES = {"haar": 1, "bspline(2)": 1, "bspline(3)": 1, "tensor(1,1)": 1, "tensor(2,2)": 1,
               "courant": 2, "courant2": 2, "zp": 4, "3d": 6}
RIDGE_PIECES = {"haar": 2, "bspline(2)": 3, "bspline(3)": 2, "tensor(1,1)": 8, "tensor(2,2)": 18,
                "courant": 26, "courant2": 26}


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

    def test_3d_cuts_exact(self):
        # integral of |x + y + z - 1| over the unit cube is 1/2 + 2/24 = 7/12
        cuts = (CutFamily(np.array([1.0, 1.0, 1.0])),)
        pts, wts = cell_rule([0.0] * 3, [1.0] * 3, cuts, order=3)
        assert (wts > 0).all() and abs(wts.sum() - 1.0) < 1e-14
        assert abs(np.dot(wts, np.abs(pts.sum(axis=1) - 1.0)) - 7 / 12) < 1e-14
        # E[max(x, y, z)^2] = 3/5 for three uniforms; kinks on x = y, y = z, x = z
        cuts = BoxSplineEvaluator(THREE_D).quadrature_cuts(1.0)
        pts, wts = cell_rule([0.0] * 3, [1.0] * 3, cuts, order=3)
        assert abs(np.dot(wts, pts.max(axis=1) ** 2) - 3 / 5) < 1e-14

    def test_weights_positive_total_area(self):
        cuts = (CutFamily(np.array([1.0, -1.0]), spacing=1.0),
                CutFamily(np.array([1.0, 2.0]), spacing=1.0))
        pts, wts = cell_rule([-1.0, -1.0], [1.0, 1.0], cuts, order=5)
        assert (wts > -1e-14).all()
        assert abs(wts.sum() - 4.0) < 1e-12

    @pytest.mark.parametrize("kind, name, spacing, order, pieces", [
        pytest.param("knot", "courant", s, n, 2, id=f"{s}-{n}") for s in (0.25, 1.0) for n in (6, 10)
    ] + [
        pytest.param("knot", name, 1.0, RULE_ORDER, pieces, id=f"knot-{name}")
        for name, pieces in KNOT_PIECES.items()
    ] + [
        pytest.param("ridge", name, 1.0, INNER_ORDER, pieces, id=f"ridge-{name}")
        for name, pieces in RIDGE_PIECES.items()
    ])
    def test_courant_cell_has_no_dead_nodes(self, kind, name, spacing, order, pieces):
        # a cut through a vertex of a piece must leave that vertex one
        # vertex: a second copy would add simplices of zero volume
        V = THREE_D if name == "3d" else preset(name)
        d = V.dimension
        if kind == "knot":
            cuts = BoxSplineEvaluator(V).quadrature_cuts(spacing)
            nodes, wts = cell_rule([0.0] * d, [spacing] * d, cuts, order=order)
        else:
            _, nodes, wts = _ridge_cell_table(V, order)  # term values, one row per node
        assert len(wts) == len(nodes) == order ** d * pieces
        assert (wts > 0).all()
        assert abs(wts.sum() - spacing ** d) < 1e-14


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

    def test_is_tiled_points_with_repeated_weights(self):
        cuts = BoxSplineEvaluator(preset("courant")).quadrature_cuts(1.0)
        pts, wts = cell_rule([0.0, 0.0], [1.0, 1.0], cuts, order=4)
        origins = np.array([[0, 0], [2, -1], [-3, 5]])
        tiled_pts, tiled_wts = tile_rule(pts, wts, origins)
        assert np.array_equal(tiled_pts, tile_points(pts, origins))
        assert tiled_pts.T.flags.c_contiguous
        assert np.array_equal(tiled_wts, np.tile(wts, len(origins)))


def _knot_nodes(name):
    V = THREE_D if name == "3d" else preset(name)
    d = V.dimension
    return cell_rule([0.0] * d, [1.0] * d, BoxSplineEvaluator(V).quadrature_cuts(1.0), order=4)


class TestBoxBatches:
    """box_batches writes the points of tile_points over the box, scaled,
    bit for bit, in batches of SAMPLE_CHUNK // n whole cells."""

    @staticmethod
    def _batches(nodes, lo, hi, scale):
        axes = [np.arange(a, b) for a, b in zip(lo, hi)]
        out = []
        for X in box_batches(nodes, axes, scale):
            assert X.T.flags.c_contiguous and X.dtype == np.float64
            out.append(X.copy())
        return out

    @staticmethod
    def _reference(nodes, lo, hi, scale):
        pts = tile_points(nodes, box_cells(lo, hi))
        pts *= scale
        return pts

    @pytest.mark.parametrize("name, lo, hi", [
        ("bspline(3)", [-70], [45]),
        ("bspline(3)", [3], [4]),
        ("courant", [-3, 2], [5, 9]),
        ("courant", [0, 0], [1, 1]),
        ("3d", [-1, 0, 2], [2, 3, 6]),
        ("3d", [4, 4, 4], [5, 5, 5]),
    ])
    @pytest.mark.parametrize("chunk", [quadrature.SAMPLE_CHUNK, 209])
    def test_bitwise_tile_points(self, monkeypatch, name, lo, hi, chunk):
        # the small chunk makes batches of 52 cells of 4 nodes in a 1-D row
        # of 115, of 6 courant cells of 32 nodes in rows of 7 (starting and
        # ending mid-row), and of one 3-D cell of 384 nodes, more than the chunk
        nodes, _ = _knot_nodes(name)
        monkeypatch.setattr(quadrature, "SAMPLE_CHUNK", chunk)
        h = 0.3
        got = self._batches(nodes, lo, hi, h)
        step = max(1, chunk // len(nodes))
        cells = int(np.prod(np.subtract(hi, lo)))
        assert [len(X) for X in got] == [
            min(step, cells - s) * len(nodes) for s in range(0, cells, step)]
        assert np.array_equal(np.concatenate(got), self._reference(nodes, lo, hi, h))

    def test_rows_longer_than_a_batch(self, monkeypatch):
        nodes, _ = _knot_nodes("courant")
        monkeypatch.setattr(quadrature, "SAMPLE_CHUNK", 5 * len(nodes))
        lo, hi = [-2, -9], [1, 8]  # rows of 17 cells, batches of 5
        got = self._batches(nodes, lo, hi, 0.125)
        assert len(got) == 11 and len(got[-1]) == len(nodes)
        assert np.array_equal(np.concatenate(got), self._reference(nodes, lo, hi, 0.125))

    def test_without_scale_adds_the_origins(self):
        nodes, _ = _knot_nodes("courant")
        axes = [np.array([-1.5, 0.25, 7.0]), np.array([0.1, 0.2])]
        (got,) = [X.copy() for X in box_batches(nodes, axes)]
        origins = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        assert np.array_equal(got, tile_points(nodes, origins))

    def test_empty_box(self):
        nodes, _ = _knot_nodes("courant")
        assert list(box_batches(nodes, [np.arange(3), np.arange(0)], 0.5)) == []

    @pytest.mark.parametrize("name", ["bspline(3)", "courant", "3d"])
    def test_integrate_origins(self, monkeypatch, name):
        # integrate(spacing=) samples the cells lo + spacing * m and sums each
        # batch against the tiled weights, as it did per tiled batch before
        monkeypatch.setattr(quadrature, "SAMPLE_CHUNK", 1000)
        V = THREE_D if name == "3d" else preset(name)
        d = V.dimension
        spacing = 0.3
        lo = np.linspace(-1.1, 0.4, d)
        counts = np.array([4, 3, 2][:d])
        cuts = BoxSplineEvaluator(V).quadrature_cuts(spacing)
        nodes, wts = cell_rule([0.0] * d, [spacing] * d, cuts, 5)
        f = lambda X: np.exp(-(X * X).sum(axis=1))
        seen = []
        got = integrate(lambda X: seen.append(X.copy()) or f(X), lo, lo + spacing * counts,
                        cuts=cuts, order=5, spacing=spacing)
        pts = tile_points(nodes, lo + spacing * box_cells(np.zeros(d, dtype=int), counts))
        assert np.array_equal(np.concatenate(seen), pts)
        step = 1000 // len(nodes) * len(nodes)
        want = 0.0
        for s in range(0, len(pts), step):
            X = pts[s:s + step]
            want = want + np.dot(np.tile(wts, len(X) // len(nodes)), f(X))
        assert got == want


# the entry points that read points through _as_points, on a set of dimension d
POINT_CALLS = {
    "evaluate": lambda V, x: error_expansion(V, (1,) * V.dimension).evaluate(x),
    "series": lambda V, x: monomial_error_series(V, (1,) * V.dimension, x, 50),
    "fourier_transform": fourier_transform,
    "gaussian": lambda V, x: gaussian(V.dimension).value(x),
}


class TestAsPoints:
    @pytest.mark.parametrize("call", list(POINT_CALLS))
    def test_scalar_is_one_point_in_1d(self, call):
        # a scalar on haar returned a length-1 array, where [0.3] gives a scalar
        f, V = POINT_CALLS[call], preset("haar")
        one = f(V, 0.3)
        assert np.ndim(one) == 0 and one == f(V, [0.3])

    @pytest.mark.parametrize("call", list(POINT_CALLS))
    def test_scalar_rejected_in_2d(self, call):
        with pytest.raises(ValueError, match="^points of dimension 1, not 2"):
            POINT_CALLS[call](preset("courant"), 0.3)

    def test_float_points_not_copied(self):
        x = np.zeros((3, 2))
        pts, single = quadrature._as_points(x, 2)
        assert pts is x and not single
        pts, single = quadrature._as_points(x[0], 2)
        assert np.shares_memory(pts, x) and single
