"""Gauss-Legendre quadrature on boxes, split along straight cuts.

Box-spline integrands are piecewise polynomial with kinks along known
families of parallel lines.  Splitting each cell along these lines before
applying a tensor rule makes the quadrature exact for piecewise-polynomial
pieces, which is what the tight tolerances downstream rely on.  Cuts are
supported in dimensions 1 and 2; higher dimensions fall back to plain
tensor rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_AREA_TOL = 1e-12
_CUT_TOL = 1e-9
SAMPLE_CHUNK = 65_536  # quadrature nodes per batch of integrand evaluations


@dataclass(frozen=True)
class CutFamily:
    """Parallel lines normal.x = offset + spacing*k, one per integer k."""

    normal: tuple[float, ...]
    spacing: float = 1.0
    offsets: tuple[float, ...] = (0.0,)


@lru_cache(maxsize=None)
def unit_nodes(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def product_grid(axes) -> np.ndarray:
    """Cartesian product of 1-D arrays as an (n, d) array in C order."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def box_cells(lo, hi) -> np.ndarray:
    """Integer cells m with lo <= m < hi, as an (n, d) array in C order."""
    return product_grid([np.arange(a, b) for a, b in zip(lo, hi)])


def tensor_rule(lo, hi, order: int):
    """Plain tensor Gauss rule on the box [lo, hi]."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    x, w = unit_nodes(order)
    pts_1d = [lo[j] + (hi[j] - lo[j]) * x for j in range(len(lo))]
    wts_1d = [(hi[j] - lo[j]) * w for j in range(len(lo))]
    pts = product_grid(pts_1d)
    wts = wts_1d[0]
    for wj in wts_1d[1:]:
        wts = np.multiply.outer(wts, wj)
    return pts, wts.ravel()


def _family_values(fam: CutFamily, smin: float, smax: float):
    """Cut levels of one family falling strictly inside (smin, smax)."""
    vals = []
    tol = _CUT_TOL * max(1.0, abs(smin), abs(smax))
    for off in fam.offsets:
        k0 = int(np.floor((smin - off) / fam.spacing)) - 1
        k1 = int(np.ceil((smax - off) / fam.spacing)) + 1
        for k in range(k0, k1 + 1):
            c = off + fam.spacing * k
            if smin + tol < c < smax - tol:
                vals.append(c)
    return vals


def _clip(poly, normal, c, keep_low: bool):
    """Half-plane clip of a convex polygon (vertex list, CCW).

    An edge adds its crossing point only on a strict sign change: a vertex
    lying on the cut is kept once, never again as a crossing at t = 0 or 1,
    which would fan into zero-area triangles with dead nodes.
    """
    out = []
    m = len(poly)
    for i in range(m):
        a = poly[i]
        b = poly[(i + 1) % m]
        sa = normal[0] * a[0] + normal[1] * a[1] - c
        sb = normal[0] * b[0] + normal[1] * b[1] - c
        if keep_low:
            ina, inb = sa <= 0.0, sb <= 0.0
        else:
            ina, inb = sa >= 0.0, sb >= 0.0
        if ina:
            out.append(a)
        if min(sa, sb) < 0.0 < max(sa, sb):
            t = sa / (sa - sb)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return out


def _area(poly) -> float:
    s = 0.0
    m = len(poly)
    for i in range(m):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % m]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _triangle_rule(a, b, c, order: int):
    """Duffy-type Gauss rule on one triangle; exact for moderate degrees."""
    x, w = unit_nodes(order)
    u = x[:, None]
    v = x[None, :]
    wu = w[:, None]
    wv = w[None, :]
    e1 = (b[0] - a[0], b[1] - a[1])
    e2 = (c[0] - a[0], c[1] - a[1])
    det = abs(e1[0] * e2[1] - e1[1] * e2[0])
    px = a[0] + u * ((1 - v) * e1[0] + v * e2[0])
    py = a[1] + u * ((1 - v) * e1[1] + v * e2[1])
    wts = wu * wv * u * det
    pts = np.stack([px.ravel(), py.ravel()], axis=-1)
    return pts, wts.ravel()


def _polygon_rule(poly, order: int):
    pts_list, wts_list = [], []
    for i in range(1, len(poly) - 1):
        p, w = _triangle_rule(poly[0], poly[i], poly[i + 1], order)
        pts_list.append(p)
        wts_list.append(w)
    return np.concatenate(pts_list), np.concatenate(wts_list)


def cell_rule(lo, hi, cuts=(), order: int = 12):
    """Quadrature rule on one box, split along every cut crossing it.

    Returns (points, weights) with points of shape (m, d).  With cuts the
    dimension must be 1 or 2.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    d = len(lo)
    if not cuts:
        return tensor_rule(lo, hi, order)
    if d == 1:
        points = set()
        for fam in cuts:
            n0 = fam.normal[0]
            if n0 == 0:
                continue
            smin, smax = sorted((n0 * lo[0], n0 * hi[0]))
            points.update(c / n0 for c in _family_values(fam, smin, smax))
        knots = [lo[0]] + sorted(points) + [hi[0]]
        x, w = unit_nodes(order)
        segs_p = [a + (b - a) * x for a, b in zip(knots[:-1], knots[1:])]
        segs_w = [(b - a) * w for a, b in zip(knots[:-1], knots[1:])]
        return np.concatenate(segs_p)[:, None], np.concatenate(segs_w)
    if d != 2:
        raise ValueError("cuts are only supported in dimensions 1 and 2")
    polys = [[(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]]
    for fam in cuts:
        nrm = fam.normal
        corners = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
        svals = [nrm[0] * p[0] + nrm[1] * p[1] for p in corners]
        for c in _family_values(fam, min(svals), max(svals)):
            nxt = []
            for poly in polys:
                low = _clip(poly, nrm, c, keep_low=True)
                high = _clip(poly, nrm, c, keep_low=False)
                for piece in (low, high):
                    if len(piece) >= 3 and _area(piece) > _AREA_TOL:
                        nxt.append(piece)
            polys = nxt
    pts_list, wts_list = [], []
    for poly in polys:
        p, w = _polygon_rule(poly, order)
        pts_list.append(p)
        wts_list.append(w)
    return np.concatenate(pts_list), np.concatenate(wts_list)


def sample_grid(dim: int, count: int = 17):
    """Grid in the unit cell avoiding every small-coefficient lattice line.

    Axis j carries `count` odd multiples of 1/(2(count+j)): denominators
    differ across axes and numerators are odd, so integer combinations
    with small coefficients stay away from integers.
    """
    axes = [
        (2 * np.arange(count) + 1) / (2.0 * (count + j)) for j in range(dim)
    ]
    return product_grid(axes)


def tile_points(pts, origins):
    """Translate one cell rule's points to many cells; origins has shape (m, d).

    The points come back as an (m n, d) float view of one C-contiguous
    (d, m n) block, filled one coordinate at a time: each column is one
    contiguous array, so an integrand reading pts[:, j] runs unit-stride
    loops.  Callers must not assume C order.
    """
    origins = np.asarray(origins, dtype=float)
    d = pts.shape[1]
    block = np.empty((d, len(origins), len(pts)))
    for j in range(d):
        np.add.outer(origins[:, j], pts[:, j], out=block[j])
    return block.reshape(d, -1).T


def tile_rule(pts, wts, origins):
    """`tile_points` with the weights repeated once per cell."""
    return tile_points(pts, origins), np.tile(wts, len(origins))


def integrate(f, lo, hi, *, cuts=(), order: int = 12, spacing=None):
    """Integrate f over the box [lo, hi].

    `spacing` subdivides the box into a uniform grid of cells first; the
    per-cell rule (with cuts) is then translated across the grid, which
    assumes the cut pattern is cell-periodic.  f maps (m, d) arrays to
    (m,) values and may return complex; it is called on about
    SAMPLE_CHUNK nodes at a time.  With `spacing` those arrays are the
    (m, d) float views of `tile_points`, whose columns are contiguous; f
    must not assume C order.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    d = len(lo)
    if spacing is None:
        pts, wts = cell_rule(lo, hi, cuts, order)
        return _accumulate(f, pts, wts)
    spacing = float(spacing)
    counts = np.rint((hi - lo) / spacing).astype(int)
    if np.any(np.abs(lo + counts * spacing - hi) > 1e-9 * max(1.0, spacing)):
        raise ValueError("box is not an integer number of cells")
    base_pts, base_wts = cell_rule([0.0] * d, [spacing] * d, cuts, order)
    origins = lo + spacing * box_cells(np.zeros(d, dtype=int), counts)
    total = 0.0
    cells_per_chunk = max(1, SAMPLE_CHUNK // max(1, len(base_wts)))
    for start in range(0, len(origins), cells_per_chunk):
        pts, wts = tile_rule(base_pts, base_wts, origins[start:start + cells_per_chunk])
        total = total + _accumulate(f, pts, wts)
    return total


def _accumulate(f, pts, wts):
    total = 0.0
    for start in range(0, len(wts), SAMPLE_CHUNK):
        vals = f(pts[start:start + SAMPLE_CHUNK])
        total = total + np.dot(wts[start:start + SAMPLE_CHUNK], vals)
    return total
