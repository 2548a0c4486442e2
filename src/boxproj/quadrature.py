"""Gauss-Legendre quadrature on boxes, split along straight cuts.

Box-spline integrands are piecewise polynomial with kinks along known
families of parallel hyperplanes.  `cell_rule` splits a cell along these
hyperplanes into convex pieces, cuts each piece into simplices and puts a
collapsed Gauss rule on each simplex (Stroud, Approximate Calculation of
Multiple Integrals, 1971), so the quadrature is exact for the
piecewise-polynomial pieces, which is what the tight tolerances downstream
rely on.  This is one path for every dimension; a cell that no cut
crosses keeps the plain tensor rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_AREA_TOL = 1e-12
_CUT_TOL = 1e-9
# Quadrature nodes per batch of integrand evaluations.  A batch's float
# buffers (128 KiB each) stay cache-resident, and an error norm's per-call
# temporaries stay below glibc's heap trim threshold, so they are not handed
# back to the OS and faulted in again on every call: a warm seed-1 `ladder`
# round took about 13,800 minor page faults at 65,536 and takes 1-11 at
# 16,384 (`resource.getrusage` around the round).
SAMPLE_CHUNK = 16_384


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise ValueError unless value is an int, not a bool, at or above minimum (1 or 0)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def _as_points(x, dim: int):
    """(pts, single): x as float points of dimension dim, at least 2-D (no
    copy of a float array), and whether it was one point (a vector, or a
    scalar, which is a point of dimension 1); ValueError when its last axis
    is not dim long."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim < 2
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != dim:
        raise ValueError(f"points of dimension {pts.shape[-1]}, not {dim}")
    return pts, single


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


@lru_cache(maxsize=None)
def simplex_nodes(dim: int, order: int):
    """Collapsed Gauss rule on the unit simplex (Stroud's conical product).

    Returns (lam, weights): node j is sum_k lam[j, k] e_k, and the weights
    sum to 1/dim!.  The cube point u maps to lam_k = u_0 ... u_k
    (1 - u_{k+1}), without the last factor for k = dim - 1; the Jacobian is
    prod_k u_k^(dim-1-k).  For dim = 1 this is the plain segment rule.
    """
    x, w = unit_nodes(order)
    u = product_grid([x] * dim)
    lam = np.cumprod(u, axis=1)
    weights = product_grid([w] * dim).prod(axis=1) * lam[:, :-1].prod(axis=1)
    lam[:, :-1] *= 1.0 - u[:, 1:]
    return lam, weights


def _pulling_simplices(on, face, d: int):
    """Pulling triangulation of convex cells, without new vertices.

    face[c, j] marks the vertex slots of cell c and on[c, j, q] says that
    slot j lies on plane q.  A simplex is v_0 .. v_d: v_0 is the first
    vertex of its cell, v_1 the first of a facet F_1 not containing v_0,
    v_2 the first of a facet of F_1 not containing v_1, and so on.  The
    facets of a face are its largest intersections with a plane.  A cell of
    lower dimension runs out of facets and yields no simplex.  Returns
    (cell, chain): chain[i] holds the d + 1 slots of simplex i.
    """
    cell = np.arange(len(face))
    chain = []
    planes = np.arange(on.shape[2])
    for _ in range(d):
        apex = face.argmax(axis=1)
        chain.append(apex)
        sub = face[:, :, None] & on[cell]
        size = sub.sum(axis=1)
        proper = (size > 0) & (size < face.sum(axis=1)[:, None])
        # p is no facet if a proper q holds it and is larger, or equal and earlier
        s = sub.astype(float)
        within = (s.transpose(0, 2, 1) @ s == size[:, :, None]) & proper[:, None, :]
        score = size * len(planes) - planes
        facet = proper & ~np.any(within & (score[:, None, :] > score[:, :, None]), axis=2)
        row, q = np.nonzero(facet & ~on[cell, apex])
        cell, face, chain = cell[row], sub[row, :, q], [c[row] for c in chain]
    chain.append(face.argmax(axis=1))
    return cell, np.stack(chain, axis=1)


def cell_rule(lo, hi, cuts=(), order: int = 12):
    """Quadrature rule on one box, split along every cut crossing it.

    The box faces and the cut levels that `_family_values` finds strictly
    inside the box are planes; one batched solve finds every vertex they
    make in the box.  A piece is a set of these vertices, first the whole
    box; each cut level splits the pieces with vertices strictly on both
    sides of it.  The last pieces are the convex cells on which a
    box-spline integrand is one polynomial, in any dimension; each is cut
    into simplices by `_pulling_simplices`, and each simplex takes
    `simplex_nodes`.  A box that no cut crosses takes `tensor_rule`.
    Returns (points, weights), order^d nodes per simplex, points (m, d).
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    d = len(lo)
    normals = np.array([fam.normal for fam in cuts], dtype=float).reshape(-1, d)
    smin, smax = np.sort([normals * lo, normals * hi], axis=0).sum(axis=2).tolist()
    cut = [(j, c) for j, fam in enumerate(cuts) for c in _family_values(fam, smin[j], smax[j])]
    if not cut:
        return tensor_rule(lo, hi, order)
    family, levels = map(list, zip(*cut))
    A = np.concatenate([-np.eye(d), np.eye(d), normals[family]])
    b = np.concatenate([-lo, hi, levels])
    reach = np.abs(np.sort([A * lo, A * hi], axis=0).sum(axis=2)).max(axis=0)
    tol = _CUT_TOL * np.maximum(1.0, reach)
    sets = np.array(list(itertools.combinations(range(len(b)), d)))
    sets = sets[np.abs(np.linalg.det(A[sets])) > _AREA_TOL]
    pts = np.linalg.solve(A[sets], b[sets][..., None])[..., 0]
    res = pts @ A.T - b
    inside = np.all(res[:, :2 * d] <= tol[:2 * d], axis=1)
    pts, res = pts[inside], res[inside]
    # one vertex per set of planes it lies on, in lexicographic order
    on = np.abs(res) <= tol
    keys = np.packbits(on, axis=1)
    _, first = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True)
    first = first[np.lexsort(pts[first].T[::-1])]
    pts, res, on = pts[first], res[first], on[first]
    pieces = np.ones((1, len(pts)), dtype=bool)
    for q in range(2 * d, len(b)):
        below, above = res[:, q] < -tol[q], res[:, q] > tol[q]
        split = (pieces & below).any(axis=1) & (pieces & above).any(axis=1)
        pieces = np.concatenate([pieces[~split], pieces[split] & ~above, pieces[split] & ~below])
    size = pieces.sum(axis=1)
    local = np.argsort(~pieces, axis=1, kind="stable")[:, :size.max()]
    face = np.arange(local.shape[1]) < size[:, None]
    cell, chain = _pulling_simplices(on[local] & face[..., None], face, d)
    corner = pts[local[cell[:, None], chain]]
    edges = corner[:, 1:] - corner[:, :1]
    vol = np.abs(np.prod(np.diagonal(np.linalg.qr(edges, mode="r"), axis1=1, axis2=2), axis=1))
    lam, w = simplex_nodes(d, order)
    return (corner[:, :1] + lam @ edges).reshape(-1, d), (vol[:, None] * w).ravel()


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


def box_batches(nodes, axes, scale=None):
    """One cell rule's nodes in every cell of a box, in batches.

    The cells are the Cartesian product of the 1-D arrays `axes` in C
    order: axes[j] holds the cell origins along axis j.  Node y_l of the
    cell with origin o is the point (o + y_l) * scale, or o + y_l without a
    scale.  Each batch holds SAMPLE_CHUNK // n whole cells of n nodes (the
    last batch fewer), so a batch starts and ends anywhere in a row of the
    last axis.  It comes as the (k n, d) float view of one C-contiguous
    (d, k n) block: the points of `tile_points` over those cells, scaled,
    bit for bit.

    Nothing is added or scaled per point.  Per call, axis j gets the table
    (axes[j] + y_j) * scale of every origin along it against every node;
    a batch copies, for each axis, the table row of each of its cells.
    The block is reused: a batch is overwritten by the next, so the caller
    must be done with it, and with any view of it that it made, before
    asking for the next.
    """
    nodes = np.asarray(nodes, dtype=float)
    n, d = nodes.shape
    tables = [np.add.outer(np.asarray(a, dtype=float), nodes[:, j]) for j, a in enumerate(axes)]
    if scale is not None:
        for table in tables:
            table *= scale
    shape = tuple(len(table) for table in tables)
    total = int(np.prod(shape))
    step = max(1, SAMPLE_CHUNK // n)
    buffer = np.empty(d * n * min(step, total))
    for start in range(0, total, step):
        stop = min(start + step, total)
        block = buffer[:d * n * (stop - start)].reshape(d, stop - start, n)
        for j, index in enumerate(np.unravel_index(np.arange(start, stop), shape)):
            # the indices are in range: "clip" only spares the copy of `out`
            # that the default mode makes
            np.take(tables[j], index, axis=0, out=block[j], mode="clip")
        yield block.reshape(d, -1).T


def integrate(f, lo, hi, *, cuts=(), order: int = 12, spacing=None):
    """Integrate f over the box [lo, hi].

    `spacing` subdivides the box into a uniform grid of cells first; the
    per-cell rule (with cuts) is then translated across the grid, which
    assumes the cut pattern is cell-periodic.  f maps (m, d) arrays to
    (m,) values and may return complex; it is called on about
    SAMPLE_CHUNK nodes at a time.  With `spacing` those arrays are the
    batches of `box_batches`, (m, d) float views with contiguous columns,
    over the cell origins lo + spacing * m; f must not assume C order.  f
    must not modify its argument, nor keep it after it returns: the next
    batch is written into the same memory.
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
    axes = [lo[j] + spacing * np.arange(counts[j]) for j in range(d)]
    wts = np.tile(base_wts, max(1, SAMPLE_CHUNK // len(base_wts)))
    total = 0.0
    for pts in box_batches(base_pts, axes):
        total = total + _accumulate(f, pts, wts[:len(pts)])
    return total


def _accumulate(f, pts, wts):
    total = 0.0
    for start in range(0, len(wts), SAMPLE_CHUNK):
        vals = f(pts[start:start + SAMPLE_CHUNK])
        total = total + np.dot(wts[start:start + SAMPLE_CHUNK], vals)
    return total
