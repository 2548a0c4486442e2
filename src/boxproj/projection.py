"""L2 projection onto the lattice shifts of a box spline, on a truncated window.

The projector solves the normal equations, a banded symmetric positive
definite Gram system whose entries are shift autocorrelations of the
spline, by conjugate gradients preconditioned with the inverse Gram
symbol, without assembling a matrix.  Everything is set up at mesh size
h by rescaling; the coefficient field of the projection of f at mesh h
equals that of f(h .) at mesh 1, so quadrature rules are precomputed
once in lattice coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .lattice import DirectionSet, _coerce
from .boxspline import BoxSplineEvaluator
from . import quadrature

if TYPE_CHECKING:
    import scipy.sparse as sp

MAX_UNKNOWNS = 600_000
RESIDUAL_TOL = 1e-12
GRAM_DROP = 1e-14
RULE_ORDER = 10  # Gauss-Legendre order of the cell rule behind the model's tables


class SolverError(RuntimeError):
    """Normal-equation solve failed or left a residual above tolerance."""


def _value_fn(f):
    return f.value if hasattr(f, "value") else f


def autocorrelation_table(V) -> dict[tuple[int, ...], float]:
    """All nonzero shift autocorrelations a(gamma) = int B(x) B(x - gamma) dx,
    keyed by integer offset in lexicographic order.

    The contraction `_gram` of V's `cell_spline_table` at RULE_ORDER,
    computed once per process for every set equal to V (`_cell_tables`)
    and returned as a fresh dict on each call; a model's `gram` is a copy
    of the same table.  The checks compare it with the doubled spline
    M_{V u -V}(gamma), the same integral.
    """
    return dict(_cell_tables(_coerce(V), RULE_ORDER)[2])


@lru_cache(maxsize=None)
def _cell_tables(V: DirectionSet, order: int):
    """(evaluator, cell table, Gram items) of V: a `BoxSplineEvaluator`,
    its `cell_spline_table` at `order` and the `_gram` of that table as a
    tuple of (gamma, a) pairs.

    By the dilation identity one cell table serves every mesh size, so it
    is built once per process for every set equal to V (the key is the
    set's value, not the object).  Its arrays and the evaluator's support
    corners are read-only; callers copy the Gram items into a dict of
    their own.
    """
    spline = BoxSplineEvaluator(V)
    table = cell_spline_table(spline, order)
    for a in (*table, spline.support_lo, spline.support_hi):
        a.flags.writeable = False
    return spline, table, tuple(_gram(table).items())


def _gram(cell_table) -> dict[tuple[int, ...], float]:
    """The Gram table of a `cell_spline_table`.

    With support cells c_j = -offsets[j] and G = (table * weights)
    table^T, the integral over support cell c_j of B(x) B(x - gamma) is
    G[j, j'] for the cell c_j' = c_j - gamma, so a(gamma) is the sum of G
    over the pairs with c_j - c_j' = gamma.  Entries of magnitude at most
    GRAM_DROP are left out.
    """
    _, weights, offsets, table = cell_table
    gram = (table * weights) @ table.T
    gammas = (offsets[None, :, :] - offsets[:, None, :]).reshape(-1, offsets.shape[1])
    keys, inverse = np.unique(gammas, axis=0, return_inverse=True)
    sums = np.bincount(inverse.ravel(), weights=gram.ravel())
    return {tuple(int(g) for g in k): float(a)
            for k, a in zip(keys, sums) if abs(a) > GRAM_DROP}


@dataclass
class CoefficientField:
    """Spline coefficients on an integer window."""

    window_lo: tuple[int, ...]
    values: np.ndarray
    residual: float = 0.0
    iterations: int = 0  # conjugate-gradient iterations of the solve

    def value_at(self, alpha) -> float:
        idx = tuple(int(a) - lo for a, lo in zip(alpha, self.window_lo))
        if any(i < 0 or i >= s for i, s in zip(idx, self.values.shape)):
            return 0.0
        return float(self.values[idx])


@dataclass
class SplineSpaceModel:
    """Precomputed machinery for projecting at one mesh size.

    Holds the window (in lattice units), the evaluator and cell-periodic
    spline table of `cell_spline_table` at RULE_ORDER, and the Gram table
    contracted from it (equal to `autocorrelation_table`).  The evaluator
    and the spline table are shared, read-only, by every model of an equal
    set (`_cell_tables`); `gram` is this model's own dict, so an edit to
    it reaches no other model.  The spline table serves the Gram table,
    the right-hand sides of `project` and the error norms of
    `error_norm`.  Nothing is derived from `gram` and kept: `project`
    derives its Gram stencil and symbol preconditioner from it on each
    call, and `matrix()` (the explicit matrix, for the checks and the
    tests) lays it out afresh on each call, so an edit to `gram` takes
    effect at the next `project`.
    """

    V: DirectionSet
    h: float
    window_lo: np.ndarray
    window_shape: tuple[int, ...]
    gram: dict[tuple[int, ...], float]
    evaluator: BoxSplineEvaluator
    cell_table: tuple
    padding: int

    @property
    def unknowns(self) -> int:
        return int(np.prod(self.window_shape))

    def window_alphas(self) -> np.ndarray:
        return quadrature.box_cells(self.window_lo, self.window_lo + np.array(self.window_shape))

    def matrix(self) -> sp.csr_matrix:
        """The normal-equation matrix: entry (alpha, beta) of the window,
        in C order, is gram[alpha - beta].

        The sum over the offsets gamma of gram[gamma] times the Kronecker
        product over the axes j of E(gamma_j), the k_j x k_j matrix with ones
        where alpha_j - beta_j = gamma_j; CSR sums keep the indices sorted.
        scipy.sparse is imported on the first call, so that importing the
        package loads no scipy module.
        """
        import scipy.sparse as sp

        A = sp.csr_matrix((self.unknowns, self.unknowns))
        for gamma, a in self.gram.items():
            A += a * reduce(sp.kron, [sp.eye(k, k=-g, format="csr")
                                      for g, k in zip(gamma, self.window_shape)])
        return A


def cell_spline_table(spline: BoxSplineEvaluator, order: int = RULE_ORDER):
    """The spline at one cell rule's nodes, under every shift that reaches it.

    Returns (nodes, weights, offsets, table): the cut-aware rule y_l, w_l
    on the unit cell [0, 1]^d, the integer offsets delta whose shifted
    spline B(. - delta) is nonzero at some node of that cell (a support
    cell on which the spline vanishes is dropped), and table[j, l] =
    B(y_l - offsets[j]).  A spline sum sum_alpha c_alpha B(x/h - alpha) at
    the node h (m + y_l) of mesh cell m is then
    sum_j c_{m + offsets[j]} table[j, l] at every h, by the dilation
    identity, so one table serves every mesh size.
    """
    d = spline.V.dimension
    nodes, weights = quadrature.cell_rule([0.0] * d, [1.0] * d,
                                          spline.quadrature_cuts(1.0), order)
    zlo = np.rint(spline.support_lo).astype(int)
    zhi = np.rint(spline.support_hi).astype(int)
    cells = quadrature.box_cells(zlo, zhi)
    table = spline(quadrature.tile_points(nodes, cells)).reshape(len(cells), len(nodes))
    live = np.any(table != 0.0, axis=1)
    return nodes, weights, -cells[live], table[live]


def build_model(V, h: float, f=None, padding: int | None = None, box=None) -> SplineSpaceModel:
    """Assemble window, cell spline table and Gram table for mesh size h.

    The window collects every shift whose support touches the effective
    box of f (or the explicit `box`), inflated by `padding` cells; the
    default padding is three support diameters.  The evaluator, cell table
    and Gram table are those of `_cell_tables`, built by the first model of
    an equal set in the process and shared by every later one at any h:
    a later build evaluates no spline.  The model gets its own copy of the
    Gram table.  A mesh size that is not finite and positive, a padding
    that is not a nonnegative integer, or a box whose dimension is not
    that of V, that is reversed on some axis or has a corner that is not
    finite, raises ValueError.
    """
    h = float(h)
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"mesh size h must be finite and positive, got {h}")
    if padding is not None:
        quadrature._check_integer("padding", padding, 0)
    V = _coerce(V)
    spline, table, gram = _cell_tables(V, RULE_ORDER)
    if box is None:
        if f is None or f.effective_box() is None:
            raise ValueError("need f with an effective box, or an explicit box")
        box = f.effective_box()
    blo, bhi = _box_corners(box, V.dimension, "box")
    zlo, zhi = spline.support_lo, spline.support_hi
    if padding is None:
        padding = 3 * int(np.max(zhi - zlo))
    wlo = np.floor(blo / h - padding - zhi).astype(int)
    whi = np.ceil(bhi / h + padding - zlo).astype(int)
    shape = tuple(int(b - a + 1) for a, b in zip(wlo, whi))
    if int(np.prod(shape)) > MAX_UNKNOWNS:
        raise ValueError(f"window of {np.prod(shape)} unknowns exceeds cap")
    return SplineSpaceModel(
        V=V,
        h=h,
        window_lo=wlo,
        window_shape=shape,
        gram=dict(gram),
        evaluator=spline,
        cell_table=table,
        padding=padding,
    )


def _factor_tables(factor, h: float, nodes: np.ndarray, lo, shape) -> list[np.ndarray]:
    """T_j[i, l] = factor(j, h (lo_j + i + y_lj)), for 0 <= i < shape[j]:
    f's axis-j factor at the nodes of the cells along axis j, at the
    coordinates `quadrature.box_batches` writes, bit for bit."""
    tables = []
    for j, (a, k) in enumerate(zip(lo, shape)):
        t = np.add.outer(np.arange(a, a + k, dtype=float), nodes[:, j])
        t *= h
        tables.append(np.asarray(factor(j, t.ravel()), dtype=float).reshape(t.shape))
    return tables


def _lead_product(lead, shape, start: int, stop: int, n: int) -> np.ndarray:
    """Rows start..stop of the Khatri-Rao product of the factor tables
    `lead` over their C-order grid `shape`: row i is the product of the
    tables' rows at the multi-index of i, left to right over the axes (a
    row of ones when there are no tables).  The product starts from the
    first table's rows, not from ones (1.0 * x is x), and with one table
    it is a view of that table's rows, so it must only be read."""
    if not lead:
        return np.ones((stop - start, n))
    first, *rest = lead
    if not rest:
        return first[start:stop]
    idx = np.unravel_index(np.arange(start, stop), shape)
    K = first[idx[0]]
    for table, i in zip(rest, idx[1:]):
        K *= table[i]
    return K


def _cell_samples(f, h: float, nodes: np.ndarray, lo, shape):
    """f at the nodes h (m + y_l) of the integer cells lo <= m < lo + shape,
    in batches of at most SAMPLE_CHUNK // n cells (one at least), in C
    order.  Yields (start, values) with values[i, l] = f(h (m_i +
    nodes[l])), m_i the cell of flat C-order index start + i; the values
    must be used before the next batch is asked for, since they may share
    memory with it.  A domain with no cell yields nothing.

    Tensor route, for an f with a `factor`: batches follow the rows of
    cells along the last axis.  The samples of a row are one broadcast
    product lead[:, None, :] * T_last, with T_last the last axis's
    `_factor_tables` table and lead the product of the leading axes' table
    rows at that row (`_lead_product`, left to right, so every sample is
    the same product in the same order as a per-node one, bit for bit; in
    2-D it is the one leading table's rows, read in place).
    When a row fits in a batch, a batch is as many whole rows as fit; when
    it does not (a 3-D cut cell has 6,000 nodes), a batch is a segment of
    one row, whose lead is formed once for all its segments.  f is not
    called per node and no table row is gathered per node.  Point route,
    for any other f: f receives the batches of `quadrature.box_batches`,
    (n, d) float views of (d, n) blocks with contiguous columns, and must
    not assume C order."""
    factor = getattr(f, "factor", None)
    if factor is None:
        fv = _value_fn(f)
        axes = [np.arange(a, a + k, dtype=float) for a, k in zip(lo, shape)]
        start = 0
        for pts in quadrature.box_batches(nodes, axes, h):
            vals = np.asarray(fv(pts), dtype=float).reshape(-1, len(nodes))
            yield start, vals
            start += len(vals)
        return
    n, lead_shape, width = len(nodes), tuple(shape[:-1]), int(shape[-1])
    rows = int(np.prod(lead_shape))
    if rows * width == 0:
        return
    *lead, last = _factor_tables(factor, h, nodes, lo, shape)
    step = max(1, quadrature.SAMPLE_CHUNK // n)
    # whole rows per batch, or one row in segments of `seg` cells
    per, seg = max(1, step // width), min(step, width)
    buffer = np.empty(min(per * seg, rows * width) * n)
    for r in range(0, rows, per):
        k = min(per, rows - r)
        K = _lead_product(lead, lead_shape, r, r + k, n)[:, None, :]
        for s in range(0, width, seg):
            m = min(seg, width - s)
            vals = buffer[:k * m * n].reshape(k, m, n)
            np.multiply(K, last[s:s + m], out=vals)
            yield r * width + s, vals.reshape(-1, n)


def _tensor_correlation(tables, stencil: np.ndarray) -> np.ndarray:
    """F[m_0, ..., m_{d-2}, j, m_{d-1}] = sum_l prod_i T_i[m_i, l] S[l, j]
    for the factor tables T_i and the stencil S, as matrix products:
    (K o S[:, j]) @ T_{d-1}^T, K the Khatri-Rao product of the leading
    tables (`_lead_product`).  K is taken in blocks of
    SAMPLE_CHUNK // (J n) rows, so that a block's K o S, against every j
    at once, holds about SAMPLE_CHUNK entries."""
    *lead, last = tables
    n, J = stencil.shape
    lead_shape = tuple(len(t) for t in lead)
    rows = int(np.prod(lead_shape))
    F = np.empty((rows, J, len(last)))
    step = max(1, quadrature.SAMPLE_CHUNK // (J * n))
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        A = _lead_product(lead, lead_shape, start, stop, n)[:, None, :] * stencil.T
        np.matmul(A.reshape(-1, n), last.T, out=F[start:stop].reshape(-1, len(last)))
    return F.reshape(lead_shape + (J, len(last)))


def _right_hand_sides(model: SplineSpaceModel, f) -> np.ndarray:
    """b_alpha = h^-d <f, B(./h - alpha)> for the window's shifts, C order.

    With support cells c = -offsets, the node h(alpha + c + y_l) of shift
    alpha is the node h(m + y_l) of mesh cell m = alpha + c.  With the
    stencil S = (table * weights).T, F[m, j] = sum_l f(h(m + y_l)) S[l, j]
    is computed once per cell m of the window grown by the support, and
    b_alpha is the sum over j of F[alpha + c_j, j].  Point route: f is
    sampled once per node of the grown window (`_cell_samples`) and each
    cell's samples are multiplied by S.  Tensor route, for an f with a
    `factor`: F comes from the factor tables by `_tensor_correlation`,
    with no sample per node.
    """
    nodes, weights, offsets, table = model.cell_table
    support = -offsets
    lo = support.min(axis=0)
    shape = np.array(model.window_shape)
    grown = shape + support.max(axis=0) - lo
    stencil = (table * weights).T
    factor = getattr(f, "factor", None)
    if factor is None:
        F = np.empty((int(np.prod(grown)), len(offsets)))
        for start, vals in _cell_samples(f, model.h, nodes, model.window_lo + lo, grown):
            F[start:start + len(vals)] = vals @ stencil
        F = np.moveaxis(F.reshape(tuple(grown) + (len(offsets),)), -1, -2)
    else:
        F = _tensor_correlation(
            _factor_tables(factor, model.h, nodes, model.window_lo + lo, grown), stencil)
    b = np.zeros(model.window_shape)
    for j, c in enumerate(support - lo):
        window = tuple(slice(a, a + n) for a, n in zip(c, shape))
        b += F[window[:-1] + (j, window[-1])]
    return b.ravel()


def _smooth_length(n: int) -> int:
    """The smallest integer at least n with no prime factor above 7."""
    while True:
        m = n
        for p in (2, 3, 5, 7):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _gram_symbol(gram, shape) -> np.ndarray:
    """The Gram symbol sum_gamma a(gamma) cos(2 pi gamma.k / N) at the
    frequencies k of the periodic grid `shape` = N, last axis halved as
    `rfftn` returns it: the table wrapped onto the grid, transformed.
    For an even table the transform is real; its real part is kept."""
    wrapped = np.zeros(shape)
    for gamma, a in gram.items():
        wrapped[tuple(g % n for g, n in zip(gamma, shape))] += a
    return np.fft.rfftn(wrapped).real


def _normal_operators(model: SplineSpaceModel):
    """The Gram operator of the window and its symbol preconditioner, two
    callables on flat C-order arrays, both derived from `model.gram` on
    this call.

    The operator is the window-truncated stencil product
    y[alpha] = sum_gamma a(gamma) c[alpha - gamma] over the alpha with
    alpha and alpha - gamma in the window, the product with `matrix()`.
    It is taken on the window embedded in zeros, `reach` = max |gamma_j|
    deep on every side: there a shift by gamma is a shift of the C-order
    flat array by gamma . strides that never wraps into the next row, so
    each offset costs one contiguous multiply-add.

    The preconditioner divides by the Gram symbol on a periodic grid of
    N_j >= n_j + reach_j points per axis (7-smooth, for a fast FFT): so
    large that the circulant of the table, restricted to the window, is
    the Gram matrix itself, and the zero-padded inverse circulant is an
    SPD approximate inverse that is exact away from the window's edges
    (Strang 1986; Chan & Ng 1996).  The symbol is floored at GRAM_DROP
    times its maximum, so that the preconditioner stays SPD where the
    symbol touches zero (linearly dependent shifts).
    """
    shape = model.window_shape
    reach = np.max(np.abs(np.array(list(model.gram))), axis=0)
    padded = tuple(int(k + 2 * r) for k, r in zip(shape, reach))
    strides = np.cumprod((1,) + padded[:0:-1])[::-1]
    inner = tuple(slice(int(r), int(r) + k) for r, k in zip(reach, shape))
    lo = int(reach @ strides)
    span = int(np.prod(padded)) - 2 * lo
    shifts = [(a, lo - int(np.dot(gamma, strides))) for gamma, a in model.gram.items()]

    def gram(c):
        grown = np.zeros(padded)
        grown[inner] = c.reshape(shape)
        flat = grown.ravel()
        y, term = np.zeros(flat.size), np.empty(span)
        for a, start in shifts:
            np.multiply(flat[start:start + span], a, out=term)
            y[lo:lo + span] += term
        return y.reshape(padded)[inner].ravel()

    grid = tuple(_smooth_length(k + int(r)) for k, r in zip(shape, reach))
    symbol = _gram_symbol(model.gram, grid)
    symbol = np.maximum(symbol, GRAM_DROP * symbol.max())
    axes = tuple(range(len(grid)))
    window = tuple(slice(0, k) for k in shape)

    def precondition(r):
        z = np.fft.rfftn(r.reshape(shape), s=grid, axes=axes)
        return np.fft.irfftn(z / symbol, s=grid, axes=axes)[window].ravel()

    return gram, precondition


def _cg(A, b: np.ndarray, M, rtol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients for A x = b from x = 0: the
    solution and the number of iterations taken, maxiter if the residual
    never fell below rtol ||b||.  A and M are callables on flat arrays.

    Step for step the loop of scipy 1.17's `scipy.sparse.linalg.cg` with
    x0 = None and atol = 0 (the same products, in the same order, updated
    in place as it updates them), so its iterates are scipy's bit for bit:
    the residual is tested before each step, and b = 0 returns (b, 0).
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return b, 0
    atol = rtol * float(bnorm)
    x, r = np.zeros(len(b)), b.copy()
    rho_prev, p = None, None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = M(r)
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


# `project` calls the solver through this namespace, so that a profiler
# can time the solve by replacing `spla`, as bench/tracing.py does.
spla = SimpleNamespace(cg=_cg)


def project(model: SplineSpaceModel, f) -> CoefficientField:
    """Coefficients of the L2 projection of f onto the model's window.

    Right-hand sides are h^-d integral f B(./h - alpha), assembled by
    `_right_hand_sides` as a correlation of f at the nodes of the model's
    cell rule, over the mesh cells the window's supports cover, with the
    per-cell stencil of the model's spline table.  The route depends on f
    alone.  An f with a `factor(axis, t)` method (every family of
    `testfunctions`) is a product of univariate factors: it is tabulated
    once per axis and the correlation is a few matrix products, with no
    call of f per node.  Any other f (a callable, or an object with a
    `value` method) is sampled once per node.  The two routes differ in
    rounding only: on tensor(1,1), tensor(2,2), courant, courant2 and
    bspline(3) at h = 1/4 and 1/8 and on a 3-D set at h = 1/2, for a
    Gaussian, a bump and a monomial, the right-hand sides were within
    7.8e-16 and the coefficients within 5.4e-15 of each other, relative to
    their largest entry.  The normal
    equations are solved matrix-free by the package's own conjugate
    gradients (`_cg`, step for step scipy's `cg`, so the coefficients are
    the ones scipy's loop gives, bit for bit) on the Gram stencil of
    `model.gram`, preconditioned by the inverse Gram symbol on a
    zero-padded periodic grid (`_normal_operators`); both are derived on
    every call, and the true residual is checked with the same stencil.
    The preconditioned system is well conditioned away from the window's
    edges, so a solve takes a handful of iterations (one on a window
    padded around a decaying f); the count is the result's `iterations`.
    The Gram matrix is positive definite when the shifts form a Riesz
    basis, and semidefinite when they are linearly dependent (zp, whose
    symbol touches zero); the right-hand side of a projection is then
    consistent and the solve still converges.
    The true relative residual must come out below RESIDUAL_TOL.  A
    non-finite Gram entry or right-hand side, and a solve that does not
    converge, raise SolverError.  On the point route f is called on
    batches of points that share one buffer (`quadrature.box_batches`): it
    must not modify its argument, nor keep it after it returns.
    """
    for gamma, a in model.gram.items():
        if not np.isfinite(a):
            raise SolverError(f"non-finite Gram entry a{gamma} = {a}")
    b = _right_hand_sides(model, f)
    if not np.all(np.isfinite(b)):
        raise SolverError("non-finite right-hand side: f is not finite on the window")
    A, M = _normal_operators(model)
    maxiter = 10 * len(b)
    c, iterations = spla.cg(A, b, M, rtol=RESIDUAL_TOL * 1e-2, maxiter=maxiter)
    if iterations == maxiter:
        raise SolverError(f"conjugate gradients did not converge in {maxiter} iterations")
    if not np.all(np.isfinite(c)):
        raise SolverError("normal-equation solve produced non-finite values")
    resid = A(c) - b
    scale = max(float(np.linalg.norm(b)), 1e-300)
    rel = float(np.linalg.norm(resid)) / scale
    if rel > RESIDUAL_TOL:
        raise SolverError(f"relative residual {rel:.3e} above {RESIDUAL_TOL}")
    return CoefficientField(
        window_lo=tuple(int(a) for a in model.window_lo),
        values=c.reshape(model.window_shape),
        residual=rel,
        iterations=iterations,
    )


def spline_values(model: SplineSpaceModel, coeffs: CoefficientField, x) -> np.ndarray:
    """Evaluate sum_alpha c_alpha B(x/h - alpha) at the points x.

    One spline evaluation per block of at most quadrature.SAMPLE_CHUNK
    (point, support offset) pairs; points whose dimension is not the
    model's raise ValueError.
    """
    pts, single = quadrature._as_points(x, model.V.dimension)
    X = pts / model.h
    zlo = np.rint(model.evaluator.support_lo).astype(int)
    zhi = np.rint(model.evaluator.support_hi).astype(int)
    deltas = quadrature.box_cells(1 - zhi, 1 - zlo)
    wlo = np.array(coeffs.window_lo)
    dims = np.array(coeffs.values.shape)
    out = np.zeros(len(X))
    step = max(1, quadrature.SAMPLE_CHUNK // len(deltas))
    for start in range(0, len(X), step):
        Xb = X[start:start + step]
        alpha = np.floor(Xb).astype(int)[:, None, :] + deltas
        idx = alpha - wlo
        ok = np.all((idx >= 0) & (idx < dims), axis=2)
        c = np.zeros(ok.shape)
        c[ok] = coeffs.values[tuple(idx[ok].T)]
        live = c != 0.0
        B = np.zeros(ok.shape)
        B[live] = model.evaluator((Xb[:, None, :] - alpha)[live])
        acc = out[start:start + step]
        for j in range(len(deltas)):
            acc += c[:, j] * B[:, j]
    return float(out[0]) if single else out


def _box_corners(box, dim: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The corners of a box as float arrays; ValueError unless both have
    `dim` finite coordinates and lo <= hi on every axis (a box of zero
    width is a box)."""
    lo, hi = (np.atleast_1d(np.asarray(c, dtype=float)) for c in box)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError(f"{what} corners of shapes {lo.shape}, {hi.shape} in dimension {dim}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(f"{what} corners {lo.tolist()}, {hi.tolist()} are not finite")
    if np.any(lo > hi):
        raise ValueError(f"{what} is reversed: lo {lo.tolist()} above hi {hi.tolist()} on some axis")
    return lo, hi


def _check_exponent(p: float) -> None:
    """Raise ValueError unless the norm exponent p is finite and at least 1."""
    if not (np.isfinite(p) and p >= 1.0):
        raise ValueError(f"norm exponent p must be finite and at least 1, got {p}")


def error_norm(f, model: SplineSpaceModel, coeffs: CoefficientField, p: float,
               domain=None, order: int = RULE_ORDER) -> tuple[float, float]:
    """Lp norm (and its p-th power) of f minus its projection over a box.

    The box is snapped outward to the mesh and integrated cell by cell
    with one cut-aware cell rule, split along the knot lines of the shifted
    splines so the piecewise-smooth integrand is handled cleanly.  The
    projection at the nodes of mesh cell m is the coefficients
    c_{m + delta} gathered against V's `cell_spline_table` at `order`,
    built once per process (`_cell_tables`, whose RULE_ORDER entry is the
    model's own table; at p != 2 the integrand is not piecewise
    polynomial, so a higher order shrinks the rule's error); the box
    spline is never evaluated per node.  The coefficients are laid into
    one zero array over every cell m + delta the domain reaches, so that a
    batch of cells gathers them with one `np.take` of flat indices; the
    cells' flat base indices are one outer sum of the per-axis index
    ranges times the strides.  Each batch's spline values
    `gathered @ table` are written into one buffer per call, in which the
    difference to f and its power are then formed, so that a batch makes
    no array of its size.  At p = 2 the difference is squared without
    `np.abs` (x*x is |x|*|x| bit for bit).  f is sampled by the route `project` takes for it
    (`_cell_samples`), in batches of SAMPLE_CHUNK // n cells (one at
    least), so that a call's buffers stay small: an f with a `factor`
    method is the product of its per-axis factor tables, one broadcast
    product per row of cells along the last axis (whole rows a batch, or
    segments of a row longer than a batch), and is not called per node;
    any other f is called on each batch of nodes, and must not modify its
    argument nor keep it after it returns.  On the cases listed in
    `project` the two routes' norms at p = 2 and 3 were within 1.2e-13 of
    each other, relative: the error is small against f, so the rounding
    of f weighs more in it.  An exponent p below 1 or not finite, an
    order that is not a positive integer, or a domain whose dimension is
    not the model's, that is reversed on some axis or has a corner that is
    not finite, raises ValueError.
    """
    _check_exponent(p)
    quadrature._check_integer("order", order, 1)
    h, d = model.h, model.V.dimension
    if domain is None:
        box = f.effective_box()
        if box is None:
            raise ValueError("need an explicit domain for non-decaying f")
        domain = box
    dlo, dhi = _box_corners(domain, d, "domain")
    mlo = np.floor(dlo / h).astype(int)
    shape = np.ceil(dhi / h).astype(int) - mlo
    nodes, weights, offsets, table = _cell_tables(model.V, order)[1]
    # the coefficients on every cell m + delta the domain reaches, zero off
    # the window, in one C-order array: domain cell i reads offset j at
    # flat[base[i] + shift[j]]
    rlo = mlo + offsets.min(axis=0)
    reach = shape + np.ptp(offsets, axis=0)
    grid = np.zeros(reach)
    wlo = np.array(coeffs.window_lo)
    lo, hi = np.maximum(wlo, rlo), np.minimum(wlo + coeffs.values.shape, rlo + reach)
    if np.all(hi > lo):
        grid[tuple(map(slice, lo - rlo, hi - rlo))] = \
            coeffs.values[tuple(map(slice, lo - wlo, hi - wlo))]
    flat = grid.ravel()
    strides = np.cumprod((1,) + tuple(reach[:0:-1]))[::-1]
    base = reduce(np.add.outer, [np.arange(a, a + k) * s for a, k, s
                                 in zip(mlo - rlo, shape, strides)]).ravel()
    shift = offsets @ strides
    # as many rows as the largest batch `_cell_samples` yields
    batch = min(max(1, quadrature.SAMPLE_CHUNK // len(nodes)), len(base))
    spline = np.empty((batch, len(nodes)))
    power = 0.0
    for start, fvals in _cell_samples(f, h, nodes, mlo, shape):
        gathered = flat.take(base[start:start + len(fvals), None] + shift)
        diff = np.matmul(gathered, table, out=spline[:len(fvals)])
        np.subtract(fvals, diff, out=diff)
        if p == 2:
            diff *= diff
        else:
            np.abs(diff, out=diff)
            diff **= p
        power += float((diff @ weights).sum())
    power *= h ** d
    return power ** (1.0 / p), power
