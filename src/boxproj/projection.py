"""L2 projection onto the lattice shifts of a box spline, on a truncated window.

The projector solves the normal equations, a banded symmetric positive
definite Gram system whose entries are shift autocorrelations of the
spline, by conjugate gradients.  Everything is set up at mesh size h by
rescaling; the coefficient field of the projection of f at mesh h equals
that of f(h .) at mesh 1, so quadrature rules are precomputed once in
lattice coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import DirectionSet, _coerce
from .boxspline import BoxSplineEvaluator
from . import quadrature

MAX_UNKNOWNS = 600_000
RESIDUAL_TOL = 1e-12
GRAM_DROP = 1e-14
RULE_ORDER = 10  # Gauss-Legendre order of the cell rule behind the model's tables
SYMBOL_GRID = 64  # frequencies per axis at which gram_symbol_range samples the symbol


class SolverError(RuntimeError):
    """Normal-equation solve failed or left a residual above tolerance."""


def _value_fn(f):
    return f.value if hasattr(f, "value") else f


def autocorrelation_table(V) -> dict[tuple[int, ...], float]:
    """All nonzero shift autocorrelations a(gamma) = int B(x) B(x - gamma) dx,
    keyed by integer offset in lexicographic order.

    The contraction `_gram` of a freshly built `cell_spline_table` at
    RULE_ORDER; `build_model` applies the same contraction to the table
    it keeps, so a model's `gram` equals this table exactly.  The checks
    compare it with the doubled spline M_{V u -V}(gamma), the same integral.
    """
    return _gram(cell_spline_table(BoxSplineEvaluator(_coerce(V))))


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

    def value_at(self, alpha) -> float:
        idx = tuple(int(a) - lo for a, lo in zip(alpha, self.window_lo))
        if any(i < 0 or i >= s for i, s in zip(idx, self.values.shape)):
            return 0.0
        return float(self.values[idx])


@dataclass
class SplineSpaceModel:
    """Precomputed machinery for projecting at one mesh size.

    Holds the window (in lattice units), the cell-periodic spline table
    of `cell_spline_table` at RULE_ORDER, and the Gram table contracted
    from it (equal to `autocorrelation_table`).  The spline table serves
    the Gram table, the right-hand sides of `project` and the error norms
    of `error_norm`.  Nothing is derived from `gram` and kept: `matrix()`
    lays it out afresh on each call, so an edit to `gram` takes effect at
    the next `project`.
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

        Offset gamma fills the diagonal at flat offset -gamma . strides.
        DIA storage indexes a diagonal by column beta, so only the columns
        whose row beta + gamma stays in the window are set; the zeros left
        are dropped by the CSR conversion.  Offsets that coincide on a
        small window set disjoint columns of one shared diagonal.
        """
        dims = np.array(self.window_shape)
        n = self.unknowns
        strides = np.array([int(np.prod(dims[j + 1:])) for j in range(len(dims))])
        offsets, diag = np.unique(-np.array(list(self.gram)) @ strides, return_inverse=True)
        data = np.zeros((len(offsets), n))
        for i, (gamma, a) in enumerate(self.gram.items()):
            data[diag[i]].reshape(self.window_shape)[tuple(
                slice(max(0, -g), max(0, k - g)) for g, k in zip(gamma, dims))] = a
        A = sp.dia_matrix((data, offsets), shape=(n, n)).tocsr()
        A.sort_indices()
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
    default padding is three support diameters.  The spline is evaluated
    once, for the cell table, and the Gram table is contracted from it.
    A mesh size that is not finite and positive, a negative padding, or a
    box whose dimension is not that of V raises ValueError.
    """
    h = float(h)
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"mesh size h must be finite and positive, got {h}")
    if padding is not None and padding < 0:
        raise ValueError(f"padding must be nonnegative, got {padding}")
    V = _coerce(V)
    spline = BoxSplineEvaluator(V)
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
    table = cell_spline_table(spline)
    return SplineSpaceModel(
        V=V,
        h=h,
        window_lo=wlo,
        window_shape=shape,
        gram=_gram(table),
        evaluator=spline,
        cell_table=table,
        padding=padding,
    )


def _cell_samples(fv, h: float, cells: np.ndarray, nodes: np.ndarray):
    """f at the nodes h (m + y_l) of the integer cells m, in batches of
    about quadrature.SAMPLE_CHUNK nodes.  Yields (start, values) with
    values[i, l] = f(h (cells[start + i] + nodes[l])).  Each batch of
    points is the `quadrature.tile_points` of the cell rule's nodes
    scaled by h in place: f receives an (n, d) float view of a (d, n)
    block, with contiguous columns, and must not assume C order."""
    step = max(1, quadrature.SAMPLE_CHUNK // len(nodes))
    for start in range(0, len(cells), step):
        m = cells[start:start + step]
        pts = quadrature.tile_points(nodes, m)
        pts *= h
        yield start, np.asarray(fv(pts), dtype=float).reshape(len(m), len(nodes))


def _right_hand_sides(model: SplineSpaceModel, fv) -> np.ndarray:
    """b_alpha = h^-d <f, B(./h - alpha)> for the window's shifts, C order.

    With support cells c = -offsets, the node h(alpha + c + y_l) of shift
    alpha is the node h(m + y_l) of mesh cell m = alpha + c.  So f is
    sampled once per node of the window grown by the support, the samples
    of each cell are multiplied by the stencil (table * weights).T to give
    F[m, j] = sum_l f(h(m + y_l)) w_l B(y_l + c_j), and b_alpha is the sum
    over j of F[alpha + c_j, j].
    """
    nodes, weights, offsets, table = model.cell_table
    support = -offsets
    lo = support.min(axis=0)
    shape = np.array(model.window_shape)
    grown = shape + support.max(axis=0) - lo
    cells = quadrature.box_cells(model.window_lo + lo, model.window_lo + lo + grown)
    stencil = (table * weights).T
    F = np.empty((len(cells), len(offsets)))
    for start, vals in _cell_samples(fv, model.h, cells, nodes):
        F[start:start + len(vals)] = vals @ stencil
    F = F.reshape(tuple(grown) + (len(offsets),))
    b = np.zeros(model.window_shape)
    for j, c in enumerate(support - lo):
        b += F[tuple(slice(a, a + n) for a, n in zip(c, shape)) + (j,)]
    return b.ravel()


def project(model: SplineSpaceModel, f) -> CoefficientField:
    """Coefficients of the L2 projection of f onto the model's window.

    Right-hand sides are h^-d integral f B(./h - alpha), assembled by
    `_right_hand_sides` as a correlation of f, sampled once per node of
    the model's cell rule over the mesh cells the window's supports cover,
    with the per-cell stencil of the model's spline table.  The Gram
    matrix is symmetric positive definite with condition number at most
    the symbol ratio of `gram_symbol_range`, so conjugate gradients on
    `model.matrix()` converge in a few dozen iterations; the true relative
    residual must come out below RESIDUAL_TOL.  A non-finite Gram entry or
    right-hand side, and a solve that does not converge, raise SolverError.
    """
    for gamma, a in model.gram.items():
        if not np.isfinite(a):
            raise SolverError(f"non-finite Gram entry a{gamma} = {a}")
    b = _right_hand_sides(model, _value_fn(f))
    if not np.all(np.isfinite(b)):
        raise SolverError("non-finite right-hand side: f is not finite on the window")
    A = model.matrix()
    c, info = spla.cg(A, b, rtol=RESIDUAL_TOL * 1e-2, atol=0.0)
    if info != 0:
        raise SolverError(f"conjugate gradients did not converge in {info} iterations")
    if not np.all(np.isfinite(c)):
        raise SolverError("normal-equation solve produced non-finite values")
    resid = A @ c - b
    scale = max(float(np.linalg.norm(b)), 1e-300)
    rel = float(np.linalg.norm(resid)) / scale
    if rel > RESIDUAL_TOL:
        raise SolverError(f"relative residual {rel:.3e} above {RESIDUAL_TOL}")
    return CoefficientField(
        window_lo=tuple(int(a) for a in model.window_lo),
        values=c.reshape(model.window_shape),
        residual=rel,
    )


def spline_values(model: SplineSpaceModel, coeffs: CoefficientField, x) -> np.ndarray:
    """Evaluate sum_alpha c_alpha B(x/h - alpha) at the points x.

    One spline evaluation per block of at most quadrature.SAMPLE_CHUNK
    (point, support offset) pairs; points whose dimension is not the
    model's raise ValueError.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    X = np.atleast_2d(pts) / model.h
    d = model.V.dimension
    if X.shape[1] != d:
        raise ValueError(f"points of dimension {X.shape[1]} for a model of dimension {d}")
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
    `dim` coordinates."""
    lo, hi = (np.atleast_1d(np.asarray(c, dtype=float)) for c in box)
    if lo.shape != (dim,) or hi.shape != (dim,):
        raise ValueError(f"{what} corners of shapes {lo.shape}, {hi.shape} in dimension {dim}")
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
    c_{m + delta} gathered against `cell_spline_table`: the model's own
    table when `order` is RULE_ORDER, else one built for this call at
    `order` (at p != 2 the integrand is not piecewise polynomial, so a
    higher order shrinks the rule's error); the box spline is never
    evaluated per node.  An exponent p below 1 or not finite, or a domain
    whose dimension is not the model's, raises ValueError.
    """
    _check_exponent(p)
    fv = _value_fn(f)
    h, d = model.h, model.V.dimension
    if domain is None:
        box = f.effective_box()
        if box is None:
            raise ValueError("need an explicit domain for non-decaying f")
        domain = box
    dlo, dhi = _box_corners(domain, d, "domain")
    mlo = np.floor(dlo / h).astype(int)
    mhi = np.ceil(dhi / h).astype(int)
    if order == RULE_ORDER:
        nodes, weights, offsets, table = model.cell_table
    else:
        nodes, weights, offsets, table = cell_spline_table(model.evaluator, order)
    cells = quadrature.box_cells(mlo, mhi)
    wlo = np.array(coeffs.window_lo)
    dims = np.array(coeffs.values.shape)
    power = 0.0
    for start, fvals in _cell_samples(fv, h, cells, nodes):
        m = cells[start:start + len(fvals)]
        gathered = np.zeros((len(m), len(offsets)))
        for j, delta in enumerate(offsets):
            idx = m + delta - wlo
            ok = np.all((idx >= 0) & (idx < dims), axis=1)
            gathered[ok, j] = coeffs.values[tuple(idx[ok].T)]
        power += float(np.sum(np.abs(fvals - gathered @ table) ** p @ weights))
    power *= h ** d
    return power ** (1.0 / p), power


def residual_orthogonality(f, model: SplineSpaceModel, coeffs: CoefficientField,
                           alphas) -> float:
    """Max over the given shifts of |<f - Pf, B(./h - alpha)>|, recomputed
    by direct quadrature (independent of the assembly path)."""
    fv = _value_fn(f)
    h = model.h
    zlo, zhi = model.evaluator.support_lo, model.evaluator.support_hi
    cuts = model.evaluator.quadrature_cuts(h)
    worst = 0.0
    for alpha in alphas:
        a = np.asarray(alpha, dtype=float)

        def integrand(X, a=a):
            diff = fv(X) - spline_values(model, coeffs, X)
            return diff * model.evaluator(X / h - a)

        val = quadrature.integrate(
            integrand, h * (a + zlo), h * (a + zhi), cuts=cuts, order=RULE_ORDER, spacing=h
        )
        worst = max(worst, abs(float(val)))
    return worst


def gram_symbol_range(V) -> tuple[float, float]:
    """Min and max of the Gram symbol sum_gamma a(gamma) cos(2 pi gamma.w),
    over SYMBOL_GRID points per axis of the unit cell of frequencies w.

    A positive minimum certifies the shifts form a Riesz basis, hence the
    normal equations are uniformly well posed.
    """
    V = _coerce(V)
    table = autocorrelation_table(V)
    d = V.dimension
    w = quadrature.product_grid([np.linspace(0.0, 1.0, SYMBOL_GRID, endpoint=False)] * d)
    sym = np.zeros(len(w))
    for gamma, a in table.items():
        sym += a * np.cos(2.0 * np.pi * (w @ np.array(gamma, dtype=float)))
    return float(sym.min()), float(sym.max())
