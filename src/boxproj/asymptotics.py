"""Mesh-refinement asymptotics of the projection error.

As the mesh size h goes to zero, the scaled p-th power of the projection
error of a smooth function converges to an explicit constant: the double
integral of the hyperplane-class ridge expansion driven by iterated
directional derivatives of f.  This module computes both sides: the
constant by quadrature (with an exact closed form at p = 2) and the left
side by projecting along a ladder of meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .lattice import (DirectionSet, UnsupportedDimensionError, _as_int_vectors, _coerce,
                      linear_form_product, multi_indices, product_derivative)
from .bernoulli import INNER_ORDER, _ridge_terms, bernoulli_l2_norm_sq, ridge_cut
from .projection import RULE_ORDER, _check_exponent, build_model, error_norm, project
from . import quadrature

CHUNK_ROWS = 2048  # outer nodes per block of the direct sum at p != 2
OUTER_ORDER = 12  # Gauss order of the outer rule over the support of f
SAMPLE_SEED = 7  # seed of the coefficient directions of norm_equivalence_constants


def directional_derivative(f, vectors, t):
    """Iterated directional derivative prod_v (v . grad) applied to f at t.

    Sums product_derivative(beta, vectors)/beta! times D^beta f over
    |beta| = len(vectors), the multinomial expansion of the product.
    """
    t = np.asarray(t, dtype=float)
    single = t.ndim == 1
    pts = np.atleast_2d(t)
    vecs = _as_int_vectors(vectors, pts.shape[1])
    out = np.zeros(len(pts))
    for beta in multi_indices(len(vecs[0]), len(vecs)):
        coef = product_derivative(beta, vecs)
        if coef == 0:
            continue
        out = out + (coef / beta.factorial) * np.asarray(f.derivative(beta, pts))
    return float(out[0]) if single else out


def _outer_cells(f):
    """Integer corners lo, hi of the unit cells that cover f's effective box."""
    box = f.effective_box()
    if box is None:
        raise ValueError("f must have an effective support box")
    lo = np.floor(np.asarray(box[0], dtype=float)).astype(int)
    hi = np.ceil(np.asarray(box[1], dtype=float)).astype(int)
    return lo, hi


def _check_dimension(f, V: DirectionSet) -> None:
    """ValueError unless f's effective box has the dimension of V."""
    d = len(_outer_cells(f)[0])
    if d != V.dimension:
        raise ValueError(f"f of dimension {d} for a direction set of dimension {V.dimension}")


def _outer_rule(f, order: int):
    """The outer rule: the tensor Gauss rule of the given order on each unit
    cell of `_outer_cells`."""
    lo, hi = _outer_cells(f)
    d = len(lo)
    base_pts, base_wts = quadrature.tensor_rule([0.0] * d, [1.0] * d, order)
    return quadrature.tile_rule(base_pts, base_wts, quadrature.box_cells(lo, hi))


def _class_derivatives(f, vector_lists):
    """(D, w): D[t, U] = prod_{v in U} (v . grad) f by `directional_derivative` at
    node t of `_outer_rule` at OUTER_ORDER, and w the rule's weights."""
    pts, wts = _outer_rule(f, OUTER_ORDER)
    return np.stack([directional_derivative(f, vs, pts) for vs in vector_lists], axis=-1), wts


def _derivative_gram(f, vector_lists) -> np.ndarray:
    """G_D[U, V] = sum_t w_t D_U f(t) D_V f(t) over `_outer_rule` at
    OUTER_ORDER, D_U = prod_{v in U} (v . grad), one row and column per
    vector list U.

    An f without `factor_derivative` takes G_D = D^T diag(w) D from the
    pointwise `_class_derivatives`.  Any other f (Gaussian, bump) is never
    sampled on the outer grid.  The outer rule is the product of per-axis
    rules (the nodes i + x_l of the cells along axis j, weights w_l) and
    D^beta f is the product of the factor derivatives phi_j^(beta_j), so
    G_D[U, V] = sum_{beta, beta'} C_U[beta] C_V[beta'] prod_j M_j[beta_j, beta'_j],
    with the moment matrices M_j = T_j diag(w) T_j^T, T_j[b] = phi_j^(b)
    at the axis-j nodes, and C_U the coefficients of prod_{v in U} (x . v).
    The product over the axes is the Kronecker product K of the M_j,
    indexed by beta in C order, and all pairs (U, V) are one product
    C K C^T.  That is O(sum_j N_j k^2) work for N_j nodes along axis j and
    k the longest list, plus O(c (k+1)^(2d)) for the product, C being
    `_form_coefficients`, built once per key; the pointwise route makes
    O(N_t n c) exp and polyval passes, n the number of multi-indices of
    order k, on the N_t = prod_j N_j outer nodes.  The two agree up to
    rounding.
    """
    if not hasattr(f, "factor_derivative"):
        D, wts = _class_derivatives(f, vector_lists)
        return (D.T * wts) @ D
    lo, hi = _outer_cells(f)
    order = max(len(vs) for vs in vector_lists)
    x, w = quadrature.unit_nodes(OUTER_ORDER)
    moments = []
    for j, (a, b) in enumerate(zip(lo, hi)):
        T = f.factor_derivative(j, order, np.add.outer(np.arange(a, b, dtype=float), x).ravel())
        moments.append((T * np.tile(w, b - a)) @ T.T)
    C = _form_coefficients(tuple(vector_lists), order, len(lo))
    return C @ reduce(np.kron, moments) @ C.T


@lru_cache(maxsize=None)
def _form_coefficients(vector_lists, order: int, dim: int) -> np.ndarray:
    """C[U, beta]: the coefficient of x^beta in prod_{v in U} (x . v), one
    row per vector list U and one column per beta in (order + 1)^dim, C
    order.  Built once per process for each key, and read-only."""
    shape = (order + 1,) * dim
    C = np.zeros((len(vector_lists), (order + 1) ** dim))
    for row, vs in zip(C, vector_lists):
        for beta, coef in linear_form_product(vs).items():
            row[np.ravel_multi_index(beta, shape)] = coef
    C.flags.writeable = False
    return C


def sobolev_product_norm(f, vectors, p: float = 2.0) -> float:
    """Integral of |prod (v.grad) f|^p over the effective support of f, on
    the outer rule.

    At p = 2 this is the one entry of `_derivative_gram`; any other p sums
    w |D|^p over `_class_derivatives`.  p below 1 or not finite raises
    ValueError, and so do an empty vector list and a vector that is not
    integral or not of f's dimension.
    """
    _check_exponent(p)
    vectors = _as_int_vectors(vectors, len(_outer_cells(f)[0]))
    if p == 2:
        return float(_derivative_gram(f, [vectors])[0, 0])
    D, wts = _class_derivatives(f, [vectors])
    return float(np.dot(wts, np.abs(D[:, 0]) ** p))


@lru_cache(maxsize=None)
def _ridge_cell_table(V: DirectionSet, order: int):
    """The ridge terms of V and their values on one lattice cell.

    Returns (terms, B, weights): B[x, U] is term U at node x of the unit
    cell rule of the given Gauss order, which is cut along every class and
    Bernoulli-root hyperplane, so that each term is one polynomial of
    degree k = margin + 1 on each simplex of the rule.  A product of two
    terms then has degree 2k, which the collapsed rule of order q
    integrates exactly when 2q >= 2k + d: from order k + 2 on through
    dimension 4.  At INNER_ORDER the 3-D rule has about 1.8 million nodes.

    The table is built once per process for every set equal to V and each
    order (the key is the set's value, not the object), on first use:
    `terms` is a tuple and B and the weights are read-only.
    """
    d = V.dimension
    terms = _ridge_terms(V)
    cuts = [ridge_cut(t.hyperplane.alpha, t.degree) for t in terms]
    pts, wts = quadrature.cell_rule([0.0] * d, [1.0] * d, cuts, order)
    B = np.stack([t.evaluate(pts) for t in terms], axis=-1)
    for a in (B, wts):
        a.flags.writeable = False
    return terms, B, wts


@lru_cache(maxsize=None)
def _ridge_gram(V: DirectionSet, order: int) -> np.ndarray:
    """G_B = B^T diag(w) B, the Gram matrix of the ridge terms of V on the
    rule of `_ridge_cell_table(V, order)`.  Like the table it is built once
    per process for every set equal to V and each order, and is read-only."""
    _, B, wts = _ridge_cell_table(V, order)
    gram = (B.T * wts) @ B
    gram.flags.writeable = False
    return gram


def error_constant(f, V, p: float) -> float:
    """Limit constant by direct double quadrature, any finite p >= 1.

    Inner integral over one lattice cell of |sum of ridge terms|^p; outer
    integral over t of the class derivatives of f.  The inner cell is cut
    along every class and Bernoulli-root hyperplane, which makes the p = 2
    case exact through dimension 4; odd p with several classes has a curved
    zero set that is not cut, so expect quadrature error there rather than
    machine precision.

    At p = 2 the double sum factors exactly into sum_{U,V} G_D[U,V] G_B[U,V]
    over class pairs, with G_D = D^T diag(w_t) D and G_B = B^T diag(w_x) B
    the Gram matrices of the class derivatives and of the ridge terms on
    the same nodes.  The cross terms are kept, so this measures the
    orthogonality that `error_constant_l2` assumes.  G_B is `_ridge_gram`
    on the cell rule of order k + 2 (k = margin + 1), on which it is
    exact, built once per set; G_D is `_derivative_gram`.
    Other p sum |D B^T|^p, which is no polynomial, directly: D from
    `_class_derivatives`, B on the rule of order INNER_ORDER, CHUNK_ROWS
    outer nodes at a time; in 3-D one such block would take about 30 GB, so
    p other than 2 above dimension 2 raises `UnsupportedDimensionError` at
    entry.  p below 1 or not finite, or an f whose dimension is not V's,
    raises ValueError.
    """
    _check_exponent(p)
    V = _coerce(V)
    _check_dimension(f, V)
    if p != 2 and V.dimension > 2:
        raise UnsupportedDimensionError(
            f"p = {p} sums |D B^T|^p over the 1.8 million nodes of the 3-D cell rule, about "
            f"30 GB per {CHUNK_ROWS} outer nodes; above dimension 2 only p = 2 is supported")
    members = [cls.members for cls in V.classes]
    if p == 2:
        return float(np.sum(_derivative_gram(f, members) * _ridge_gram(V, V.margin + 3)))
    _, B, xwts = _ridge_cell_table(V, INNER_ORDER)
    D, twts = _class_derivatives(f, members)
    total = 0.0
    for start in range(0, len(twts), CHUNK_ROWS):
        S = D[start:start + CHUNK_ROWS] @ B.T
        total += np.dot(twts[start:start + CHUNK_ROWS], np.abs(S) ** p @ xwts)
    return float(total)


def error_constant_l2(f, V) -> float:
    """Closed form at p = 2: the ridge terms are L2-orthogonal over a cell.

    Distinct classes have non-parallel normals, so their lattice Fourier
    supports meet only at zero; the cross terms drop and the constant is
    a weighted sum of squared directional-derivative norms, the diagonal
    of one `_derivative_gram` over all classes.  An f whose dimension is
    not V's raises ValueError.
    """
    V = _coerce(V)
    _check_dimension(f, V)
    period_norm = float(bernoulli_l2_norm_sq(V.margin + 1))
    norms = np.diag(_derivative_gram(f, [cls.members for cls in V.classes]))
    return float(sum(period_norm * float(cls.scale) ** 2 * float(norm)
                     for cls, norm in zip(V.classes, norms)))


def _extrapolate(ladder, ratios) -> float:
    """Limit of the ratio sequence as h -> 0.

    The ratio expands in even powers of h: the spline space is invariant
    under x -> -x, so the odd-order terms average out over a cell.  The
    last three rungs are fitted exactly by C + c2 h^2 + c4 h^4, or the last
    two by C + c2 h^2, and C is returned.
    """
    tail = min(3, len(ratios))
    h2 = np.asarray(ladder[-tail:], dtype=float) ** 2
    return float(np.linalg.solve(np.vander(h2, increasing=True), ratios[-tail:])[0])


def norm_equivalence_constants(V, p: float, samples: int = 4000) -> tuple[float, float]:
    """Numerical equivalence constants on the span of the ridge terms.

    Returns (c1, c2) such that, over sampled coefficient directions a,
    the cell integral of |sum a_U term_U|^p stays between c1 and c2 times
    sum |a_U|^p * cell-power of term_U, both sides read from one cut cell
    table of the terms.  At p = 2 orthogonality forces
    c1 = c2 = 1; for other p this gives the loose sandwich used to
    validate the generic constant.  Dimensions above 2 raise
    `UnsupportedDimensionError` at entry: every sample would be evaluated at
    the 1.8 million nodes of the 3-D cell rule.  p below 1 or not finite,
    or a sample count that is not a positive integer, raises ValueError.
    """
    _check_exponent(p)
    quadrature._check_integer("samples", samples, 1)
    V = _coerce(V)
    if V.dimension > 2:
        raise UnsupportedDimensionError(
            f"{samples} samples at each of the 1.8 million nodes of the 3-D cell rule are too "
            "many; norm_equivalence_constants needs dimension 1 or 2")
    terms, B, wts = _ridge_cell_table(V, INNER_ORDER)
    powers = (np.abs(B) ** p).T @ wts
    rng = np.random.default_rng(SAMPLE_SEED)
    A = rng.normal(size=(samples, len(terms)))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    lhs = (np.abs(A @ B.T) ** p) @ wts
    rhs = (np.abs(A) ** p) @ powers
    ratios = lhs / rhs
    return float(ratios.min()), float(ratios.max())


@dataclass
class ConvergenceReport:
    """Ladder study of the scaled projection error against its limit."""

    p: float
    critical_order: int
    ladder: tuple[float, ...]
    norms: tuple[float, ...]
    ratios: tuple[float, ...]
    fitted_rate: float
    extrapolated_ratio: float
    constant: float
    rel_error: float


def convergence_sweep(f, V, p: float, ladder, padding: int | None = None,
                      norm_order: int = RULE_ORDER,
                      constant: float | None = None) -> ConvergenceReport:
    """Project f along a mesh ladder and compare the scaled error power
    with the limit constant.

    The fitted rate is the log-log slope of the error norms over the last
    few rungs; the ratio sequence norms^p / h^(p k) is extrapolated to
    h = 0 by an exact fit of C + c2 h^2 (+ c4 h^4) on the last two (three)
    rungs.  A ladder with fewer than two mesh sizes, or one that repeats a
    mesh size, a norm_order that is not a positive integer, or a constant
    that is zero or not finite, raises ValueError.
    """
    quadrature._check_integer("norm_order", norm_order, 1)
    if constant is not None and not (np.isfinite(constant) and constant != 0):
        raise ValueError(f"constant must be finite and nonzero, got {constant}")
    V = _coerce(V)
    ladder = tuple(sorted((float(h) for h in ladder), reverse=True))
    if len(ladder) < 2 or len(set(ladder)) < len(ladder):
        raise ValueError(f"ladder needs at least two mesh sizes, all distinct, got {ladder}")
    k = V.margin + 1
    norms, ratios = [], []
    for h in ladder:
        model = build_model(V, h, f, padding=padding)
        coeffs = project(model, f)
        norm, power = error_norm(f, model, coeffs, p, order=norm_order)
        norms.append(norm)
        ratios.append(power / h ** (p * k))
    tail = min(4, len(ladder))
    slope = np.polyfit(np.log(ladder[-tail:]), np.log(norms[-tail:]), 1)[0]
    extrapolated = _extrapolate(ladder, ratios)
    if constant is None:
        constant = error_constant_l2(f, V) if p == 2.0 else error_constant(f, V, p)
    rel = abs(extrapolated - constant) / abs(constant)
    return ConvergenceReport(
        p=p,
        critical_order=k,
        ladder=ladder,
        norms=tuple(norms),
        ratios=tuple(ratios),
        fitted_rate=float(slope),
        extrapolated_ratio=float(extrapolated),
        constant=float(constant),
        rel_error=float(rel),
    )
