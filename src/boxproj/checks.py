"""Second routes, and the invariant battery behind `boxproj check`.

Every function here recomputes something the library computes, by an
independent route that no library path calls; the tests and the battery
compare the two.  Each check of `run_battery` returns a measured value
and a tolerance, and the CLI renders them as machine-readable lines.  The
battery favors breadth over depth: the exhaustive versions live in the
test suite, the battery is the smoke screen a deployment can run in under
a minute.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import (
    BoxSplineEvaluator,
    DirectionSet,
    MultiIndex,
    NonUnimodularError,
    autocorrelation_table,
    bernoulli_l2_norm_sq,
    build_model,
    directional_derivative,
    error_constant,
    error_constant_l2,
    error_expansion,
    monomial,
    monomial_error_series,
    multi_indices,
    nonorthogonal_directions,
    gaussian,
    preset,
    project,
    spline_values,
    transform_derivative,
    transform_derivatives,
)
from .bernoulli import (INNER_ORDER, BernoulliSplineTerm, _class_weights, bernoulli_periodic,
                        ridge_cut)
from .boxspline import _leibniz_derivative
from .lattice import _coerce
from .projection import (RULE_ORDER, CoefficientField, SplineSpaceModel, _gram_symbol,
                         _normal_operators, _value_fn)
from . import quadrature

NORM_SERIES_BASE = 64  # first truncation of the Fourier-side norm series
NORM_SERIES_LEVELS = 6  # doublings of it that the Neville extrapolation combines
SYMBOL_GRID = 64  # frequencies per axis at which gram_symbol_range samples the symbol


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float
    passed: bool
    note: str = ""


def _check(name, value, tol, note="") -> CheckResult:
    return CheckResult(name=name, value=float(value), tol=float(tol),
                       passed=bool(value <= tol), note=note)


_THREE_D = DirectionSet(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
_MARGINS = {
    "haar": 0, "bspline(2)": 1, "bspline(3)": 2,
    "tensor(1,1)": 0, "tensor(2,2)": 1, "courant": 1, "courant2": 3, _THREE_D: 1,
}
_CLASS_COUNTS = {
    "haar": 1, "bspline(2)": 1, "tensor(1,1)": 2,
    "tensor(2,2)": 2, "courant": 3, "courant2": 3, _THREE_D: 6,
}


def _doubled_autocorrelation(V, gamma) -> float:
    """a(gamma) by a second route: the box spline of the doubled set
    V u -V at the offset gamma equals int B(x) B(x - gamma) dx."""
    doubled = DirectionSet(V.vectors + tuple(tuple(-x for x in v) for v in V.vectors))
    return float(BoxSplineEvaluator(doubled)(np.array([int(g) for g in gamma], dtype=float)))


def _leibniz_transform_derivative(V, beta, freq) -> complex:
    """D^beta of the transform at the integer frequency freq by a second
    route: the product rule expanded over every way of distributing the
    derivatives among the factors, with no closed form and no structural
    zero."""
    dots = [sum(f * x for f, x in zip(freq, v)) for v in V.vectors]
    return _leibniz_derivative(V, MultiIndex.of(beta), dots)


def _nested_directional_derivative(f, vectors, t):
    """prod_v (v . grad) f at the points t by a second route: the product
    expanded over one coordinate choice per factor, not by multinomials."""
    d = len(vectors[0])
    out = np.zeros(len(t))
    for picks in itertools.product(range(d), repeat=len(vectors)):
        coef = math.prod(v[axis] for v, axis in zip(vectors, picks))
        if coef != 0:
            out = out + coef * np.asarray(f.derivative(tuple(picks.count(j) for j in range(d)), t))
    return out


def integral_identity_check(V, f, order: int = 12):
    """Both sides of the defining identity: pair f with the spline two ways.

    Left: integral of f(x) B(x) over the support.  Right: integral of
    f(V u) over the unit cube in R^n.  Only sensible for n <= 5 (the right
    side is an n-dimensional tensor rule).
    """
    V = _coerce(V)
    n = len(V)
    if n > 5:
        raise ValueError("defining-identity check supported for n <= 5 only")
    spline = BoxSplineEvaluator(V)
    lhs = quadrature.integrate(
        lambda X: f(X) * spline(X),
        spline.support_lo,
        spline.support_hi,
        cuts=spline.quadrature_cuts(1.0),
        order=order,
        spacing=1.0,
    )
    mat = np.array(V.vectors, dtype=float)
    pts, wts = quadrature.tensor_rule([0.0] * n, [1.0] * n, order)
    rhs = np.dot(wts, f(pts @ mat))
    return lhs, rhs


def bernoulli_l2_norm_sq_series(k: int) -> float:
    """Squared L2 norm over a period, from the Fourier side.

    By orthogonality the integral equals 2 sum_{n>0} (2 pi n)^(-2k).  Raw
    truncation converges like N^(1-2k), hopeless for k = 1 at tight
    tolerances, but the tail expands in integer powers of 1/N, so Neville
    extrapolation of the partial sums over a doubling ladder of N recovers
    the limit to near machine precision.
    """
    xs, vals = [], []
    for j in range(NORM_SERIES_LEVELS):
        n_max = NORM_SERIES_BASE << j
        n = np.arange(1, n_max + 1, dtype=float)
        xs.append(1.0 / n_max)
        vals.append(2.0 * float(np.sum((2.0 * np.pi * n) ** (-2 * k))))
    table = list(vals)
    for m in range(1, NORM_SERIES_LEVELS):
        nxt = []
        for i in range(NORM_SERIES_LEVELS - m):
            num = table[i + 1] * xs[i] - table[i] * xs[i + m]
            nxt.append(num / (xs[i] - xs[i + m]))
        table = nxt
    return table[0]


def periodic_lp_power(k: int, p: float) -> float:
    """Integral over one period of |B_k|^p, split at the sign changes."""
    pts, wts = quadrature.cell_rule([0.0], [1.0], (ridge_cut((1,), k),), INNER_ORDER)
    return float(np.dot(wts, np.abs(bernoulli_periodic(k, pts[:, 0])) ** p))


def ridge_lp_power(term: BernoulliSplineTerm, p: float) -> float:
    """Integral over one lattice cell of |term|^p.

    Factorizes as the period integral of |B_deg|^p times |scale|^p; this
    computes the left side directly by cut-aware cell quadrature so the
    factorization can be tested rather than assumed.
    """
    d = len(term.hyperplane.alpha)
    cuts = (ridge_cut(term.hyperplane.alpha, term.degree),)
    pts, wts = quadrature.cell_rule([0.0] * d, [1.0] * d, cuts, INNER_ORDER)
    return float(np.dot(wts, np.abs(term.evaluate(pts)) ** p))


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
    over SYMBOL_GRID points per axis of the unit cell of frequencies w:
    the `_gram_symbol` of the table on that grid, the symbol `project`
    preconditions with.

    A positive minimum certifies the shifts form a Riesz basis, hence the
    normal equations are uniformly well posed.
    """
    V = _coerce(V)
    sym = _gram_symbol(autocorrelation_table(V), (SYMBOL_GRID,) * V.dimension)
    return float(sym.min()), float(sym.max())


def finite_difference(f, beta, x, step: float = 1e-2):
    """Central finite difference of D^beta f at a single point x.

    Richardson-extrapolated once; used to self-test the closed forms.
    """
    beta = MultiIndex.of(beta)
    x = np.asarray(x, dtype=float)

    def diff(g, axis, h):
        def out(y):
            e = np.zeros_like(x)
            e[axis] = h
            return (g(y + e) - g(y - e)) / (2.0 * h)

        return out

    def nested(h):
        g = lambda y: f.value(y)
        for axis, bj in enumerate(beta):
            for _ in range(bj):
                g = diff(g, axis, h)
        return g(x)

    coarse = nested(step)
    fine = nested(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def run_battery(perturb_gram: float = 0.0) -> list[CheckResult]:
    out = []

    sets = {k: preset(k) if isinstance(k, str) else k for k in _MARGINS}
    bad = sum(sets[k].margin != v for k, v in _MARGINS.items())
    out.append(_check("preset_margins", bad, 0, "mismatches against frozen table"))

    bad = sum(len(sets[k].classes) != v for k, v in _CLASS_COUNTS.items())
    out.append(_check("preset_class_counts", bad, 0))

    try:
        preset("zp").classes
        out.append(_check("nonunimodular_rejection", 1, 0, "zp was not rejected"))
    except NonUnimodularError:
        out.append(_check("nonunimodular_rejection", 0, 0))

    worst = 0
    for name in ("tensor(2,2)", "courant", "courant2"):
        V = preset(name)
        for alpha in itertools.product(range(-3, 4), repeat=V.dimension):
            if all(a == 0 for a in alpha):
                continue
            deficit = V.margin + 1 - len(nonorthogonal_directions(V, alpha))
            worst = max(worst, deficit)
    out.append(_check("active_direction_count", worst, 0,
                      "margin+1 lower bound on #U_alpha"))

    for k in (1, 2):
        exact = float(bernoulli_l2_norm_sq(k))
        series = bernoulli_l2_norm_sq_series(k)
        pts, wts = quadrature.cell_rule([0.0], [1.0], (), order=16)
        quad = float(np.dot(wts, bernoulli_periodic(k, pts[:, 0]) ** 2))
        spread = max(abs(exact - series), abs(exact - quad), abs(series - quad))
        out.append(_check(f"parseval_k{k}", spread, 1e-10))

    worst = 0.0
    for name in ("bspline(2)", "courant"):
        V = preset(name)
        for beta in multi_indices(V.dimension, V.margin + 1):
            for alpha in itertools.product(range(-2, 3), repeat=V.dimension):
                if all(a == 0 for a in alpha):
                    continue
                a = transform_derivative(V, beta, alpha)
                b = _leibniz_transform_derivative(V, beta, alpha)
                worst = max(worst, abs(a - b))
    out.append(_check("transform_two_route", worst, 1e-12))

    bad = 0
    for V in (preset("bspline(3)"), preset("courant"), preset("courant2"), _THREE_D):
        for beta in multi_indices(V.dimension, V.margin + 1):
            for cls in V.classes:
                k = np.arange(1, 300 // max(map(abs, cls.alpha)) + 1)
                want = transform_derivatives(V, beta, np.multiply.outer(np.concatenate([k, -k]),
                                                                        cls.alpha))
                got = _class_weights(V, beta, cls, 300)
                if got is None:
                    bad += np.count_nonzero(want)
                else:
                    # the k > 0 half, then the -k half from its parity
                    got = np.concatenate([got, (-1) ** cls.degree * got.real])
                    bad += np.count_nonzero(got.view(np.uint64) != want.view(np.uint64))
    out.append(_check("series_weights", bad, 0,
                      "bitwise mismatches of the closed-form class weights, radius 300"))

    hat = BoxSplineEvaluator(preset("bspline(2)"))
    out.append(_check("hat_peak", abs(hat(np.array([1.0])) - 1.0), 1e-8))

    Vc = preset("courant")
    Bc = BoxSplineEvaluator(Vc)
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 1, size=(20, 2))
    tot = np.zeros(20)
    for sh in itertools.product(range(-2, 2), repeat=2):
        tot += Bc(X - np.array(sh, dtype=float))
    out.append(_check("partition_of_unity", np.abs(tot - 1.0).max(), 1e-10))

    exp = error_expansion(Vc, (1, 1))
    pts = quadrature.sample_grid(2, 5)
    diff = np.abs(exp.evaluate(pts)
                  - monomial_error_series(Vc, (1, 1), pts, 300).real)
    out.append(_check("expansion_vs_series", diff.max(), 1e-4,
                      "closed form vs truncated lattice series, radius 300"))

    worst = 0.0
    for V in (preset("bspline(2)"), preset("courant"), _THREE_D):
        for gamma, val in autocorrelation_table(V).items():
            other = _doubled_autocorrelation(V, gamma)
            worst = max(worst, abs(val - other))
    out.append(_check("gram_two_route", worst, 1e-8))

    worst = 0.0
    for name in ("bspline(2)", "courant"):
        worst = max(worst, abs(sum(autocorrelation_table(preset(name)).values()) - 1.0))
    out.append(_check("gram_row_sum", worst, 1e-10))

    worst = -np.inf
    for name in ("bspline(2)", "courant"):
        V = preset(name)
        model = build_model(V, 1.0, box=(np.full(V.dimension, -4.0), np.full(V.dimension, 4.0)),
                            padding=0)
        gram, _ = _normal_operators(model)
        eigs = np.linalg.eigvalsh(np.column_stack([gram(e) for e in np.eye(model.unknowns)]))
        sym_min, _ = gram_symbol_range(V)
        worst = max(worst, (sym_min - 1e-8) - eigs.min())
    out.append(_check("gram_window_spd", worst, 0.0,
                      "window eigenvalues vs symbol lower bound"))

    Vh = preset("haar")
    f1 = monomial((1,))
    mh = build_model(Vh, 1.0, box=(np.array([-8.0]), np.array([8.0])), padding=0)
    ch = project(mh, f1)
    xs = np.linspace(-2.0, 2.0, 37) + 0.013
    dev = spline_values(mh, ch, xs[:, None]) - xs - (0.5 - np.mod(xs, 1.0))
    out.append(_check("haar_oracle", np.abs(dev).max(), 1e-8))

    V2 = preset("bspline(2)")
    g = gaussian(1, 1.0)
    m_h = build_model(V2, 0.25, g)
    c_h = project(m_h, g)
    m_1 = build_model(V2, 1.0, g.rescale(0.25))
    c_1 = project(m_1, g.rescale(0.25))
    out.append(_check("scaling_law", np.abs(c_h.values - c_1.values).max(), 1e-10))

    model = build_model(V2, 0.5, g)
    if perturb_gram:
        gamma = (1,)
        model.gram[gamma] = model.gram[gamma] + perturb_gram
    coeffs = project(model, g)
    blo, bhi = g.effective_box()
    blo, bhi = np.floor(blo * 2) / 2, np.ceil(bhi * 2) / 2
    fnorm = np.sqrt(quadrature.integrate(lambda X: g.value(X) ** 2,
                                         blo, bhi, order=12, spacing=0.5))
    resid = residual_orthogonality(g, model, coeffs, [(-1,), (0,), (2,)])
    out.append(_check("residual_orthogonality", resid / fnorm, 1e-10,
                      "gram perturbed by %g" % perturb_gram if perturb_gram else ""))

    worst = 0.0
    t = rng.normal(size=(12, 2))
    g2 = gaussian(2, 1.0)
    for cls in Vc.classes:
        a = directional_derivative(g2, cls.members, t)
        b = _nested_directional_derivative(g2, cls.members, t)
        worst = max(worst, np.abs(np.asarray(a) - np.asarray(b)).max())
    out.append(_check("directional_two_route", worst, 1e-9))

    c_closed = error_constant_l2(g, V2)
    c_quad = error_constant(g, V2, 2.0)
    out.append(_check("constant_two_route_p2", abs(c_closed - c_quad) / c_closed, 1e-6))

    lhs, rhs = integral_identity_check(V2, lambda X: g.value(X))
    out.append(_check("defining_identity", abs(lhs - rhs), 1e-6))

    return out
