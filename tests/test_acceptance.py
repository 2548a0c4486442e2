"""Acceptance suite: the ten numbered verification criteria for the package.

Run with `pytest -v tests/test_acceptance.py`; each test line is the
pass/fail record for one criterion, and each test prints the measured
figure it was judged on (visible with -rA or -s).
"""

import itertools
import math
import time

import numpy as np
import pytest

from boxproj import (
    build_model,
    convergence_sweep,
    directional_derivative,
    error_constant_l2,
    preset,
    project,
    spline_values,
)
from boxproj.bernoulli import (
    BernoulliSplineTerm,
    bernoulli_l2_norm_sq,
    bernoulli_periodic,
    error_expansion,
    monomial_error_series,
)
from boxproj.boxspline import transform_derivative
from boxproj.checks import (
    _leibniz_transform_derivative,
    bernoulli_l2_norm_sq_series,
    gram_symbol_range,
    integral_identity_check,
    periodic_lp_power,
    ridge_lp_power,
)
from boxproj.lattice import hyperplane_classes, multi_indices, nonorthogonal_directions
from boxproj.quadrature import CutFamily, integrate, sample_grid
from boxproj.testfunctions import bump, gaussian, monomial

SMOOTH_PRESETS = ("bspline(2)", "bspline(3)", "tensor(2,2)", "courant", "courant2")
ROUGH_PRESETS = ("haar", "tensor(1,1)")
UNIMODULAR_PRESETS = SMOOTH_PRESETS + ROUGH_PRESETS

# per-preset window for the reproduction study: mesh size and box half-width,
# chosen so the boundary layer has died off at the evaluation points
REPRODUCTION_WINDOWS = {
    "haar": (1 / 4, 3.0),
    "tensor(1,1)": (1 / 4, 3.0),
    "bspline(2)": (1 / 16, 4.0),
    "bspline(3)": (1 / 16, 4.0),
    "tensor(2,2)": (1 / 16, 3.0),
    "courant": (1 / 16, 3.0),
    "courant2": (1 / 32, 2.0),
}


def interior_grid(d: int) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, 7) + 0.0137
    return np.array(list(itertools.product(axis, repeat=d)))


def test_criterion_01_error_expansion_two_routes():
    t0 = time.time()
    report = []
    for name in SMOOTH_PRESETS:
        V = preset(name)
        pts = sample_grid(V.dimension, 9)
        worst = 0.0
        for beta in multi_indices(V.dimension, V.margin + 1):
            closed = error_expansion(V, beta).evaluate(pts)
            series = monomial_error_series(V, beta, pts, 2000).real
            worst = max(worst, float(np.abs(closed - series).max()))
        report.append((name, worst))
        assert worst <= 1e-6, (name, worst)
    for name in ROUGH_PRESETS:
        V = preset(name)
        pts = sample_grid(V.dimension, 9)
        worst = 0.0
        for beta in multi_indices(V.dimension, 1):
            closed = error_expansion(V, beta).evaluate(pts)
            series = monomial_error_series(V, beta, pts, 10_000).real
            worst = max(worst, float(np.abs(closed - series).max()))
        report.append((name, worst))
        assert worst <= 1e-3, (name, worst)
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    print(f"criterion 1: per-preset max two-route gaps {report}, {elapsed:.1f}s")


def test_criterion_02_unit_mesh_sawtooth_oracle():
    V = preset("haar")
    f = monomial((1,))
    m = build_model(V, 1.0, box=(np.array([0.0]), np.array([6.0])), padding=0)
    c = project(m, f)
    rng = np.random.default_rng(11)
    x = rng.uniform(1.2, 4.8, size=64)
    err = spline_values(m, c, x.reshape(-1, 1)) - x
    want = 0.5 - np.mod(x, 1.0)
    worst = float(np.abs(err - want).max())
    assert worst <= 1e-8
    print(f"criterion 2: sawtooth deviation {worst:.3e}")


def test_criterion_03_parseval_constants():
    spreads = []
    for k, exact in ((1, 1 / 12), (2, 1 / 720)):
        closed = float(bernoulli_l2_norm_sq(k))
        quad = integrate(lambda t: bernoulli_periodic(k, t[:, 0]) ** 2,
                         [0.0], [1.0], order=24, spacing=1.0)
        series = bernoulli_l2_norm_sq_series(k)
        vals = (closed, quad, series)
        spread = max(vals) - min(vals)
        spreads.append(spread)
        assert abs(closed - exact) < 1e-15
        assert spread <= 1e-10, (k, vals)
    print(f"criterion 3: route spreads k=1,2 {spreads[0]:.3e} {spreads[1]:.3e}")


def test_criterion_04_transform_derivative_two_routes():
    worst = 0.0
    for name in UNIMODULAR_PRESETS + ("zp",):
        V = preset(name)
        d = V.dimension
        for alpha in itertools.product(range(-3, 4), repeat=d):
            if all(a == 0 for a in alpha):
                continue
            k = len(nonorthogonal_directions(V, alpha))
            for beta in multi_indices(d, k):
                closed = transform_derivative(V, beta, alpha)
                leib = _leibniz_transform_derivative(V, beta, alpha)
                worst = max(worst, abs(closed - leib))
    assert worst <= 1e-12
    print(f"criterion 4: max closed-vs-expanded gap {worst:.3e}")


def test_criterion_05_polynomial_reproduction():
    report = []
    for name in UNIMODULAR_PRESETS:
        V = preset(name)
        h, half = REPRODUCTION_WINDOWS[name]
        box = (np.full(V.dimension, -half), np.full(V.dimension, half))
        m = build_model(V, h, box=box)
        pts = interior_grid(V.dimension)
        worst = 0.0
        for order in range(V.margin + 1):
            for beta in multi_indices(V.dimension, order):
                f = monomial(beta)
                c = project(m, f)
                got = spline_values(m, c, pts)
                worst = max(worst, float(np.abs(got - f.value(pts)).max()))
        report.append((name, worst))
        assert worst <= 1e-8, (name, worst)
    # the remaining preset has a Gram symbol vanishing at a half-integer
    # frequency: shifts are not a Riesz family, the truncated solve has no
    # exponentially decaying inverse, and interior reproduction at 1e-8 is
    # unattainable on any finite window.  Assert the obstruction instead.
    lo, _ = gram_symbol_range(preset("zp"))
    assert lo < 1e-12
    print(f"criterion 5: per-preset reproduction error {report}; "
          f"zp excluded (symbol min {lo:.1e}, no stable shift basis)")


def test_criterion_06_ridge_orthogonality_and_norm_factorization():
    V = preset("courant")
    terms = [BernoulliSplineTerm(cls) for cls in hyperplane_classes(V)]
    worst_ip = 0.0
    for ti, tj in itertools.combinations(terms, 2):
        cuts = (CutFamily(tuple(float(a) for a in ti.hyperplane.alpha)),
                CutFamily(tuple(float(a) for a in tj.hyperplane.alpha)))
        ip = integrate(lambda X: ti.evaluate(X) * tj.evaluate(X),
                       [0.0, 0.0], [1.0, 1.0], cuts=cuts, order=16, spacing=1.0)
        worst_ip = max(worst_ip, abs(ip))
    assert worst_ip <= 1e-10
    worst_fac = 0.0
    for term in terms:
        for p in (1.0, 2.0, 3.0):
            lhs = ridge_lp_power(term, p)
            rhs = abs(float(term.scale)) ** p * periodic_lp_power(term.degree, p)
            worst_fac = max(worst_fac, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    assert worst_fac <= 1e-8
    print(f"criterion 6: max cross product {worst_ip:.3e}, "
          f"max factorization defect {worst_fac:.3e}")


def test_criterion_07_pointwise_expansion_vs_directional_sum():
    rng = np.random.default_rng(23)
    worst = 0.0
    for name in UNIMODULAR_PRESETS:
        V = preset(name)
        d, k = V.dimension, V.margin + 1
        f = gaussian(d, 1.0)
        t = rng.uniform(-1.5, 1.5, size=(100, d))
        x = rng.uniform(-0.5, 1.5, size=(100, d))
        lhs = np.zeros(100)
        for beta in multi_indices(d, k):
            bt = tuple(beta)
            dirs = [tuple(int(i == j) for j in range(d))
                    for i in range(d) for _ in range(bt[i])]
            dbeta = directional_derivative(f, dirs, t)
            fact = math.prod(math.factorial(b) for b in bt)
            lhs += error_expansion(V, beta).evaluate(x) * dbeta / fact
        rhs = np.zeros(100)
        for cls in hyperplane_classes(V):
            term = BernoulliSplineTerm(cls)
            rhs += term.evaluate(x) * directional_derivative(f, cls.members, t)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-9
    print(f"criterion 7: max pointwise identity gap {worst:.3e}")


@pytest.mark.parametrize("name,ladder", [
    ("bspline(2)", (1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64)),
    ("tensor(1,1)", (1 / 4, 1 / 8, 1 / 16)),
    ("courant", (1 / 8, 1 / 16, 1 / 32)),
])
def test_criterion_08_convergence_ladders(name, ladder):
    t0 = time.time()
    V = preset(name)
    f = gaussian(V.dimension, 1.0)
    rep = convergence_sweep(f, V, 2.0, ladder)
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    assert abs(rep.fitted_rate - rep.critical_order) <= 0.05, rep
    assert rep.rel_error <= 0.05, rep
    print(f"criterion 8 [{name}]: rate {rep.fitted_rate:.4f} "
          f"(expected {rep.critical_order}), extrapolated {rep.extrapolated_ratio:.8g} "
          f"vs closed {rep.constant:.8g}, rel err {rep.rel_error:.2e}, {elapsed:.0f}s")


def test_criterion_09_defining_integral_identity():
    worst = 0.0
    report = []
    for name in ("haar", "bspline(2)", "bspline(3)", "tensor(1,1)",
                 "tensor(2,2)", "courant", "zp"):
        V = preset(name)
        d = V.dimension
        funcs = [gaussian(d, 1.0), bump(d, 2.5),
                 monomial((2,) if d == 1 else (2, 1))]
        for f in funcs:
            lhs, rhs = integral_identity_check(V, f.value, order=16)
            gap = abs(lhs - rhs)
            worst = max(worst, gap)
            assert gap <= 1e-6, (name, type(f).__name__, gap)
        report.append((name, worst))
    print(f"criterion 9: max defining-identity gap {worst:.3e}")


def test_criterion_10_mesh_scaling_coefficient_identity():
    V = preset("bspline(2)")
    g = gaussian(1, 1.0)
    h = 0.25
    mh = build_model(V, h, g)
    ch = project(mh, g)
    m1 = build_model(V, 1.0, g.rescale(h))
    c1 = project(m1, g.rescale(h))
    assert mh.window_lo == m1.window_lo
    assert ch.values.shape == c1.values.shape
    worst = float(np.abs(ch.values - c1.values).max())
    assert worst <= 1e-10
    print(f"criterion 10: max coefficient gap {worst:.3e}")
