"""Smooth test functions with closed-form partial derivatives.

All families are tensor products of univariate factors, so a mixed
partial D^beta factors into univariate derivatives.  The univariate
derivative of each family satisfies a simple polynomial recurrence,
which keeps arbitrary orders exact (up to floating point) without any
symbolic machinery.

Points arrive as (n, d) arrays.  On the point route of `projection` they
are the column-contiguous batches of `quadrature.box_batches`, so every
family reads them one coordinate at a time, pts[:, j], and never reduces
across a row.

Every family also gives its univariate factors: `factor(axis, t)` is
phi_axis at the 1-D array t, with f(x) = prod_j phi_j(x_j).  `project`
and `error_norm` take the tensor route for any f that has a `factor`
attribute: they tabulate phi_j at the nodes of the cells along axis j
once per call and never call f per node.  Any other callable, a
`TestFunction` subclass without `factor` included, keeps the point
route.  The product of the factors, taken left to right over the axes,
is `value` bit for bit for a monomial and in 1-D.  For a Gaussian or a
bump in 2-D and 3-D, `value` takes one exp of the summed exponent and
the product one exp per axis, so they differ by an amount that grows
with the exponent: at most 47 ulp (Gaussian) and 123 ulp (bump) at the
points of `TestColumnKernels`, where the exponent falls to -42 and -198.

A Gaussian and a bump also give their factor derivatives:
`factor_derivative(axis, order, t)` is the (order + 1, len(t)) array of
phi_axis^(b) at t for b = 0..order, so that D^beta f(x) =
prod_j phi_j^(beta_j)(x_j).  `asymptotics` builds the p = 2 limit constants
from their per-axis moments for any f that has it.  In 1-D each row is
`derivative` bit for bit.  The derivative polynomials behind both methods
are built once and kept as read-only arrays: a Gaussian's p_k per
instance, a bump's N_k, which depends on k alone, per process.  A
monomial has no effective box and no `factor_derivative`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .lattice import MultiIndex
from . import quadrature

SUPPORT_THRESHOLD = 1e-14


class TestFunction:
    """Base: callable with exact partials and an effective support box."""

    tag = "base"

    def __init__(self, dim: int):
        self.dim = dim

    def value(self, x):
        return self.derivative((0,) * self.dim, x)

    def __call__(self, x):
        return self.value(x)

    def derivative(self, beta, x):
        raise NotImplementedError

    def _index(self, beta) -> MultiIndex:
        beta = MultiIndex.of(beta)
        if len(beta) != self.dim:
            raise ValueError(f"multi-index {beta.exponents} does not have dimension {self.dim}")
        return beta

    def effective_box(self):
        """Box outside which |f| < 1e-14, or None for non-decaying families."""
        return None

    def rescale(self, factor: float) -> "TestFunction":
        """The function x -> f(factor * x), as a member of the same family."""
        raise NotImplementedError


class Gaussian(TestFunction):
    """exp(-pi |x/s|^2); scale s controls the effective support."""

    tag = "gaussian"

    def __init__(self, dim: int, scale: float = 1.0):
        super().__init__(dim)
        scale = float(scale)
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be finite and positive, got {scale}")
        self.scale = scale
        self._a = math.pi / self.scale ** 2
        self._polys = [_read_only(np.array([1.0]))]

    def _factor_poly(self, k: int):
        """p_k, read-only: phi(t) = exp(-a t^2), phi^(k) = p_k(t) phi(t),
        p_{k+1} = p_k' - 2 a t p_k.  Each order is built once per instance,
        by continuing the recurrence from the highest order built so far."""
        polys = self._polys
        while len(polys) <= k:
            poly = polys[-1]
            polys.append(_read_only(P.polysub(P.polyder(poly), 2.0 * self._a * P.polymulx(poly))))
        return polys[k]

    def derivative(self, beta, x):
        beta = self._index(beta)
        pts, single = quadrature._as_points(x, self.dim)
        out = pts[:, 0] * pts[:, 0]
        for j in range(1, self.dim):
            out += pts[:, j] * pts[:, j]
        out *= -self._a
        np.exp(out, out=out)
        for j, bj in enumerate(beta):
            if bj:
                out *= P.polyval(pts[:, j], self._factor_poly(bj))
        return float(out[0]) if single else out

    def factor(self, axis: int, t):
        """exp(-a t^2) at the 1-D array t, the same for every axis."""
        t = np.asarray(t, dtype=float)
        out = t * t
        out *= -self._a
        np.exp(out, out=out)
        return out

    def factor_derivative(self, axis: int, order: int, t):
        """phi^(b)(t) = p_b(t) exp(-a t^2) for b = 0, ..., order, as the
        rows of an (order + 1, len(t)) array."""
        t = np.asarray(t, dtype=float)
        base = self.factor(axis, t)
        out = np.empty((order + 1, len(t)))
        for b in range(order + 1):
            np.multiply(base, P.polyval(t, self._factor_poly(b)), out=out[b])
        return out

    def effective_box(self):
        half = self.scale * math.sqrt(-math.log(SUPPORT_THRESHOLD) / math.pi)
        return (np.full(self.dim, -half), np.full(self.dim, half))

    def rescale(self, factor: float) -> "Gaussian":
        return Gaussian(self.dim, self.scale / factor)


class Bump(TestFunction):
    """Compactly supported prod exp(1 - 1/(1 - (x_j/r)^2)) on |x_j| < r."""

    tag = "bump"

    def __init__(self, dim: int, radius: float = 3.0):
        super().__init__(dim)
        radius = float(radius)
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"radius must be finite and positive, got {radius}")
        self.radius = radius

    @staticmethod
    @lru_cache(maxsize=None)
    def _numerator_poly(k: int):
        """N_k, read-only: psi^(k)(t) = N_k(t) (1-t^2)^(-2k) psi(t) with
        N_{k+1} = N_k' (1-t^2)^2 + (4 k t (1-t^2) - 2 t) N_k."""
        if k == 0:
            return _read_only(np.array([1.0]))
        poly = Bump._numerator_poly(k - 1)
        q = np.array([1.0, 0.0, -1.0])  # 1 - t^2
        lead = P.polymul(P.polyder(poly), P.polymul(q, q))
        mid = P.polymul(np.array([0.0, 4.0 * (k - 1)]), q)
        mid = P.polysub(mid, np.array([0.0, 2.0]))
        return _read_only(P.polyadd(lead, P.polymul(mid, poly)))

    def derivative(self, beta, x):
        beta = self._index(beta)
        pts, single = quadrature._as_points(x, self.dim)
        t = [pts[:, j] / self.radius for j in range(self.dim)]
        inside = np.abs(t[0]) < 1.0
        for tj in t[1:]:
            inside &= np.abs(tj) < 1.0
        out = np.zeros(len(pts))
        if inside.any():
            ti = [tj[inside] for tj in t]
            val = 1.0 - 1.0 / (1.0 - ti[0] * ti[0])
            for tj in ti[1:]:
                val += 1.0 - 1.0 / (1.0 - tj * tj)
            np.exp(val, out=val)
            for tj, bj in zip(ti, beta):
                if bj:
                    num = P.polyval(tj, self._numerator_poly(bj))
                    val = val * num / (1.0 - tj * tj) ** (2 * bj) / self.radius ** bj
            out[inside] = val
        return float(out[0]) if single else out

    def factor(self, axis: int, t):
        """exp(1 - 1/(1 - (t/r)^2)) at the 1-D array t, zero for |t| >= r."""
        s = np.asarray(t, dtype=float) / self.radius
        inside = np.abs(s) < 1.0
        out = np.zeros(s.shape)
        si = s[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
        return out

    def factor_derivative(self, axis: int, order: int, t):
        """psi^(b)(t) = N_b(s) (1 - s^2)^(-2b) psi(s) / r^b, s = t / r, for
        b = 0, ..., order, as the rows of an (order + 1, len(t)) array; zero
        where |s| >= 1."""
        s = np.asarray(t, dtype=float) / self.radius
        inside = np.abs(s) < 1.0
        out = np.zeros((order + 1, len(s)))
        si = s[inside]
        q = 1.0 - si * si
        val = np.exp(1.0 - 1.0 / q)
        for b in range(order + 1):
            num = P.polyval(si, self._numerator_poly(b))
            out[b, inside] = val * num / q ** (2 * b) / self.radius ** b
        return out

    def effective_box(self):
        return (np.full(self.dim, -self.radius), np.full(self.dim, self.radius))

    def rescale(self, factor: float) -> "Bump":
        return Bump(self.dim, self.radius / factor)


class Monomial(TestFunction):
    """x^beta; no decay, so projections need an explicit domain box."""

    tag = "monomial"

    def __init__(self, exponents):
        self.exponents = MultiIndex.of(exponents)
        super().__init__(len(self.exponents))
        # the (coefficient, axis, power) steps of `value`: its positive
        # exponents, each with coefficient 1
        self._value_steps = tuple((1, j, e) for j, e in enumerate(self.exponents) if e)

    def value(self, x):
        """x^beta: `derivative` of order 0 bit for bit, from the steps kept
        at construction, without its multi-index check and coefficients."""
        pts, single = quadrature._as_points(x, self.dim)
        out = _column_product(pts, self._value_steps)
        return float(out[0]) if single else out

    def derivative(self, beta, x):
        """(perm(e_j, b_j) x_j^(e_j - b_j)) multiplied over the axes j, by
        `_column_product`."""
        beta = self._index(beta)
        pts, single = quadrature._as_points(x, self.dim)
        if any(bj > ej for ej, bj in zip(self.exponents, beta)):
            out = np.zeros(len(pts))
        else:
            out = _column_product(pts, [(math.perm(ej, bj), j, ej - bj)
                                        for j, (ej, bj) in enumerate(zip(self.exponents, beta))])
        return float(out[0]) if single else out

    def factor(self, axis: int, t):
        """t^e at the 1-D array t, e the axis's exponent: the column product
        of `derivative`, so the factors multiply to `value` bit for bit."""
        t = np.asarray(t, dtype=float)
        e = self.exponents.exponents[axis]
        return _power(t, e) if e else np.ones(t.shape)

    def rescale(self, factor: float) -> "Monomial":
        raise NotImplementedError("monomials do not rescale within the family")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _column_product(pts, steps):
    """The product of coef * pts[:, j]^k over the (coef, j, k) steps, left
    to right, in a new array.

    A factor of 1 is skipped, which is exact: a zero power costs nothing,
    where pow(x, 0) would call libm on every point.  Power 1 is the column
    and 2 is x * x, both bitwise what pow gives; k >= 3 is the
    left-to-right product of k columns, one rounding per product, within
    k - 2 ulp of np.power and far cheaper than its libm call.  A leading
    power-1 column is read in place, not copied, and the first product
    with it is a new array; only a result that is that column alone is
    copied.
    """
    out, borrowed = None, False  # borrowed: out is a column of pts
    for coef, j, k in steps:
        if coef != 1:
            out = np.full(len(pts), float(coef)) if out is None else out * coef
            borrowed = False
        if k:
            col = pts[:, j]
            factor = col if k == 1 else _power(col, k)
            if out is None:
                out, borrowed = factor, k == 1
            elif borrowed:
                out, borrowed = out * factor, False
            else:
                out *= factor
    if out is None:
        return np.ones(len(pts))
    return out.copy() if borrowed else out


def _power(col, k: int):
    """col^k, k >= 1, as the left-to-right product of k columns, in a new
    array."""
    if k == 1:
        return col.copy()
    power = col * col
    for _ in range(k - 2):
        power *= col
    return power


def gaussian(dim: int, scale: float = 1.0) -> Gaussian:
    return Gaussian(dim, scale)


def bump(dim: int, radius: float = 3.0) -> Bump:
    return Bump(dim, radius)


def monomial(exponents) -> Monomial:
    return Monomial(exponents)
