"""Smooth test functions with closed-form partial derivatives.

All families are tensor products of univariate factors, so a mixed
partial D^beta factors into univariate derivatives.  The univariate
derivative of each family satisfies a simple polynomial recurrence,
which keeps arbitrary orders exact (up to floating point) without any
symbolic machinery.

Points arrive as (n, d) arrays.  On the sampling path they are the
column-contiguous views of `quadrature.tile_points`, so every family reads
them one coordinate at a time, pts[:, j], and never reduces across a row.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from .lattice import MultiIndex

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


def _split_points(x, dim):
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != dim:
        raise ValueError("point dimension mismatch")
    return pts, single


class Gaussian(TestFunction):
    """exp(-pi |x/s|^2); scale s controls the effective support."""

    tag = "gaussian"

    def __init__(self, dim: int, scale: float = 1.0):
        super().__init__(dim)
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)
        self._a = math.pi / self.scale ** 2

    def _factor_poly(self, k: int):
        # phi(t) = exp(-a t^2), phi^(k) = p_k(t) phi(t),
        # p_{k+1} = p_k' - 2 a t p_k
        poly = np.array([1.0])
        for _ in range(k):
            poly = P.polysub(P.polyder(poly), 2.0 * self._a * P.polymulx(poly))
        return poly

    def derivative(self, beta, x):
        beta = self._index(beta)
        pts, single = _split_points(x, self.dim)
        out = pts[:, 0] * pts[:, 0]
        for j in range(1, self.dim):
            out += pts[:, j] * pts[:, j]
        out *= -self._a
        np.exp(out, out=out)
        for j, bj in enumerate(beta):
            if bj:
                out *= P.polyval(pts[:, j], self._factor_poly(bj))
        return float(out[0]) if single else out

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
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    @staticmethod
    def _numerator_poly(k: int):
        # psi^(k)(t) = N_k(t) (1-t^2)^(-2k) psi(t) with
        # N_{k+1} = N_k' (1-t^2)^2 + (4 k t (1-t^2) - 2 t) N_k
        q = np.array([1.0, 0.0, -1.0])  # 1 - t^2
        q2 = P.polymul(q, q)
        poly = np.array([1.0])
        for j in range(k):
            lead = P.polymul(P.polyder(poly), q2)
            mid = P.polymul(np.array([0.0, 4.0 * j]), q)
            mid = P.polysub(mid, np.array([0.0, 2.0]))
            poly = P.polyadd(lead, P.polymul(mid, poly))
        return poly

    def derivative(self, beta, x):
        beta = self._index(beta)
        pts, single = _split_points(x, self.dim)
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

    def derivative(self, beta, x):
        """(perm(e_j, b_j) x_j^(e_j - b_j)) multiplied over the axes j.

        A factor of 1 is skipped, which is exact: a zero remaining
        exponent costs nothing, where pow(x, 0) would call libm on every
        point.  Exponent 1 is the column and 2 is x * x, both bitwise what
        pow gives; 3 and up keep np.power.
        """
        beta = self._index(beta)
        pts, single = _split_points(x, self.dim)
        if any(bj > ej for ej, bj in zip(self.exponents, beta)):
            out = np.zeros(len(pts))
        else:
            out = None
            for j, (ej, bj) in enumerate(zip(self.exponents, beta)):
                coef = math.perm(ej, bj)
                if coef != 1:
                    out = np.full(len(pts), float(coef)) if out is None else out * coef
                k, col = ej - bj, pts[:, j]
                if k:
                    power = col if k == 1 else col * col if k == 2 else np.power(col, k)
                    if out is None:
                        out = power.copy() if k == 1 else power
                    else:
                        out *= power
            if out is None:
                out = np.ones(len(pts))
        return float(out[0]) if single else out

    def rescale(self, factor: float) -> "Monomial":
        raise NotImplementedError("monomials do not rescale within the family")


def gaussian(dim: int, scale: float = 1.0) -> Gaussian:
    return Gaussian(dim, scale)


def bump(dim: int, radius: float = 3.0) -> Bump:
    return Bump(dim, radius)


def monomial(exponents) -> Monomial:
    return Monomial(exponents)


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
