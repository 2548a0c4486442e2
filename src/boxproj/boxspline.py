"""Box splines: pointwise evaluation and Fourier-side derivatives.

The spline attached to a direction set V in R^d is the distribution whose
pairing with a continuous f equals the integral of f(V u) over the unit
cube in R^n.  Its Fourier transform is the product over v in V of the
factor (1 - exp(-2 pi i t)) / (2 pi i t) evaluated at t = xi.v.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .lattice import (
    MultiIndex,
    _coerce,
    integer_rank,
    product_derivative,
)
from . import quadrature

TWO_PI_I = 2j * np.pi
MAX_DERIVATIVE_ORDER = 12
_MOMENT_TAYLOR_RADIUS = 0.5
_MOMENT_TAYLOR_TERMS = 40
NUDGE = 1e-9  # step off a knot hyperplane in BoxSplineEvaluator


def sinc_factor(t):
    """(1 - exp(-2 pi i t)) / (2 pi i t), the per-direction transform factor.

    Entire in t: the zeroth moment of `sinc_factor_derivative`, whose
    Taylor branch below |t| = 0.5 avoids the 0/0.
    """
    return sinc_factor_derivative(0, t)


@lru_cache(maxsize=None)
def _moment_series_coeffs(k: int):
    # m_k(t) = integral of u^k exp(-2 pi i u t) du over [0,1]
    #        = sum_j z^j / (j! (k + j + 1)) with z = -2 pi i t
    return tuple(
        1.0 / (math.factorial(j) * (k + j + 1))
        for j in range(_MOMENT_TAYLOR_TERMS + 1)
    )


def _moments(kmax: int, t):
    """m_0..m_kmax at t, stable both near and away from zero.

    Away from zero the upward recurrence
        m_k = (k m_{k-1} - exp(-2 pi i t)) / (2 pi i t)
    is used; below |t| = 0.5 it loses digits (each step multiplies the
    error by about k / (2 pi |t|)), so the Taylor series takes over there.
    """
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < _MOMENT_TAYLOR_RADIUS
    safe = np.where(small, 1.0, t)
    out = []
    e = np.exp(-TWO_PI_I * t)
    mk = (1.0 - e) / (TWO_PI_I * safe)
    for k in range(kmax + 1):
        if k > 0:
            mk = (k * mk - e) / (TWO_PI_I * safe)
        if np.any(small):
            coeffs = _moment_series_coeffs(k)
            z = np.asarray(-TWO_PI_I * t, dtype=complex)
            acc = np.zeros_like(z)
            for c in reversed(coeffs):
                acc = acc * z + c
            mk = np.where(small, acc, mk)
        out.append(mk)
    return out


def sinc_factor_derivative(k: int, t):
    """k-th derivative of the transform factor; k an integer in 0..12."""
    quadrature._check_integer("derivative order", k, 0)
    if k > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must be in 0..{MAX_DERIVATIVE_ORDER}")
    m = _moments(k, t)[k]
    val = (-TWO_PI_I) ** k * m
    if np.ndim(val) == 0:
        return complex(val)
    return val


def fourier_transform(V, xi):
    """Transform of the box spline at frequency xi (vector or (m, d) array)."""
    V = _coerce(V)
    pts, single = quadrature._as_points(xi, V.dimension)
    dots = pts @ np.array(V.vectors, dtype=float).T
    vals = np.ones(len(pts), dtype=complex)
    for i in range(len(V)):
        vals = vals * sinc_factor(dots[:, i])
    return complex(vals[0]) if single else vals


def transform_derivative(V, beta, freq) -> complex:
    """D^beta of the transform at one nonzero integer frequency:
    `transform_derivatives` on the one row freq."""
    return complex(transform_derivatives(V, beta, [freq])[0])


def transform_derivatives(V, beta, freqs) -> np.ndarray:
    """D^beta of the transform at every row of an integer (m, d) array of
    nonzero frequencies.

    At an integer frequency every factor of a direction orthogonal to it
    is entire and nonzero, and every other factor has a simple zero, so
    rows are grouped by their set of non-orthogonal (active) directions,
    coded as the bits of (dots != 0) for the integer dots freq . v.  A
    group with more active directions than |beta| is a structural zero;
    one with exactly |beta| takes `closed_form_weights` of c =
    product_derivative(beta, active) and its dots, for all its rows at
    once.  Only rows with fewer active directions than |beta| run the
    Leibniz expansion, one by one.
    """
    V = _coerce(V)
    beta = MultiIndex.of(beta)
    if len(beta) != V.dimension:
        raise ValueError("multi-index dimension mismatch")
    if beta.order > MAX_DERIVATIVE_ORDER:
        raise ValueError("derivative order too large")
    raw = np.asarray(freqs)
    if raw.ndim != 2 or raw.shape[1] != V.dimension:
        raise ValueError("frequencies must form an (m, d) array, d the dimension")
    freqs = raw.astype(np.int64, copy=False)
    if np.any(freqs != raw):
        raise ValueError("frequencies must be integral")
    dots = freqs @ np.array(V.vectors, dtype=np.int64).T
    codes = (dots != 0) @ (1 << np.arange(len(V)))
    if not codes.all():
        raise ValueError("frequencies must be nonzero")
    out = np.zeros(len(freqs), dtype=complex)
    for code in np.unique(codes):
        idx = [i for i in range(len(V)) if code >> i & 1]
        if beta.order < len(idx):
            continue
        rows = np.flatnonzero(codes == code)
        if beta.order == len(idx):
            c = product_derivative(beta, [V[i] for i in idx])
            out.real[rows] = closed_form_weights(c, len(rows), dots[rows][:, idx].T)
        else:
            out[rows] = [_leibniz_derivative(V, beta, d) for d in dots[rows]]
    return out


def closed_form_weights(c: int, size: int, dots) -> np.ndarray:
    """The real closed form c / prod(d) of D^beta transform on `size` rows
    whose active directions number |beta|, for the integer c =
    product_derivative(beta, active) and the int64 dot arrays d = freq . v
    of the active v in ascending V order: float(c), then times 1.0 / d for
    each d in that order.  numpy divides a complex by a real divisor d as
    the product with 1 / d, so this is bit for bit complex(c) divided by
    each dot in turn; the order of the dots is part of that contract once
    some |d| exceeds 1.  `dots` may be a generator, so that only one dot
    array is alive at a time."""
    val = np.full(size, float(c))
    for d in dots:
        val *= 1.0 / d
    return val


def _axis_distributions(total: int, n: int):
    """(parts, multinomial) for distributing `total` derivatives over n factors."""
    return [(parts, math.factorial(total) // math.prod(map(math.factorial, parts)))
            for parts in _compositions(total, n)]


def _compositions(total: int, n: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def _leibniz_derivative(V, beta: MultiIndex, dots) -> complex:
    n = len(V)
    per_axis = [_axis_distributions(bj, n) for bj in beta]

    @lru_cache(maxsize=None)
    def factor(i: int, order: int) -> complex:
        return sinc_factor_derivative(order, float(dots[i]))

    total = 0.0 + 0.0j
    for combo in itertools.product(*per_axis):
        term = complex(math.prod(mult for _, mult in combo))
        for i in range(n):
            gamma = tuple(parts[i] for parts, _ in combo)
            power = math.prod(vj ** gj for vj, gj in zip(V[i], gamma) if gj)
            if power == 0:
                term = 0.0
                break
            term *= power * factor(i, sum(gamma))
            if term == 0.0:
                break
        total += term
    return total


# ---------------------------------------------------------------------------
# pointwise evaluation


class BoxSplineEvaluator:
    """Vectorized pointwise evaluation by the two-term mesh recurrence.

    The knots lie on the integer translates of the hyperplanes of
    `V.hyperplanes`, whose normals are `cut_normals`.  Points sitting on a
    knot hyperplane (where the value of a low-order spline is ambiguous)
    are nudged by NUDGE along a direction with rationally independent
    coordinates, which moves them off every such hyperplane simultaneously.
    """

    def __init__(self, V):
        self.V = _coerce(V)
        d = self.V.dimension
        counts: dict[tuple[int, ...], int] = {}
        for v in self.V.vectors:
            counts[v] = counts.get(v, 0) + 1
        self.distinct = tuple(counts)
        self.multiplicity = tuple(counts[v] for v in self.distinct)
        self._nudge_dir = np.array([math.pi ** -j for j in range(d)])
        self.cut_normals = self.V.hyperplanes
        lo = np.zeros(d)
        hi = np.zeros(d)
        for v, m in zip(self.distinct, self.multiplicity):
            arr = np.array(v, dtype=float)
            lo += m * np.minimum(arr, 0.0)
            hi += m * np.maximum(arr, 0.0)
        self.support_lo = lo
        self.support_hi = hi
        self._basis_cache: dict[tuple[int, ...], tuple] = {}
        self._span_cache: dict[tuple[int, ...], bool] = {}

    def quadrature_cuts(self, spacing: float = 1.0):
        """Cut families along which the spline is only piecewise smooth:
        one per knot-hyperplane normal, levels at the multiples of
        `spacing`, so that `quadrature.cell_rule` splits a mesh cell into
        the pieces on which the spline is one polynomial."""
        return tuple(
            quadrature.CutFamily(tuple(float(x) for x in nrm), spacing)
            for nrm in self.cut_normals
        )

    def _nudged(self, X):
        X = np.array(X, dtype=float, copy=True)
        for _ in range(3):
            hit = np.zeros(len(X), dtype=bool)
            for nrm in self.cut_normals:
                s = X @ np.array(nrm, dtype=float)
                hit |= np.abs(s - np.rint(s)) < 1e-11
            if not hit.any():
                break
            X[hit] += NUDGE * self._nudge_dir
        return X

    def _spans(self, sig) -> bool:
        if sig not in self._span_cache:
            rows = [v for v, m in zip(self.distinct, sig) if m > 0]
            self._span_cache[sig] = integer_rank(rows) == self.V.dimension
        return self._span_cache[sig]

    def _basis(self, sig):
        """First spanning d-subset of the active distinct vectors."""
        if sig not in self._basis_cache:
            d = self.V.dimension
            active = [i for i, m in enumerate(sig) if m > 0]
            for idx in itertools.combinations(active, d):
                mat = np.array([self.distinct[i] for i in idx], dtype=float).T
                det = np.linalg.det(mat)
                if abs(det) > 1e-12:
                    self._basis_cache[sig] = (idx, np.linalg.inv(mat), abs(det))
                    break
            else:
                raise AssertionError("no spanning basis in a spanning signature")
        return self._basis_cache[sig]

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        X = self._nudged(np.atleast_2d(pts))
        memo: dict[tuple, np.ndarray] = {}
        vals = self._recurse(self.multiplicity, (0,) * self.V.dimension, X, memo)
        return float(vals[0]) if single else vals

    def _recurse(self, sig, shift, X, memo):
        key = (sig, shift)
        if key in memo:
            return memo[key]
        d = self.V.dimension
        total = sum(sig)
        if not self._spans(sig):
            out = np.zeros(len(X))
        elif total == d:
            idx, inv, det = self._basis(sig)
            Y = (X - np.array(shift, dtype=float)) @ inv.T
            inside = np.all((Y >= 0.0) & (Y < 1.0), axis=1)
            out = inside.astype(float) / det
        else:
            idx, inv, _ = self._basis(sig)
            Y = (X - np.array(shift, dtype=float)) @ inv.T
            pos = {i: c for c, i in enumerate(idx)}
            out = np.zeros(len(X))
            for i, m in enumerate(sig):
                if m == 0:
                    continue
                sub = sig[:i] + (m - 1,) + sig[i + 1 :]
                v = self.distinct[i]
                shifted = tuple(s + x for s, x in zip(shift, v))
                if i in pos:
                    mu = Y[:, pos[i]]
                    out += mu * self._recurse(sub, shift, X, memo)
                    out += (m - mu) * self._recurse(sub, shifted, X, memo)
                else:
                    out += m * self._recurse(sub, shifted, X, memo)
            out /= total - d
        memo[key] = out
        return out
