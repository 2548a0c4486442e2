"""Periodized Bernoulli polynomials and the projection-error expansion.

The error committed by L2 projection of a monomial onto the integer
shifts of a box spline is, at the critical degree, a finite combination
of ridge functions: a periodized Bernoulli polynomial composed with a
hyperplane-class normal.  This module builds those expansions and their
lattice Fourier series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import HyperplaneClass, MultiIndex, _coerce, product_derivative
from .boxspline import transform_derivatives

TWO_PI_I = 2j * np.pi
SERIES_CHUNK = 1 << 14  # (point, frequency) pairs per block of the series sum (cache-sized)
NORM_SERIES_BASE = 64  # first truncation of the Fourier-side norm series
NORM_SERIES_LEVELS = 6  # doublings of it that the Neville extrapolation combines


@lru_cache(maxsize=None)
def bernoulli_numbers(kmax: int) -> tuple[Fraction, ...]:
    """B_0..B_kmax with the B_1 = -1/2 convention, exact."""
    nums = [Fraction(1)]
    for m in range(1, kmax + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * nums[j]
        nums.append(-acc / (m + 1))
    return tuple(nums)


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(k: int) -> tuple[Fraction, ...]:
    """Coefficients of the k-th Bernoulli polynomial, ascending powers."""
    nums = bernoulli_numbers(k)
    coeffs = [Fraction(0)] * (k + 1)
    for j in range(k + 1):
        coeffs[k - j] = math.comb(k, j) * nums[j]
    return tuple(coeffs)


def bernoulli_periodic(k: int, t):
    """Periodized Bernoulli polynomial of degree k, normalized by -1/k!.

    This is the sum over nonzero integers n of exp(2 pi i n t)/(2 pi i n)^k,
    which equals -b_k(frac(t))/k! away from the jumps; at integers the
    degree-1 case takes the symmetric value 0.  Values: degree 1 is
    1/2 - frac(t), degree 2 at 0 is -1/12.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    t = np.asarray(t, dtype=float)
    u = np.mod(t, 1.0)
    coeffs = [float(c) for c in bernoulli_poly_coeffs(k)]
    acc = np.zeros_like(u)
    for c in reversed(coeffs):
        acc = acc * u + c
    val = -acc / math.factorial(k)
    if k == 1:
        val = np.where(u == 0.0, 0.0, val)
    if val.ndim == 0:
        return float(val)
    return val


def bernoulli_l2_norm_sq(k: int) -> Fraction:
    """Exact integral over one period of the squared degree-k function."""
    nums = bernoulli_numbers(2 * k)
    return Fraction((-1) ** (k - 1)) * nums[2 * k] / math.factorial(2 * k)


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


def bernoulli_interior_roots(k: int) -> tuple[float, ...]:
    """Roots of the degree-k Bernoulli polynomial strictly inside (0, 1)."""
    coeffs = [float(c) for c in bernoulli_poly_coeffs(k)]
    roots = np.roots(list(reversed(coeffs)))
    out = [float(r.real) for r in roots if abs(r.imag) < 1e-10 and 1e-9 < r.real < 1 - 1e-9]
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# ridge terms and expansions


@dataclass(frozen=True)
class BernoulliSplineTerm:
    """Ridge function: scaled periodized Bernoulli polynomial of a pairing.

    Value at x is B_deg(alpha.x) divided by the product of the pairings
    alpha.v over the class members.
    """

    hyperplane: HyperplaneClass

    @property
    def degree(self) -> int:
        """The class size, margin + 1 for every class of a direction set."""
        return self.hyperplane.degree

    @property
    def scale(self) -> Fraction:
        return self.hyperplane.scale

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        dots = x @ np.array(self.hyperplane.alpha, dtype=float) if x.ndim > 1 else float(
            np.dot(x, np.array(self.hyperplane.alpha, dtype=float))
        )
        return bernoulli_periodic(self.degree, dots) * float(self.scale)

    def series(self, x, radius: int):
        """Partial Fourier sum over multiples k alpha with |k| <= radius."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        dots = pts @ np.array(self.hyperplane.alpha, dtype=float)
        acc = np.zeros(len(pts), dtype=complex)
        for k in range(1, radius + 1):
            phase = np.exp(TWO_PI_I * k * dots)
            coef = 1.0 / (TWO_PI_I * k) ** self.degree
            acc += coef * phase + np.conj(coef * phase)
        acc *= float(self.scale)
        return acc[0] if single else acc


def periodic_lp_power(k: int, p: float, order: int = 16) -> float:
    """Integral over one period of |B_k|^p, split at the sign changes."""
    from . import quadrature

    cuts = (quadrature.CutFamily((1.0,), 1.0, (0.0,) + bernoulli_interior_roots(k)),)
    pts, wts = quadrature.cell_rule([0.0], [1.0], cuts, order)
    return float(np.dot(wts, np.abs(bernoulli_periodic(k, pts[:, 0])) ** p))


def ridge_lp_power(term: BernoulliSplineTerm, p: float, order: int = 16) -> float:
    """Integral over one lattice cell of |term|^p.

    Factorizes as the period integral of |B_deg|^p times |scale|^p; this
    computes the left side directly by cut-aware cell quadrature so the
    factorization can be tested rather than assumed.
    """
    from . import quadrature

    alpha = tuple(float(a) for a in term.hyperplane.alpha)
    d = len(alpha)
    roots = bernoulli_interior_roots(term.degree)
    cuts = (quadrature.CutFamily(alpha, 1.0, (0.0,) + roots),)
    pts, wts = quadrature.cell_rule([0.0] * d, [1.0] * d, cuts, order)
    return float(np.dot(wts, np.abs(term.evaluate(pts)) ** p))


@dataclass(frozen=True)
class ErrorFunctionExpansion:
    """Projection error of a monomial as a finite sum of ridge terms."""

    beta: MultiIndex
    terms: tuple[tuple[BernoulliSplineTerm, int], ...]

    def evaluate(self, x):
        """Values at the (n, d) points x, or a float at a single point."""
        x = np.asarray(x, dtype=float)
        out = 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])
        for term, coef in self.terms:
            out = out + coef * term.evaluate(x)
        return float(out) if x.ndim == 1 else out


def error_expansion(V, beta) -> ErrorFunctionExpansion:
    """Closed form of the projection error of x^beta, |beta| <= margin+1.

    Below the critical order the error vanishes identically and the
    expansion is empty.  At the critical order each hyperplane class
    contributes its ridge term weighted by the integer derivative constant
    of the product of its member linear forms.
    """
    V = _coerce(V)
    beta = MultiIndex.of(beta)
    if len(beta) != V.dimension:
        raise ValueError("multi-index dimension mismatch")
    k = V.margin + 1
    if beta.order > k:
        raise ValueError("expansion defined for |beta| <= margin + 1 only")
    if beta.order < k:
        return ErrorFunctionExpansion(beta=beta, terms=())
    terms = []
    for cls in V.classes:
        coef = product_derivative(beta, cls.members)
        if coef != 0:
            terms.append((BernoulliSplineTerm(cls), coef))
    return ErrorFunctionExpansion(beta=beta, terms=tuple(terms))


def monomial_error_series(V, beta, x, radius: int, mode: str = "auto"):
    """Lattice Fourier series of the projection error of x^beta, truncated.

    Sums (2 pi i)^(-|beta|) D^beta transform(xi) exp(2 pi i x.xi) over
    nonzero integer frequencies xi.  mode='cube' scans the full
    |xi|_inf <= radius box; mode='lines' only walks the integer multiples
    k alpha, |k alpha|_inf <= radius, of the hyperplane-class normals, which
    carry every nonzero coefficient for |beta| <= margin + 1 (any other
    frequency keeps more than margin + 1 >= |beta| non-orthogonal
    directions, so its coefficient is a structural zero; below the critical
    order every coefficient is, and the series is exactly 0).  'auto'
    switches to lines when the cube would be large.

    The frequencies are built as one array and weighed by one
    `transform_derivatives` call; zero weights are dropped, and the sum is
    accumulated as exp(2 pi i x . xi) @ weights over blocks of frequencies
    sized so that a block holds about SERIES_CHUNK (point, frequency)
    pairs.  Returns complex values; symmetric truncation makes the
    imaginary part vanish up to roundoff.
    """
    V = _coerce(V)
    beta = MultiIndex.of(beta)
    d = V.dimension
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if mode == "auto":
        mode = "cube" if (2 * radius + 1) ** d <= 200_000 else "lines"
    if mode == "cube":
        freqs = np.indices((2 * radius + 1,) * d).reshape(d, -1).T - radius
        freqs = freqs[np.any(freqs != 0, axis=1)]
    elif mode == "lines":
        if beta.order > V.margin + 1:
            raise ValueError("lines mode applies up to the critical order only")
        lines = []
        for cls in V.classes:
            ks = np.arange(1, radius // max(abs(a) for a in cls.alpha) + 1)
            signed = np.stack([ks, -ks], axis=1).ravel()
            lines.append(signed[:, None] * np.array(cls.alpha))
        freqs = np.concatenate(lines)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    weights = transform_derivatives(V, beta, freqs)
    live = weights != 0
    freqs, weights = freqs[live], weights[live]
    acc = np.zeros(len(pts), dtype=complex)
    step = max(1, SERIES_CHUNK // len(pts))
    for start in range(0, len(freqs), step):
        block = freqs[start:start + step]
        acc += np.exp(TWO_PI_I * (pts @ block.T)) @ weights[start:start + step]
    acc *= (1.0 / TWO_PI_I) ** beta.order
    return acc[0] if single else acc
