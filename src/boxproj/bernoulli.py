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
from . import quadrature

TWO_PI_I = 2j * np.pi
INNER_ORDER = 16  # Gauss order of the cut cell rule of the ridge terms
SERIES_CHUNK = 1 << 14  # table entries per block of points in progression_sum (cache-sized)


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


@lru_cache(maxsize=None)
def bernoulli_interior_roots(k: int) -> tuple[float, ...]:
    """Roots of the degree-k Bernoulli polynomial strictly inside (0, 1)."""
    coeffs = [float(c) for c in bernoulli_poly_coeffs(k)]
    roots = np.roots(list(reversed(coeffs)))
    out = [float(r.real) for r in roots if abs(r.imag) < 1e-10 and 1e-9 < r.real < 1 - 1e-9]
    return tuple(sorted(out))


def _check_radius(radius) -> None:
    quadrature._check_integer("series radius", radius, 1)


def progression_sum(t, ahead, behind):
    """sum_k ahead[k-1] z^k + behind[k-1] z^-k over k = 1..K, z = exp(2 pi i t).

    With B = ceil(sqrt K), Q = ceil(K / B) and k = qB + r + 1, z^k is
    coarse[q] fine[r] for the tables fine[r] = z^(r+1) and coarse[q] =
    z^(qB), each an exp of its exact phase.  With the weights zero-padded
    to (Q, B) arrays W, the sum is sum_q coarse[q] (fine @ W.T)[q], and
    z^-k takes the conjugate tables: B + Q ~ 2 sqrt K exponentials per
    point instead of 2K, plus one matrix product.  Points are taken in
    blocks whose fine table holds about SERIES_CHUNK entries.  K >= 1.
    """
    t = np.asarray(t, dtype=float)
    K = len(ahead)
    B = math.isqrt(K - 1) + 1
    Q = -(-K // B)
    # conj(fine) @ behind = conj(fine @ conj(behind)): one product takes both halves
    W = np.zeros((2, Q * B), dtype=complex)
    W[0, :K] = ahead
    W[1, :K] = np.conj(behind)
    W = W.reshape(2 * Q, B).T
    fine_k = np.arange(1, B + 1, dtype=float)
    coarse_k = np.arange(0, Q * B, B, dtype=float)
    out = np.empty(len(t), dtype=complex)
    step = max(1, SERIES_CHUNK // B)
    for start in range(0, len(t), step):
        tb = t[start:start + step, None]
        coarse = np.exp(TWO_PI_I * (tb * coarse_k))
        halves = np.exp(TWO_PI_I * (tb * fine_k)) @ W
        out[start:start + step] = (np.einsum("ij,ij->i", coarse, halves[:, :Q])
                                   + np.conj(np.einsum("ij,ij->i", coarse, halves[:, Q:])))
    return out


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


def ridge_cut(alpha, k: int) -> quadrature.CutFamily:
    """Cut family of a degree-k ridge term of normal alpha: its kinks at the
    integers and its sign changes at the interior Bernoulli roots."""
    return quadrature.CutFamily(tuple(float(a) for a in alpha), 1.0,
                                (0.0,) + bernoulli_interior_roots(k))


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


def monomial_error_series(V, beta, x, radius: int):
    """Lattice Fourier series of the projection error of x^beta, truncated.

    Sums (2 pi i)^(-|beta|) D^beta transform(xi) exp(2 pi i x.xi) over the
    nonzero integer frequencies |xi|_inf <= radius.  For |beta| <= margin + 1
    only the integer multiples k alpha of the hyperplane-class normals carry
    a nonzero coefficient: any other frequency keeps more than margin + 1 >=
    |beta| non-orthogonal directions, so its coefficient is a structural
    zero (below the critical order every coefficient is, and the series is
    exactly 0).  The multiples within the radius are weighed by one
    `transform_derivatives` call per class, both signs at once, so that a
    call's temporaries stay small: one call over every class's rows made
    temporaries of up to 1.1 MB at radius 2000, which glibc trims off its
    heap and faults in afresh on every call unless something else in the
    process has raised its thresholds.  The two progressions z^k and z^-k of
    each class, z = exp(2 pi i alpha.x), are summed by `progression_sum` at
    about 2 sqrt(K) exponentials per point for K multiples; a class whose
    weights all vanish is skipped.  radius must be a positive integer, x
    must hold at least one point, and |beta| above margin + 1 raises
    ValueError.  Returns complex values; symmetric truncation makes the
    imaginary part vanish up to roundoff.
    """
    _check_radius(radius)
    V = _coerce(V)
    beta = MultiIndex.of(beta)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if len(pts) == 0:
        raise ValueError("lattice series needs at least one point")
    if beta.order > V.margin + 1:
        raise ValueError("the lattice series applies up to the critical order only")
    acc = np.zeros(len(pts), dtype=complex)
    for cls in V.classes:
        a = np.array(cls.alpha)
        K = radius // int(np.abs(a).max())
        k = np.arange(1, K + 1)
        weights = transform_derivatives(V, beta, np.multiply.outer(np.concatenate([k, -k]), a))
        ahead, behind = weights[:K], weights[K:]
        if ahead.any() or behind.any():
            acc += progression_sum(pts @ a, ahead, behind)
    acc *= (1.0 / TWO_PI_I) ** beta.order
    return acc[0] if single else acc
