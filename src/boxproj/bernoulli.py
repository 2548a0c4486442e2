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
from functools import cached_property, lru_cache

import numpy as np

from .lattice import DirectionSet, HyperplaneClass, MultiIndex, _coerce, _dot, _product_derivative
from .boxspline import closed_form_weights
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


@lru_cache(maxsize=None)
def _float_poly_coeffs(k: int) -> tuple[float, ...]:
    """`bernoulli_poly_coeffs(k)` rounded to floats, once per degree."""
    return tuple(float(c) for c in bernoulli_poly_coeffs(k))


def bernoulli_periodic(k: int, t):
    """Periodized Bernoulli polynomial of degree k, normalized by -1/k!.

    This is the sum over nonzero integers n of exp(2 pi i n t)/(2 pi i n)^k,
    which equals -b_k(frac(t))/k! away from the jumps; at integers the
    degree-1 case takes the symmetric value 0.  Values: degree 1 is
    1/2 - frac(t), degree 2 at 0 is -1/12.
    """
    quadrature._check_integer("degree", k, 1)
    t = np.asarray(t, dtype=float)
    u = np.mod(t, 1.0)
    acc = np.zeros_like(u)
    for c in reversed(_float_poly_coeffs(k)):
        acc = acc * u + c
    val = -acc / math.factorial(k)
    if k == 1:
        val = np.where(u == 0.0, 0.0, val)
    if val.ndim == 0:
        return float(val)
    return val


def bernoulli_l2_norm_sq(k: int) -> Fraction:
    """Exact integral over one period of the squared degree-k function, k >= 1."""
    quadrature._check_integer("degree", k, 1)
    nums = bernoulli_numbers(2 * k)
    return Fraction((-1) ** (k - 1)) * nums[2 * k] / math.factorial(2 * k)


@lru_cache(maxsize=None)
def bernoulli_interior_roots(k: int) -> tuple[float, ...]:
    """Roots of the degree-k Bernoulli polynomial strictly inside (0, 1)."""
    roots = np.roots(list(reversed(_float_poly_coeffs(k))))
    out = [float(r.real) for r in roots if abs(r.imag) < 1e-10 and 1e-9 < r.real < 1 - 1e-9]
    return tuple(sorted(out))


def _check_radius(radius) -> None:
    quadrature._check_integer("series radius", radius, 1)


def progression_sum(t, weights, sign):
    """S + sign conj(S) for S = sum_k weights[k-1] z^k over k = 1..K, z =
    exp(2 pi i t): the two progressions z^k and z^-k when the weight at -k
    is sign (+1 or -1) times the conjugate of the weight at k.

    With B = ceil(sqrt K), Q = ceil(K / B) and k = qB + r + 1, z^k is
    coarse[q] fine[r] for the tables fine[r] = z^(r+1), the running
    product of z, and coarse[q] = z^(qB), the running product of z^B =
    fine[B-1] from coarse[0] = 1.  With the weights zero-padded to a (Q, B)
    array W, S is sum_q coarse[q] (fine @ W.T)[q]: one exponential per
    point instead of K, plus one matrix product.  z^k inherits k times
    the phase rounding of z, so z is taken at t minus its nearest integer
    (an exact difference), whose phase 2 pi (t - round t) rounds by at most
    about 2 eps whatever |t|; the q + r products behind z^k add about
    2 sqrt(K) roundings.  Points are taken in blocks whose fine table holds
    about SERIES_CHUNK entries.  K >= 1.
    """
    t = np.asarray(t, dtype=float)
    K = len(weights)
    B = math.isqrt(K - 1) + 1
    Q = -(-K // B)
    W = np.zeros(Q * B, dtype=complex)
    W[:K] = weights
    W = W.reshape(Q, B).T
    out = np.empty(len(t), dtype=complex)
    step = max(1, SERIES_CHUNK // B)
    for start in range(0, len(t), step):
        tb = t[start:start + step, None]
        z = np.exp(TWO_PI_I * (tb - np.rint(tb)))
        n = len(z)
        fine = np.cumprod(np.broadcast_to(z, (n, B)), axis=1)
        coarse = np.empty((n, Q), dtype=complex)
        coarse[:, 0] = 1
        np.cumprod(np.broadcast_to(fine[:, B - 1:], (n, Q - 1)), axis=1, out=coarse[:, 1:])
        s = np.einsum("ij,ij->i", coarse, fine @ W)
        out[start:start + step] = s + sign * np.conj(s)
    return out


# ---------------------------------------------------------------------------
# ridge terms and expansions


@dataclass(frozen=True)
class BernoulliSplineTerm:
    """Ridge function: scaled periodized Bernoulli polynomial of a pairing.

    Value at x is B_deg(alpha.x) divided by the product of the pairings
    alpha.v over the class members.  The float normal and the float scale
    are taken once per term.
    """

    hyperplane: HyperplaneClass

    @property
    def degree(self) -> int:
        """The class size, margin + 1 for every class of a direction set."""
        return self.hyperplane.degree

    @property
    def scale(self) -> Fraction:
        return self.hyperplane.scale

    @cached_property
    def _normal(self) -> np.ndarray:
        normal = np.array(self.hyperplane.alpha, dtype=float)
        normal.flags.writeable = False
        return normal

    @cached_property
    def _float_scale(self) -> float:
        return float(self.scale)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        dots = x @ self._normal if x.ndim > 1 else float(np.dot(x, self._normal))
        return bernoulli_periodic(self.degree, dots) * self._float_scale


@lru_cache(maxsize=None)
def _ridge_terms(V: DirectionSet) -> tuple[BernoulliSplineTerm, ...]:
    """One ridge term per hyperplane class of V, in class order, built once
    per process for every set equal to V, so that each term's float normal
    and scale are taken once."""
    return tuple(BernoulliSplineTerm(cls) for cls in V.classes)


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
        """Values at the (n, d) points x, or a float at a single point;
        points of another dimension than beta's raise ValueError."""
        pts, single = quadrature._as_points(x, len(self.beta))
        x = pts[0] if single else pts
        out = 0.0 if single else np.zeros(x.shape[:-1])
        for term, coef in self.terms:
            out = out + coef * term.evaluate(x)
        return float(out) if single else out


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
    for term in _ridge_terms(V):
        coef = _product_derivative(beta, term.hyperplane.members)
        if coef != 0:
            terms.append((term, coef))
    return ErrorFunctionExpansion(beta=beta, terms=tuple(terms))


def monomial_error_series(V, beta, x, radius: int):
    """Lattice Fourier series of the projection error of x^beta, truncated.

    Sums (2 pi i)^(-|beta|) D^beta transform(xi) exp(2 pi i x.xi) over the
    nonzero integer frequencies |xi|_inf <= radius.  For |beta| <= margin + 1
    only the integer multiples k alpha of the hyperplane-class normals carry
    a nonzero coefficient: any other frequency keeps more than margin + 1 >=
    |beta| non-orthogonal directions, so its coefficient is a structural
    zero (below the critical order every coefficient is, and the series is
    exactly 0).  At k alpha the non-orthogonal directions are the class's
    members, so each class's weights come from its closed form
    (`_class_weights`), with no call to `transform_derivatives`, which stays
    the reference they are checked against.  The weights are built for
    k = 1..K only: the two progressions z^k and z^-k of each class, z =
    exp(2 pi i alpha.x), are summed by `progression_sum` from those and
    their parity (-1)^degree, at one exponential per point for K multiples,
    and the -k half is never formed; a class whose weights all vanish is
    skipped.  A point's value may differ in the last bits from its value
    among other points: `progression_sum`'s `fine @ W` takes another BLAS
    path for one row than for many (a relative move of at most 5e-16 was
    measured over the critical betas of the smooth presets).  radius must
    be a positive integer, x must hold at least one point of V's
    dimension, and a beta of another dimension or |beta| above margin + 1
    raises ValueError.  Returns complex values; symmetric truncation makes
    the imaginary part vanish up to roundoff.
    """
    _check_radius(radius)
    V = _coerce(V)
    beta = MultiIndex.of(beta)
    if len(beta) != V.dimension:
        raise ValueError("multi-index dimension mismatch")
    pts, single = quadrature._as_points(x, V.dimension)
    if len(pts) == 0:
        raise ValueError("lattice series needs at least one point")
    if beta.order > V.margin + 1:
        raise ValueError("the lattice series applies up to the critical order only")
    acc = np.zeros(len(pts), dtype=complex)
    for cls in V.classes:
        weights = _class_weights(V, beta, cls, radius)
        if weights is not None:
            acc += progression_sum(pts @ np.array(cls.alpha), weights, (-1) ** cls.degree)
    acc *= (1.0 / TWO_PI_I) ** beta.order
    return acc[0] if single else acc


def _class_weights(V, beta: MultiIndex, cls: HyperplaneClass, radius: int):
    """D^beta transform at the multiples k alpha of the class normal, k = 1..K
    with K = radius // max|alpha_i|, as a complex array; None when they all
    vanish.

    At k alpha the non-orthogonal directions are the class members U, so
    the weight is c / prod_{v in U} (k alpha.v), c = product_derivative(beta,
    U), when |beta| = |U|, and a structural zero when |beta| < |U|.  A class
    is skipped when K = 0, when |beta| != |U| or when c = 0; otherwise its
    weights are `closed_form_weights` of c and the dots k (alpha.v) over the
    members in ascending V order, bit for bit `transform_derivatives` on
    the same rows.  They are real, and since 1.0 / -d == -(1.0 / d) the
    weights at -1..-K are (-1)^|U| times these bit for bit: that parity is
    what `progression_sum` takes in place of the -k half, and the checks
    (`checks.series_weights` and the property tests) rebuild that half
    from it as (-1)^|U| times the real part, with +0 imaginary parts.
    """
    K = radius // max(map(abs, cls.alpha))
    if K == 0 or beta.order != cls.degree:
        return None
    c = _product_derivative(beta, cls.members)
    if c == 0:
        return None
    ks = np.arange(1, K + 1)
    dots = (ks * _dot(cls.alpha, V[i]) for i in cls.member_indices)
    return closed_form_weights(c, K, dots).astype(complex)
