"""Integer-lattice combinatorics of box-spline direction sets.

A direction set is a multiset of nonzero integer vectors spanning R^d.
Everything in this module is exact: Python integers and fractions only,
no floating point.  The hyperplanes spanned by a set, listed once in
`DirectionSet.hyperplanes`, give its deletion margin, hyperplane classes
and knot normals; these and the derivative constants of products of
linear forms drive the analytic modules downstream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

MAX_DIRECTIONS = 16


class NonUnimodularError(ValueError):
    """The operation is only defined for unimodular direction sets."""


class UnsupportedDimensionError(ValueError):
    """The operation is not implemented in the direction set's dimension."""


# ---------------------------------------------------------------------------
# multi-indices


def _integral(e) -> int:
    """e as an int, when e is a number equal to an integer; else ValueError."""
    try:
        k = int(e)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != e:
        raise ValueError(f"multi-index entries must be finite integers, got {e!r}")
    return k


@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector for monomials and partial derivatives."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        """Entries are integers: an integral float (2.0) or a numpy integer
        is converted, a fractional or non-finite entry raises ValueError
        rather than being truncated."""
        exps = tuple(_integral(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError("multi-index entries must be >= 0")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def of(cls, beta) -> "MultiIndex":
        if isinstance(beta, MultiIndex):
            return beta
        return cls(tuple(beta))

    @property
    def order(self) -> int:
        return sum(self.exponents)

    @property
    def factorial(self) -> int:
        out = 1
        for e in self.exponents:
            out *= math.factorial(e)
        return out

    def __len__(self):
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)


def multi_indices(dim: int, order: int):
    """All multi-indices in `dim` variables with total order `order`."""
    if dim == 1:
        yield MultiIndex((order,))
        return
    for lead in range(order, -1, -1):
        for rest in multi_indices(dim - 1, order - lead):
            yield MultiIndex((lead,) + rest.exponents)


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _as_int_vector(v) -> tuple[int, ...]:
    vec = tuple(int(x) for x in v)
    if any(x != y for x, y in zip(vec, v)):
        raise ValueError(f"vector {v!r} is not integral")
    return vec


def _as_int_vectors(vectors, dim: int | None = None) -> tuple[tuple[int, ...], ...]:
    """A nonempty list of integral vectors as integer tuples, each with dim
    entries (as many as the first when dim is None); else ValueError."""
    vecs = tuple(_as_int_vector(v) for v in vectors)
    if not vecs:
        raise ValueError("need at least one vector")
    dim = len(vecs[0]) if dim is None else dim
    if any(len(v) != dim for v in vecs):
        raise ValueError(f"every vector must have {dim} entries")
    return vecs


def _echelon(rows):
    """Fraction-free row echelon form of an integer matrix (Bareiss, 1968).

    Returns (rows, pivot columns, sign of the row permutation).  Columns
    without a pivot are skipped; each pivot (r, c) applies
    a[i] = (a[r][c] a[i] - a[i][c] a[r]) // prev to the rows below it,
    prev being the previous pivot (1 at the first); every entry
    stays an integer minor of the input, so the division is exact, also
    for a rank-deficient or rectangular matrix.  Rows past the rank end
    up zero, so for any square matrix the determinant is sign * a[-1][-1].
    """
    a = [list(r) for r in rows]
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(len(a[0]) if a else 0):
        r = p = len(pivots)
        while p < len(a) and a[p][c] == 0:
            p += 1
        if p == len(a):
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top, pv = a[r], a[r][c]
        for i in range(r + 1, len(a)):
            a[i] = [(pv * x - a[i][c] * y) // prev for x, y in zip(a[i], top)]
        prev = pv
        pivots.append(c)
    return a, pivots, sign


def integer_rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(_echelon(rows)[1])


def integer_det(rows) -> int:
    """Determinant of a square integer matrix."""
    rows = [list(r) for r in rows]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    a, _, sign = _echelon(rows)
    return sign * a[-1][-1] if a else 1


def spans_full(vectors, dim: int) -> bool:
    """True when the integer vectors span all of R^dim."""
    vecs = [_as_int_vector(v) for v in vectors]
    for v in vecs:
        if len(v) != dim:
            raise ValueError("vector dimension mismatch")
    return integer_rank(vecs) == dim


def _hyperplane_normal(rows, dim: int) -> tuple[int, ...] | None:
    """Primitive integer normal of the hyperplane the rows span, or None
    when the rows (vectors in R^dim) do not have rank dim - 1.

    The kernel line is read off the echelon form by back-substitution,
    then normalized to content 1 with its first nonzero entry positive.
    """
    a, pivots, _ = _echelon(rows)
    if len(pivots) != dim - 1:
        return None
    x = [Fraction(0)] * dim
    x[next(c for c in range(dim) if c not in pivots)] = Fraction(1)
    for row, c in reversed(list(zip(a, pivots))):
        x[c] = Fraction(-sum(row[j] * x[j] for j in range(c + 1, dim)), row[c])
    scale = math.lcm(*(f.denominator for f in x))
    ints = [int(f * scale) for f in x]
    content = math.gcd(*ints)
    lead = next(v for v in ints if v != 0)
    return tuple(v // content if lead > 0 else -v // content for v in ints)


# ---------------------------------------------------------------------------
# direction sets


class DirectionSet:
    """Ordered multiset of nonzero integer vectors spanning R^d."""

    def __init__(self, vectors):
        vecs = tuple(_as_int_vector(v) for v in vectors)
        if not vecs:
            raise ValueError("direction set must be nonempty")
        if len(vecs) > MAX_DIRECTIONS:
            raise ValueError(f"at most {MAX_DIRECTIONS} directions supported")
        dim = len(vecs[0])
        if dim < 1:
            raise ValueError("vectors must have dimension >= 1")
        for v in vecs:
            if len(v) != dim:
                raise ValueError("all vectors must share one dimension")
            if all(x == 0 for x in v):
                raise ValueError("zero vector not allowed")
        if not spans_full(vecs, dim):
            raise ValueError("direction set must span R^d")
        self.vectors = vecs
        self.dimension = dim

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i):
        return self.vectors[i]

    def __eq__(self, other):
        return isinstance(other, DirectionSet) and self.vectors == other.vectors

    def __hash__(self):
        return hash(self.vectors)

    def __repr__(self):
        return f"DirectionSet({list(self.vectors)!r})"

    @cached_property
    def hyperplanes(self) -> tuple[tuple[int, ...], ...]:
        """Primitive normals, sorted, of the hyperplanes spanned by
        (d - 1)-subsets of the distinct vectors; (1,) in dimension 1."""
        distinct = dict.fromkeys(self.vectors)
        normals = {_hyperplane_normal(rows, self.dimension)
                   for rows in itertools.combinations(distinct, self.dimension - 1)}
        normals.discard(None)
        return tuple(sorted(normals))

    @cached_property
    def margin(self) -> int:
        return deletion_margin(self)

    @cached_property
    def is_unimodular(self) -> bool:
        return is_unimodular(self)

    @cached_property
    def classes(self) -> tuple["HyperplaneClass", ...]:
        """`hyperplane_classes` of this set; raises NonUnimodularError on
        every access when the set is not unimodular."""
        return hyperplane_classes(self)


def _coerce(V) -> DirectionSet:
    return V if isinstance(V, DirectionSet) else DirectionSet(V)


def is_unimodular(V) -> bool:
    """True when every spanning d-subset has determinant 0 or +-1.

    A subset holding a vector twice has determinant 0, so the d-subsets of
    the distinct vectors carry every determinant there is.
    """
    V = _coerce(V)
    distinct = dict.fromkeys(V.vectors)
    return all(integer_det(rows) in (-1, 0, 1)
               for rows in itertools.combinations(distinct, V.dimension))


def deletion_margin(V) -> int:
    """Largest r such that removing ANY r vectors still leaves a spanning set.

    A deletion loses the span when it takes every vector off one of
    `V.hyperplanes`, so r + 1 is the fewest vectors off one of them.  r drives
    smoothness and approximation order: the box spline lies in C^(r-1) and
    reproduces polynomials of degree r.
    """
    V = _coerce(V)
    return min(len(nonorthogonal_directions(V, a)) for a in V.hyperplanes) - 1


@dataclass(frozen=True)
class HyperplaneClass:
    """One class of the critical-deletion family of a direction set.

    `alpha` is the primitive normal of a hyperplane of the set, `members`
    the margin + 1 vectors off it (sorted, at `member_indices`), and
    `denominators` the pairings alpha.v over the members, none of which
    vanish.
    """

    members: tuple[tuple[int, ...], ...]
    alpha: tuple[int, ...]
    denominators: tuple[int, ...]
    member_indices: tuple[int, ...] = field(compare=False, default=())

    @property
    def degree(self) -> int:
        return len(self.members)

    @cached_property
    def scale(self) -> Fraction:
        """prod 1 / (alpha.v) over the members, exact, computed once per class."""
        out = Fraction(1)
        for q in self.denominators:
            out /= q
        return out


def hyperplane_classes(V) -> tuple[HyperplaneClass, ...]:
    """One class per hyperplane of `V.hyperplanes` with exactly margin + 1
    vectors off it, in the order of their normals.

    Requires unimodularity; the expansion coefficients downstream are only
    valid on the integer lattice in that case.  The vectors on a hyperplane
    span it, so distinct hyperplanes give distinct member multisets, and
    repeated vectors give a single class.
    """
    V = _coerce(V)
    if not V.is_unimodular:
        raise NonUnimodularError("direction set has a d-subset with |det| > 1")
    classes = []
    for alpha in V.hyperplanes:
        idx = nonorthogonal_directions(V, alpha)
        if len(idx) == V.margin + 1:
            members = tuple(sorted(V[i] for i in idx))
            classes.append(HyperplaneClass(
                members=members, alpha=alpha,
                denominators=tuple(_dot(alpha, v) for v in members), member_indices=idx))
    return tuple(classes)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def nonorthogonal_directions(V, freq) -> tuple[int, ...]:
    """Indices of the directions not orthogonal to the integer vector freq.

    For any nonzero freq this index set has at least margin+1 elements;
    equality forces the selected vectors to form a hyperplane class.
    """
    V = _coerce(V)
    freq = _as_int_vector(freq)
    if len(freq) != V.dimension:
        raise ValueError("frequency dimension mismatch")
    if all(x == 0 for x in freq):
        raise ValueError("frequency must be nonzero")
    return tuple(i for i, v in enumerate(V) if _dot(freq, v) != 0)


# ---------------------------------------------------------------------------
# products of linear forms


def linear_form_product(vectors) -> dict[tuple[int, ...], int]:
    """Expansion of prod_v (x.v) as {exponent tuple: integer coefficient}."""
    vecs = _as_int_vectors(vectors)
    d = len(vecs[0])
    poly: dict[tuple[int, ...], int] = {(0,) * d: 1}
    for v in vecs:
        nxt: dict[tuple[int, ...], int] = {}
        for mono, coef in poly.items():
            for j, vj in enumerate(v):
                if vj == 0:
                    continue
                key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                nxt[key] = nxt.get(key, 0) + coef * vj
        poly = {k: c for k, c in nxt.items() if c != 0}
    return poly


def product_derivative(beta, vectors) -> int:
    """D^beta applied to prod_v (x.v), for |beta| = number of vectors.

    The result is the constant beta! * [x^beta] prod (x.v), always an
    integer, computed once per beta and vector tuple in a process.
    """
    beta = MultiIndex.of(beta)
    vecs = _as_int_vectors(vectors, len(beta))
    if beta.order != len(vecs):
        raise ValueError("derivative order must equal the number of factors")
    return _product_derivative(beta, vecs)


@lru_cache(maxsize=None)
def _product_derivative(beta: MultiIndex, vecs: tuple[tuple[int, ...], ...]) -> int:
    """`product_derivative` without its entry checks, for callers whose
    beta and integer vector tuples are already valid, such as a
    hyperplane class's members."""
    return beta.factorial * linear_form_product(vecs).get(beta.exponents, 0)
