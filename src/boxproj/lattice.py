"""Integer-lattice combinatorics of box-spline direction sets.

A direction set is a multiset of nonzero integer vectors spanning R^d.
Everything in this module is exact: Python integers and fractions only,
no floating point.  The combinatorial quantities computed here (deletion
margin, hyperplane classes, primitive normals, derivative constants of
products of linear forms) drive the analytic modules downstream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

MAX_DIRECTIONS = 16


class NonUnimodularError(ValueError):
    """The operation is only defined for unimodular direction sets."""


class UnsupportedDimensionError(ValueError):
    """The operation is not implemented in the direction set's dimension."""


# ---------------------------------------------------------------------------
# multi-indices


@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector for monomials and partial derivatives."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
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


def integer_rank(rows) -> int:
    """Rank of an integer matrix, by fraction-free row elimination."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        a = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            b = mat[i][col]
            if b == 0:
                continue
            g = math.gcd(a, b)
            fa, fb = a // g, b // g
            mat[i] = [fa * x - fb * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def integer_det(rows) -> int:
    """Determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def spans_full(vectors, dim: int) -> bool:
    """True when the integer vectors span all of R^dim."""
    vecs = [_as_int_vector(v) for v in vectors]
    for v in vecs:
        if len(v) != dim:
            raise ValueError("vector dimension mismatch")
    return integer_rank(vecs) == dim


def _integer_kernel_vector(rows, dim: int) -> tuple[int, ...]:
    """Primitive integer vector orthogonal to all rows.

    Requires the rows to have rank exactly dim-1, so the kernel is a line.
    The result is normalized to content 1 with its first nonzero entry
    positive.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(dim):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    if r != dim - 1:
        raise ValueError(f"rows have rank {r}, expected {dim - 1}")
    free = next(c for c in range(dim) if c not in pivots)
    x = [Fraction(0)] * dim
    x[free] = Fraction(1)
    for row_i, c in enumerate(pivots):
        x[c] = -mat[row_i][free]
    scale = math.lcm(*(f.denominator for f in x))
    ints = [int(f * scale) for f in x]
    content = math.gcd(*ints)
    ints = [v // content for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


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
    def margin(self) -> int:
        return deletion_margin(self)

    @cached_property
    def is_unimodular(self) -> bool:
        return is_unimodular(self)


def _coerce(V) -> DirectionSet:
    return V if isinstance(V, DirectionSet) else DirectionSet(V)


def is_unimodular(V) -> bool:
    """True when every spanning d-subset has determinant 0 or +-1."""
    V = _coerce(V)
    d = V.dimension
    for idx in itertools.combinations(range(len(V)), d):
        det = integer_det([V[i] for i in idx])
        if det not in (-1, 0, 1):
            return False
    return True


def deletion_margin(V) -> int:
    """Largest r such that removing ANY r vectors still leaves a spanning set.

    Equals the smoothness/approximation-order driver of the associated
    box spline: the spline lies in C^(r-1) and reproduces polynomials of
    degree r.
    """
    V = _coerce(V)
    n, d = len(V), V.dimension
    for r in range(1, n - d + 2):
        for idx in itertools.combinations(range(n), r):
            keep = [V[i] for i in range(n) if i not in idx]
            if integer_rank(keep) != d:
                return r - 1
    return n - d


def primitive_normal(V, member_indices) -> tuple[int, ...]:
    """Primitive integer normal of the span of V with `member_indices` deleted.

    The remaining vectors must span a hyperplane.  Sign convention: first
    nonzero entry positive.
    """
    V = _coerce(V)
    drop = set(member_indices)
    rest = [V[i] for i in range(len(V)) if i not in drop]
    return _integer_kernel_vector(rest, V.dimension)


@dataclass(frozen=True)
class HyperplaneClass:
    """One class of the critical-deletion family of a direction set.

    `members` are the deleted vectors (sorted), `alpha` the primitive
    normal of the hyperplane spanned by the rest, and `denominators` the
    pairings alpha.v over the members, none of which vanish.
    """

    members: tuple[tuple[int, ...], ...]
    alpha: tuple[int, ...]
    denominators: tuple[int, ...]
    member_indices: tuple[int, ...] = field(compare=False, default=())

    @property
    def degree(self) -> int:
        return len(self.members)

    @property
    def scale(self) -> Fraction:
        out = Fraction(1)
        for q in self.denominators:
            out /= q
        return out


def hyperplane_classes(V) -> tuple[HyperplaneClass, ...]:
    """All deletion classes of size margin+1 whose complement loses the span.

    Classes are value multisets: repeated vectors produce a single class.
    Requires unimodularity; the expansion coefficients downstream are only
    valid on the integer lattice in that case.
    """
    V = _coerce(V)
    if not V.is_unimodular:
        raise NonUnimodularError("direction set has a d-subset with |det| > 1")
    n, d = len(V), V.dimension
    r = V.margin
    seen: dict[tuple, HyperplaneClass] = {}
    for idx in itertools.combinations(range(n), r + 1):
        members = tuple(sorted(V[i] for i in idx))
        if members in seen:
            continue
        rest = [V[i] for i in range(n) if i not in idx]
        if integer_rank(rest) == d:
            continue
        alpha = _integer_kernel_vector(rest, d)
        dens = tuple(_dot(alpha, v) for v in members)
        if any(q == 0 for q in dens):
            raise AssertionError("normal pairs to zero against a deleted vector")
        seen[members] = HyperplaneClass(
            members=members, alpha=alpha, denominators=dens, member_indices=idx
        )
    return tuple(sorted(seen.values(), key=lambda c: (c.alpha, c.members)))


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
    vecs = [_as_int_vector(v) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
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
    integer.
    """
    beta = MultiIndex.of(beta)
    vecs = [_as_int_vector(v) for v in vectors]
    if beta.order != len(vecs):
        raise ValueError("derivative order must equal the number of factors")
    if len(beta) != len(vecs[0]):
        raise ValueError("multi-index dimension mismatch")
    coef = linear_form_product(vecs).get(beta.exponents, 0)
    return beta.factorial * coef
