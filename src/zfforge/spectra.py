"""Exact integer characteristic polynomials and cospectrality certificates.

All spectral statements reduce to equal integer coefficient vectors or equal
exact values at enough points, so nothing here ever touches floating point.
Characteristic polynomials det(xI - M) are computed with the Berkowitz
scheme, which is division-free: only big-integer additions and
multiplications occur.  The kernel reads the graph, not a dense matrix, and
uses the shape of A, L and Q:

* they are symmetric, so each bordering product R B^e C is the dot product
  of B^a C with B^b C for a + b = e, and only half the Krylov vectors B^a C
  are built;
* every off-diagonal entry is 1 (-1 for L) and the diagonal is 0 or the
  degree, so B v is a sum of v over each vertex's neighbours in the block,
  read by one ``operator.itemgetter`` per vertex: every Krylov product and
  dot product is a chain of C-level ``map`` and ``sum`` calls.

Every step is exact integer arithmetic, so the result is det(xI - M) itself:
the same integers as the dense loop's, which borders the vertices in the
opposite order (reordering the vertices leaves det(xI - M) unchanged).
The dense loop, a fraction-free (Bareiss) determinant and a rational-root
finder are kept as independent oracles in the test suite
(``tests/oracles.py``).
"""

from __future__ import annotations

import enum
from itertools import repeat
from operator import add, itemgetter, mul, neg, sub

from .graphs import Graph, Record, bits, join


class MatrixKind(enum.Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    SIGNLESS_LAPLACIAN = "signless_laplacian"


class CharPoly(Record):
    """Monic integer characteristic polynomial, coefficients degree-descending."""

    __slots__ = ("coeffs",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def to_json(self) -> list[str]:
        # decimal strings so arbitrarily large coefficients survive JSON
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: list[str]) -> "CharPoly":
        return cls(int(c) for c in data)


def _getter(positions: list[int]) -> itemgetter:
    # CPython 3.11 keeps every freed 20-item tuple on a free list that it never
    # pops (up to 2,000 of them, 0.37 MB), so no getter returns 20 items
    if len(positions) == 20:
        positions = [*positions, 0]
    return itemgetter(*positions)


def _berkowitz(g: Graph, kind: MatrixKind) -> list[int]:
    # Coefficients of det(xI - M), built up one leading principal submatrix at
    # a time: bordering vertex p onto the block B on vertices 0..p-1 multiplies
    # by a lower-triangular Toeplitz matrix whose column is
    # [1, -a, -R C, -R B C, -R B^2 C, ...].  M is symmetric, so R = C^T and
    # R B^e C = (B^a C).(B^b C) for a + b = e: only the vectors B^a C with
    # a <= p/2 are built.  C is the off-diagonal sign times the 0/1 indicator
    # of p's neighbours in the block, and the sign cancels in R B^e C, so the
    # indicator serves for all three kinds.  (B v)[s] is diag[s] v[s] plus
    # the sign times sum(getters[s + 1](v)): vertex s sits at index s + 1 of
    # every vector, index 0 holds 0 (getters[0] and diag[0] keep it there),
    # and itemgetter(0, 0, *(t + 1 for each neighbour t of s in the block))
    # returns a tuple for any neighbour count.
    # Bordering p rebuilds only the getters of p's neighbours.
    combine = (None if kind is MatrixKind.ADJACENCY
               else sub if kind is MatrixKind.LAPLACIAN else add)
    diag = [0]
    reads = [[0, 0]]
    getters = [itemgetter(0, 0)]
    poly = [1]
    for p, row in enumerate(g.adj):
        below = list(bits((row & ((1 << p) - 1)) << 1))  # positions of p's neighbours
        u = [0] * (p + 1)
        for t in below:
            u[t] = 1
        # each vector goes in twice: krylov[e] = B^(e // 2) C, so
        # R B^e C = krylov[e + 1].krylov[e]
        krylov = [u, u]
        for _ in range(p // 2):
            sums = map(sum, map(itemgetter.__call__, getters, repeat(u)))
            if combine:
                sums = map(combine, map(mul, diag, u), sums)
            u = list(sums)
            krylov += u, u
        a = 0 if kind is MatrixKind.ADJACENCY else row.bit_count()
        col = [1, -a, *map(neg, map(sum, map(map, repeat(mul),
                                                krylov[1:p + 1], krylov[:p])))]
        for t in below:
            reads[t].append(p + 1)
            getters[t] = _getter(reads[t])
        reads.append([0, 0, *below])
        getters.append(_getter(reads[p + 1]))
        diag.append(a)
        # the Toeplitz product, truncated to degree p + 1
        rpoly = poly[::-1]
        poly = [sum(map(mul, col, rpoly[p - r:])) for r in range(p + 1)]
        poly.append(sum(map(mul, col[1:], rpoly)))
    return poly


def char_poly(g: Graph, kind: MatrixKind = MatrixKind.ADJACENCY) -> CharPoly:
    """Exact char poly det(xI - M) for the chosen matrix of g."""
    return CharPoly(_berkowitz(g, kind))


def cospectral(g: Graph, h: Graph, kind: MatrixKind = MatrixKind.ADJACENCY) -> bool:
    """Exact coefficient equality; unequal orders are never cospectral."""
    return char_poly(g, kind) == char_poly(h, kind)


class RegularCospectralReport(Record):
    """Cospectrality across matrix kinds for a pair of regular graphs.

    For k-regular pairs, adjacency cospectrality carries over to the
    Laplacian, signless Laplacian and normalized Laplacian.  The first two
    are nevertheless verified directly; the normalized one is derived only
    and flagged as such (no rational arithmetic is done for it).
    """

    __slots__ = ("regular", "degree", "adjacency_cospectral", "laplacian_verified",
                 "signless_verified", "normalized_laplacian_derived")


def regular_cospectral_report(g: Graph, h: Graph) -> RegularCospectralReport:
    dg, dh = g.is_regular(), h.is_regular()
    if dg is None or dh is None or dg != dh:
        return RegularCospectralReport(False, None, None, None, None, False)
    adj = cospectral(g, h, MatrixKind.ADJACENCY)
    if not adj:
        return RegularCospectralReport(True, dg, False, None, None, False)
    return RegularCospectralReport(
        regular=True,
        degree=dg,
        adjacency_cospectral=True,
        laplacian_verified=cospectral(g, h, MatrixKind.LAPLACIAN),
        signless_verified=cospectral(g, h, MatrixKind.SIGNLESS_LAPLACIAN),
        normalized_laplacian_derived=True,
    )


def laplacian_join_identity_check(g: Graph, h: Graph) -> bool:
    """Exact polynomial identity tying the Laplacian char poly of a join to
    its factors:

        charL(g v h)(x) (x - n')(x - n)
            = x (x - n - n') charL(g)(x - n') charL(h)(x - n)

    with n = |V(g)| and n' = |V(h)|.  Both sides are monic of degree
    D = n + n' + 2, so their difference has degree below D and is zero exactly
    when it vanishes at D distinct integers: here the D centred on 0.
    """
    n, np, d = g.n, h.n, g.n + h.n + 2
    cj, cg, ch = (char_poly(f, MatrixKind.LAPLACIAN) for f in (join(g, h), g, h))
    return all(cj(x) * (x - np) * (x - n) == x * (x - n - np) * cg(x - np) * ch(x - n)
               for x in range(-(d // 2), d - d // 2))


def regular_join_adjacency_check(g: Graph, h: Graph) -> bool:
    """Exact adjacency analogue of the join identity for regular factors:

        charA(g v h)(x) (x - r)(x - r')
            = charA(g)(x) charA(h)(x) (x^2 - (r + r') x + (r r' - n n'))

    Both sides are monic of degree n + n' + 2 and are compared as in the
    Laplacian identity.  Raises when either factor is not regular.
    """
    r, rp = g.is_regular(), h.is_regular()
    if r is None or rp is None:
        raise ValueError("regular_join_adjacency_check needs regular inputs")
    cj, cg, ch = char_poly(join(g, h)), char_poly(g), char_poly(h)
    c, d = r * rp - g.n * h.n, g.n + h.n + 2
    return all(cj(x) * (x - r) * (x - rp) == cg(x) * ch(x) * (x * x - (r + rp) * x + c)
               for x in range(-(d // 2), d - d // 2))
