"""Exact integer characteristic polynomials and cospectrality certificates.

All spectral statements in this package reduce to equality of integer
polynomial coefficient vectors, so nothing here ever touches floating point.
Characteristic polynomials det(xI - M) are computed with the Berkowitz
scheme, which is division-free: only big-integer additions and
multiplications occur.  The nonzero entries of the trailing submatrix are
listed as it grows, so the bordering products visit only those nonzeros;
graph matrices are sparse, and the integers computed are the same as a
dense loop's.  The dense loop, a fraction-free (Bareiss) determinant and
a rational-root finder are kept as independent oracles in the test suite
(``tests/oracles.py``).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

from .graphs import Graph, bits, join


class MatrixKind(enum.Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    SIGNLESS_LAPLACIAN = "signless_laplacian"


_KIND_LETTERS = {"A": MatrixKind.ADJACENCY,
                 "L": MatrixKind.LAPLACIAN,
                 "Q": MatrixKind.SIGNLESS_LAPLACIAN}


def kind_from_letter(letter: str) -> MatrixKind:
    try:
        return _KIND_LETTERS[letter.upper()]
    except KeyError:
        raise ValueError(f"matrix kind must be one of A, L, Q; got {letter!r}") from None


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, coefficients degree-descending."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
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
        return cls(tuple(int(c) for c in data))


def matrix_of(g: Graph, kind: MatrixKind) -> list[list[int]]:
    n = g.n
    m = [[0] * n for _ in range(n)]
    for v in range(n):
        deg = g.degree(v)
        if kind is MatrixKind.LAPLACIAN:
            m[v][v] = deg
        elif kind is MatrixKind.SIGNLESS_LAPLACIAN:
            m[v][v] = deg
        for u in bits(g.adj[v]):
            if kind is MatrixKind.ADJACENCY:
                m[v][u] = 1
            elif kind is MatrixKind.LAPLACIAN:
                m[v][u] = -1
            else:
                m[v][u] = 1
    return m


def _berkowitz(m: list[list[int]], n: int) -> list[int]:
    # Coefficients of det(xI - M), built up one principal submatrix at a time.
    # Each step multiplies by a lower-triangular Toeplitz matrix whose column
    # is [1, -a, -R C, -R B C, -R B^2 C, ...] for the current bordering.
    # ``trail`` lists the nonzero (row, column, value) entries of the trailing
    # submatrix B, so the products B^k C visit only its nonzeros.
    poly = [1]
    trail: list[tuple[int, int, int]] = []
    for i in range(n - 1, -1, -1):
        size = n - i
        r = [(t, m[i][t]) for t in range(i + 1, n) if m[i][t]]
        c = [0] * (i + 1) + [m[t][i] for t in range(i + 1, n)]
        col = [1, -m[i][i]]
        v = c
        for j in range(1, size):
            col.append(-sum(x * v[t] for t, x in r))
            if j < size - 1:
                w = [0] * n
                for s, t, x in trail:
                    w[s] += x * v[t]
                v = w
        trail += [(s, i, c[s]) for s in range(i + 1, n) if c[s]]
        trail += [(i, t, x) for t, x in r]
        if m[i][i]:
            trail.append((i, i, m[i][i]))
        new = [0] * (size + 1)
        for cidx, pc in enumerate(poly):
            if pc:
                for j, cj in enumerate(col):
                    ridx = cidx + j
                    if ridx <= size:
                        new[ridx] += cj * pc
        poly = new
    return poly


def char_poly(g: Graph, kind: MatrixKind = MatrixKind.ADJACENCY) -> CharPoly:
    """Exact char poly det(xI - M) for the chosen matrix of g."""
    coeffs = _berkowitz(matrix_of(g, kind), g.n)
    return CharPoly(tuple(coeffs))


def cospectral(g: Graph, h: Graph, kind: MatrixKind = MatrixKind.ADJACENCY) -> bool:
    """Exact coefficient equality; unequal orders are never cospectral."""
    return char_poly(g, kind) == char_poly(h, kind)


@dataclass(frozen=True)
class RegularCospectralReport:
    """Cospectrality across matrix kinds for a pair of regular graphs.

    For k-regular pairs, adjacency cospectrality carries over to the
    Laplacian, signless Laplacian and normalized Laplacian.  The first two
    are nevertheless verified directly; the normalized one is derived only
    and flagged as such (no rational arithmetic is done for it).
    """

    regular: bool
    degree: int | None
    adjacency_cospectral: bool | None
    laplacian_verified: bool | None
    signless_verified: bool | None
    normalized_laplacian_derived: bool

    def to_json(self) -> dict:
        return asdict(self)


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


# ---------------------------------------------------------------------------
# integer polynomial helpers (degree-descending coefficient lists)
# ---------------------------------------------------------------------------

def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _pshift(p: list[int], c: int) -> list[int]:
    """Coefficients of p(x + c), by Horner over (x + c)."""
    out = [p[0]]
    for a in p[1:]:
        nxt = [0] * (len(out) + 1)
        for idx, b in enumerate(out):
            nxt[idx] += b
            nxt[idx + 1] += b * c
        nxt[-1] += a
        out = nxt
    return out


def laplacian_join_identity_check(g: Graph, h: Graph) -> bool:
    """Exact polynomial identity tying the Laplacian char poly of a join to
    its factors:

        charL(g v h)(x) (x - n')(x - n)
            = x (x - n - n') charL(g)(x - n') charL(h)(x - n)

    with n = |V(g)| and n' = |V(h)|.  Both sides are expanded over the
    integers and compared coefficient by coefficient.
    """
    n, np = g.n, h.n
    cj = list(char_poly(join(g, h), MatrixKind.LAPLACIAN).coeffs)
    lhs = _pmul(_pmul(cj, [1, -np]), [1, -n])
    cg = _pshift(list(char_poly(g, MatrixKind.LAPLACIAN).coeffs), -np)
    ch = _pshift(list(char_poly(h, MatrixKind.LAPLACIAN).coeffs), -n)
    rhs = _pmul(_pmul([1, 0], [1, -(n + np)]), _pmul(cg, ch))
    return lhs == rhs


def regular_join_adjacency_check(g: Graph, h: Graph) -> bool:
    """Exact adjacency analogue of the join identity for regular factors:

        charA(g v h)(x) (x - r)(x - r')
            = charA(g)(x) charA(h)(x) (x^2 - (r + r') x + (r r' - n n'))

    Raises when either factor is not regular.
    """
    r, rp = g.is_regular(), h.is_regular()
    if r is None or rp is None:
        raise ValueError("regular_join_adjacency_check needs regular inputs")
    cj = list(char_poly(join(g, h), MatrixKind.ADJACENCY).coeffs)
    lhs = _pmul(_pmul(cj, [1, -r]), [1, -rp])
    quad = [1, -(r + rp), r * rp - g.n * h.n]
    rhs = _pmul(_pmul(list(char_poly(g).coeffs), list(char_poly(h).coeffs)), quad)
    return lhs == rhs
