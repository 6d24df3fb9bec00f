"""Certificate formats and their checkers, apart from every search.

``verify_certificate`` replays a ``ForcingCertificate`` (an initial blue set
and ordered (actor, target) forces) force by force.  ``exact_rank`` checks
that a ``SkewWitness`` realises its graph's skew pattern with integers and
ranks it with ``_int_rank``, the package's one rank routine.
``matrix_nullity`` checks a ``MatrixCertificate``, an integer matrix with a
graph's pattern, and returns the nullity of a principal block, which bounds
a forcing number from below: Z >= M >= null(A) for a symmetric A (AIM
Minimum Rank Work Group, LAA 2008), Z_plus >= M_plus >= null(P) for a
positive semidefinite P, and Z_minus >= M_minus >= null(K) for a
skew-symmetric K (IMA-ISU, LAA 2010).  Every check is integer arithmetic.
A vertex is an ``int`` in range, never a bool.  The only imports are
``enum`` and ``Graph``, ``Record`` and ``bits``: no search code.
"""

from __future__ import annotations

import enum

from .graphs import Graph, Record, bits


class Rule(enum.Enum):
    STANDARD = "standard"
    SKEW = "skew"
    PSD = "psd"


class ForcingCertificate(Record):
    """Replayable trace: initial blue vertices plus ordered (actor, target) forces."""

    __slots__ = ("rule", "initial", "forces")

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "forces", tuple([(a, t) for a, t in self.forces]))

    @classmethod
    def from_json(cls, data: dict) -> "ForcingCertificate":
        initial, forces = data["initial"], data["forces"]
        if not isinstance(initial, (list, tuple)):
            raise ValueError(f"initial must be a list of vertices, got {initial!r}")
        if not (isinstance(forces, (list, tuple))
                and all(isinstance(f, (list, tuple)) and len(f) == 2 for f in forces)):
            raise ValueError(f"forces must be a list of [actor, target] pairs, got {forces!r}")
        return cls(Rule(data["rule"]), initial, forces)


def verify_certificate(g: Graph, cert: ForcingCertificate, require_all_blue: bool = True) -> bool:
    """Independent replay of a certificate; trusts nothing from the solver.

    Checks that every vertex named is an ``int`` (not a bool) below the
    order, that the initial vertices are distinct, that every force is legal
    under the rule when it fires, that no vertex is forced twice or forced
    despite being in the initial set, and (by default) that the replay ends
    with every vertex blue.
    """
    named = [*cert.initial, *[v for force in cert.forces for v in force]]
    if not all(type(v) is int and 0 <= v < g.n for v in named):
        return False
    blue = set(cert.initial)
    if len(blue) != len(cert.initial):
        return False
    for actor, target in cert.forces:
        # blue holds the initial set and every vertex forced so far
        if target in blue or not g.has_edge(actor, target):
            return False
        if cert.rule is not Rule.SKEW and actor not in blue:
            return False
        # the white set the exactly-one test looks at: all white vertices, or
        # under psd the target's component of the white-induced subgraph
        white = scope = set(range(g.n)) - blue
        if cert.rule is Rule.PSD:
            scope, stack = {target}, [target]
            while stack:
                for u in bits(g.adj[stack.pop()]):
                    if u in white and u not in scope:
                        scope.add(u)
                        stack.append(u)
        if {w for w in bits(g.adj[actor]) if w in scope} != {target}:
            return False
        blue.add(target)
    if require_all_blue and len(blue) != g.n:
        return False
    return True


class SkewWitness(Record):
    """Integer entry assignment realising a graph's skew pattern, with its nullity.

    ``certified`` records that the search that produced this witness fully
    enumerated its normalized small-integer grid (randomized or truncated
    searches report False).  The nullity itself is always replayable.
    """

    __slots__ = ("graph", "entries", "achieved_nullity", "certified", "seed")
    _defaults = {"seed": None}

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple([(i, j, v) for i, j, v in self.entries]))

    def to_json(self) -> dict:
        return {"edges": [[i, j, str(v)] for i, j, v in self.entries],
                "nullity": self.achieved_nullity,
                "certified": self.certified,
                "seed": self.seed}

    @classmethod
    def from_json(cls, graph: Graph, data: dict) -> "SkewWitness":
        # through str, so that a JSON 1.5 or true is refused, not read as 1
        entries = [(i, j, int(str(v))) for i, j, v in data["edges"]]
        return cls(graph, entries, data["nullity"], data["certified"], data.get("seed"))


def _int_rank(mat: list[list[int]], psd: bool = False) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss) elimination.

    Every entry after k pivots is a (k+1)-minor of the input, so each
    division by the previous pivot is exact.  ``mat`` is left untouched.

    With ``psd`` the matrix must be symmetric, and every pivot is taken on
    the diagonal, its row and column swapped into place together, so the
    rows below stay a positive multiple of the Schur complement: the
    multiplier is the leading principal minor of the pivots, which is the
    previous pivot.  The matrix is positive semidefinite exactly when each
    pivot is positive and, once no diagonal entry is left nonzero, nothing
    is; a ValueError is raised otherwise.
    """
    m = [row[:] for row in mat]
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        if psd:  # col == rank: every earlier column held a pivot
            pivot = next((r for r in range(rank, len(m)) if m[r][r]), None)
            if pivot is None:
                if any(any(row[rank:]) for row in m[rank:]):
                    raise ValueError("not positive semidefinite: a zero diagonal entry "
                                     "has a nonzero entry in its row")
                break
            if m[pivot][pivot] < 0:
                raise ValueError("not positive semidefinite: a negative diagonal pivot")
            for row in m:
                row[rank], row[pivot] = row[pivot], row[rank]
        else:
            pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
            if pivot is None:
                continue
        m[rank], m[pivot] = m[pivot], m[rank]
        prow = m[rank]
        p = prow[col]
        for row in m[rank + 1:]:
            a = row[col]
            for c in range(col + 1, ncols):
                row[c] = (row[c] * p - a * prow[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
    return rank


def exact_rank(witness: SkewWitness) -> int:
    """Rank of the realised matrix over the rationals; always even.

    Raises ValueError unless the entries give each edge of the graph, and
    nothing else, one nonzero integer in the upper triangle.
    """
    g, seen = witness.graph, set()
    mat = [[0] * g.n for _ in range(g.n)]
    for i, j, value in witness.entries:
        ints = type(i) is int and type(j) is int  # no bool, no float
        if ints and i >= j:
            raise ValueError(f"entries use the upper triangle; got ({i},{j})")
        if not (ints and 0 <= i and j < g.n and g.has_edge(i, j)):
            raise ValueError(f"entry ({i},{j}) is not an edge of the pattern")
        if (i, j) in seen:
            raise ValueError(f"entry ({i},{j}) is listed more than once")
        if value == 0:
            raise ValueError(f"entry ({i},{j}) must be nonzero")
        if int(value) != value:
            raise ValueError(f"entry ({i},{j}) must be an integer")
        seen.add((i, j))
        mat[i][j], mat[j][i] = int(value), -int(value)
    missing = set(g.edges()) - seen
    if missing:
        raise ValueError(f"pattern edges without entries: {sorted(missing)}")
    rank = _int_rank(mat)
    if rank % 2:
        raise ArithmeticError("skew-symmetric rank came out odd; elimination bug")
    return rank


class MatrixCertificate(Record):
    """An integer matrix, given by its rows, meant to carry a graph's pattern.

    ``kind`` is ``"symmetric"`` (a free diagonal), ``"psd"`` (symmetric and
    positive semidefinite) or ``"skew"`` (skew-symmetric, a zero diagonal).
    Nothing is checked until ``matrix_nullity`` is given the graph.
    """

    __slots__ = ("kind", "rows")

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple([tuple(row) for row in self.rows]))

    @classmethod
    def from_witness(cls, witness: SkewWitness) -> "MatrixCertificate":
        """The skew matrix a witness realises: b_ij on each listed entry, -b_ij below."""
        n = witness.graph.n
        rows = [[0] * n for _ in range(n)]
        for i, j, value in witness.entries:
            rows[i][j], rows[j][i] = value, -value
        return cls("skew", rows)

    @classmethod
    def from_json(cls, data: dict) -> "MatrixCertificate":
        rows = data["rows"]
        if not (isinstance(rows, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in rows)):
            raise ValueError(f"rows must be a list of lists of integers, got {rows!r}")
        # through str, so that a JSON 1.5 or true is refused, not read as 1
        return cls(data["kind"], [[int(str(v)) for v in row] for row in rows])


def matrix_nullity(g: Graph, cert: MatrixCertificate, rule: Rule, part: int | None = None) -> int:
    """Nullity of the principal block of ``cert`` on the vertex mask ``part``
    (default: all of g), a lower bound on the forcing number under ``rule`` of
    any union of g's components that ``part`` spans.

    Raises ValueError unless the kind bounds the rule (``symmetric`` or
    ``psd`` for the standard rule, ``psd`` for psd, ``skew`` for skew), the
    matrix is n-by-n with ``int`` entries (no bool), its off-diagonal
    entries are nonzero exactly on g's edges, it is symmetric (skew: its
    transpose is its negation, with a zero diagonal), and, for ``psd``, the
    block is positive semidefinite.
    """
    fits = {Rule.STANDARD: ("symmetric", "psd"), Rule.PSD: ("psd",), Rule.SKEW: ("skew",)}
    if cert.kind not in fits[rule]:
        raise ValueError(f"a {cert.kind!r} matrix does not bound the {rule.value} forcing number")
    rows, n = cert.rows, g.n
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"the matrix is not {n} by {n}")
    sign = -1 if cert.kind == "skew" else 1
    for i, row in enumerate(rows):
        if not all(type(v) is int for v in row):
            raise ValueError(f"row {i} has an entry that is not an integer")
        if sign < 0 and row[i]:
            raise ValueError(f"skew matrix has a nonzero diagonal entry at {i}")
        adj = g.adj[i]
        for j, value in enumerate(row):
            if j != i and bool(value) != bool(adj >> j & 1):
                where = "an edge" if value == 0 else "a non-edge"
                raise ValueError(f"entry ({i},{j}) is {value} on {where} of the pattern")
            if value != sign * rows[j][i]:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not "
                                 f"{'skew-' if sign < 0 else ''}symmetric")
    verts = list(bits(g.full_mask if part is None else part & g.full_mask))
    block = [[rows[i][j] for j in verts] for i in verts]
    return len(verts) - _int_rank(block, psd=cert.kind == "psd")
