"""Certificate formats and their checkers, apart from every search.

``verify_certificate`` replays a ``ForcingCertificate`` (an initial blue set
and ordered (actor, target) forces) force by force.  ``exact_rank`` checks
that a ``SkewWitness`` realises its graph's skew pattern with integers and
ranks it with ``_int_rank``, the package's one rank routine.  A vertex is an
``int`` in range, never a bool.  The only imports are ``enum`` and
``Graph``, ``Record`` and ``bits``: no search code.
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
        return cls(Rule(data["rule"]), data["initial"], data["forces"])


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


def _int_rank(mat: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss) elimination.

    Every entry after k pivots is a (k+1)-minor of the input, so each
    division by the previous pivot is exact.  ``mat`` is left untouched.
    """
    m = [row[:] for row in mat]
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(ncols):
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
