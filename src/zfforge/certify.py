"""Certificate formats and their checkers, apart from every search.

``verify_certificate`` replays a ``ForcingCertificate`` (an initial blue set
and ordered (actor, target) forces) force by force.  ``matrix_nullity``
checks a ``MatrixCertificate``, an integer matrix with a graph's pattern,
and returns the nullity of each component's block, ranked by ``_int_rank``,
the package's one rank routine.  Their sum bounds a forcing number from
below: Z >= M >= null(A) for a symmetric A (AIM Minimum Rank Work Group,
LAA 2008), Z_plus >= M_plus >= null(P) for a positive semidefinite P, and
Z_minus >= M_minus >= null(K) for a skew-symmetric K (IMA-ISU, LAA 2010).
A ``SkewWitness`` is the skew matrix a witness search found, with the
nullity the search claims; ``exact_rank`` ranks it through
``matrix_nullity``, the only check of a skew realisation.  ``check_report``
replays every certificate of a ``verify-paper`` JSON report through these
checks and gives one verdict per claim: a forcing set is sized against the
number its claim states, and its matrix or degree lower bound must prove
that number.  Every check is integer arithmetic.  A vertex is an ``int``
in range, never a bool.  The only imports are ``enum`` and ``Graph``,
``Record``, ``bits``, ``components`` and ``parse_graph6``: no search code.
"""

from __future__ import annotations

import enum

from .graphs import Graph, Record, bits, components, parse_graph6


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
    def from_json(cls, data: dict) -> "MatrixCertificate":
        rows = data["rows"]
        if not (isinstance(rows, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in rows)):
            raise ValueError(f"rows must be a list of lists of integers, got {rows!r}")
        # through str, so that a JSON 1.5 or true is refused, not read as 1
        return cls(data["kind"], [[int(str(v)) for v in row] for row in rows])


def matrix_nullity(g: Graph, cert: MatrixCertificate, rule: Rule) -> list[int]:
    """Nullity of each component's principal block of ``cert``, in
    ``components(g)`` order: a lower bound on that component's forcing
    number under ``rule``, so their sum bounds g's.

    The matrix has g's pattern, so it is block-diagonal over g's components:
    the block nullities sum to its nullity, and it is positive semidefinite
    exactly when every block is.  The pattern is checked once, for all.

    Raises ValueError unless the kind bounds the rule (``symmetric`` or
    ``psd`` for the standard rule, ``psd`` for psd, ``skew`` for skew), the
    matrix is n-by-n with ``int`` entries (no bool), its off-diagonal
    entries are nonzero exactly on g's edges, it is symmetric (skew: its
    transpose is its negation, with a zero diagonal), and, for ``psd``, it
    is positive semidefinite.
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
    nullities = []
    for comp in components(g):
        verts = list(bits(comp))
        block = [[rows[i][j] for j in verts] for i in verts]
        nullities.append(len(verts) - _int_rank(block, psd=cert.kind == "psd"))
    return nullities


class SkewWitness(Record):
    """A skew ``MatrixCertificate`` realising a graph's skew pattern, with the
    nullity its search claims for it.

    ``certified`` records that the search that produced this witness fully
    enumerated its normalized small-integer grid (randomized or truncated
    searches report False).  The nullity itself is always replayable.
    """

    __slots__ = ("graph", "matrix", "achieved_nullity", "certified", "seed")
    _defaults = {"seed": None}

    def to_json(self) -> dict:
        rows = self.matrix.rows
        return {"edges": [[i, j, str(rows[i][j])] for i, j in self.graph.edges()],
                "nullity": self.achieved_nullity,
                "certified": self.certified,
                "seed": self.seed}


def exact_rank(witness: SkewWitness) -> int:
    """Rank over the rationals of the witness's matrix; always even.  Raises
    ValueError unless ``matrix_nullity`` finds a skew matrix with the pattern."""
    g = witness.graph
    rank = g.n - sum(matrix_nullity(g, witness.matrix, Rule.SKEW))
    if rank % 2:
        raise ArithmeticError("skew-symmetric rank came out odd; elimination bug")
    return rank


def check_report(report: dict) -> dict[str, str]:
    """One verdict per claim of a ``verify-paper`` JSON report, from the report alone.

    Every claim with evidence carries it in one shape: a forcing
    ``certificate`` on its ``graph6``, replayed force by force.  If the
    claim states an ``at_most`` bound, the set may have at most that many
    vertices, and the replay is the whole proof.  Otherwise the set must
    have exactly the claim's ``expected`` value (its ``"nullity"`` when
    ``expected`` is a dict), and the ``lower_bound`` entry must prove that
    number minimal.

    ``"checked"``: every number the claim states is proved by evidence
    replayed here; ``"upper bound only"``: an exact forcing value whose
    witness replays but whose ``lower_bound`` is ``{"kind": "search"}``;
    ``"unchecked"``: nothing to replay; ``"failed: <reason>"``: the evidence
    does not replay, or does not give the stated number.  A malformed field
    fails its own claim with the error that names it, never the call; only
    a report that is not a ``claims`` list of objects with a ``claim_id``
    raises.
    """
    verdicts = {}
    for claim in report["claims"]:
        try:
            verdicts[claim["claim_id"]] = _claim_verdict(claim["certificates"], claim["expected"])
        except Exception as exc:  # malformed evidence fails its claim, not the report
            verdicts[claim["claim_id"]] = f"failed: {type(exc).__name__}: {exc}"
    return verdicts


def _claim_verdict(certs: dict, expected) -> str:
    if "certificate" not in certs:
        return "unchecked"
    g = parse_graph6(certs["graph6"])
    cert = ForcingCertificate.from_json(certs["certificate"])
    if not verify_certificate(g, cert):
        return "failed: the forcing certificate does not replay"
    bounded = "at_most" in certs  # an upper bound, which the replayed set proves alone
    value = (certs["at_most"] if bounded
             else expected["nullity"] if isinstance(expected, dict) else expected)
    if type(value) is not int:
        raise ValueError(f"the claim states no vertex count for its forcing set: {value!r}")
    size = len(cert.initial)
    if bounded:
        if size > value:
            return f"failed: the forcing set has {size} vertices, more than {value}"
        return "checked"
    if size != value:
        return f"failed: the forcing set has {size} vertices, not {value}"
    bound = certs["lower_bound"]
    if bound["kind"] == "search":
        return "upper bound only"
    if bound["kind"] == "matrix":
        proved = sum(matrix_nullity(g, MatrixCertificate.from_json(bound["certificate"]),
                                    cert.rule))
    elif bound["kind"] == "degree":  # Z, Z_plus >= delta and Z_minus >= delta - 1, per component
        parts = [list(bits(comp)) for comp in components(g)]
        degrees = [max(min(g.degree(v) for v in part) - (cert.rule is Rule.SKEW), 0)
                   for part in parts]
        if bound["components"] != parts or bound["bounds"] != degrees:
            return f"failed: the degree bounds per component are {degrees} on {parts}"
        proved = sum(degrees)
    else:
        return f"failed: unknown lower_bound kind {bound['kind']!r}"
    if proved != value:
        return f"failed: the {bound['kind']} lower bound proves {proved}, not {value}"
    return "checked"
