"""Exact rational rank and low-rank witness search for skew patterns.

A witness realises a graph's skew pattern: an n-by-n matrix B with b_ij
nonzero exactly on edges (upper triangle stored; the lower triangle is the
negation) and zero diagonal.  Any realised nullity is a certified lower
bound on the pattern's maximum skew nullity, because the witness itself is
the certificate (replay with exact_rank).  When a found nullity meets the
skew forcing number from the solver, the two quantities coincide, since the
forcing number bounds the nullity from above.

Search-space note: any realisation is diagonally congruent (B -> D B D with
D a nonzero diagonal) to one whose entries along a spanning forest are +1,
and congruence preserves both rank and pattern.  The exhaustive search
therefore pins forest entries to +1 and ranges the remaining entries over
{1, 2, 3} with both signs, which keeps desk-scale patterns enumerable.
Each sample is written into one integer matrix per component and ranked by
fraction-free integer elimination, which is exact over the rationals; the
final witness is replayed independently with Fraction arithmetic
(exact_rank).

Parity bound: the rank over GF(2) of a sample's matrix mod 2 never exceeds
its rank over the rationals, since a minor that is nonzero mod 2 is a
nonzero integer.  Forest entries and +-1, +-3 are odd, so the matrix mod 2
is the pattern's bit rows with the +-2 entries cleared, and its rank is XOR
elimination on ints, stopped once it reaches the best rank so far.  A
sample whose parity rank already reaches the best cannot beat it (only a
strictly smaller rank replaces the best), so it is skipped without the
exact rank.  Every sample is still drawn and still spends one unit of the
budget, so the draws, the best sample chosen, ``certified`` and every
witness are exactly those of ranking every sample.

Trap, documented on purpose: a GENERIC (random full-support) realisation
attains the pattern's maximum rank, i.e. its minimum nullity.  Nothing here
ever reports a single random sample as the maximum nullity; randomized mode
keeps the best of many seeded samples and marks the result as such.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Mapping

from .graphs import Graph, Record, bits, components, induced_subgraph

_ENTRY_CHOICES = (1, -1, 2, -2, 3, -3)


class SkewWitness(Record):
    """Entry assignment realising a graph's skew pattern, with its nullity.

    ``certified`` records that the search that produced this witness fully
    enumerated its normalized small-integer grid (randomized or truncated
    searches report False).  The nullity itself is always replayable.
    """

    __slots__ = ("graph", "entries", "achieved_nullity", "certified", "seed")
    _defaults = {"seed": None}

    def entry_map(self) -> dict[tuple[int, int], Fraction]:
        return {(i, j): v for i, j, v in self.entries}

    def to_json(self) -> dict:
        return {"edges": [[i, j, str(v)] for i, j, v in self.entries],
                "nullity": self.achieved_nullity,
                "certified": self.certified,
                "seed": self.seed}

    @classmethod
    def from_json(cls, graph: Graph, data: dict) -> "SkewWitness":
        entries = tuple((i, j, Fraction(v)) for i, j, v in data["edges"])
        return cls(graph, entries, data["nullity"], data["certified"], data.get("seed"))


def _rank_of(g: Graph, entry_map: Mapping[tuple[int, int], Fraction]) -> int:
    n = g.n
    mat = [[Fraction(0)] * n for _ in range(n)]
    seen = set()
    for (i, j), value in entry_map.items():
        if i >= j:
            raise ValueError(f"entries use the upper triangle; got ({i},{j})")
        if not g.has_edge(i, j):
            raise ValueError(f"entry ({i},{j}) is not an edge of the pattern")
        if value == 0:
            raise ValueError(f"entry ({i},{j}) must be nonzero")
        mat[i][j] = Fraction(value)
        mat[j][i] = -Fraction(value)
        seen.add((i, j))
    missing = {(u, v) for u, v in g.edges()} - seen
    if missing:
        raise ValueError(f"pattern edges without entries: {sorted(missing)}")

    rank = 0
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        for r in range(row + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                for c in range(col, n):
                    mat[r][c] -= factor * mat[row][c]
        row += 1
        rank += 1
    if rank % 2:
        raise ArithmeticError("skew-symmetric rank came out odd; elimination bug")
    return rank


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


def _parity_rows(adj, free: list[tuple[int, int]], values) -> list[int]:
    """A sample's matrix mod 2 as bit rows: the pattern less its even entries."""
    rows = list(adj)
    for (i, j), value in zip(free, values):
        if not value & 1:
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
    return rows


def _gf2_rank(rows: list[int], stop: int) -> int:
    """Rank over GF(2) of bit rows, counted no further than ``stop``."""
    lead: dict[int, int] = {}  # one reduced row per leading bit
    for row in rows:
        if len(lead) >= stop:
            break
        while row:
            top = row.bit_length()
            if top not in lead:
                lead[top] = row
                break
            row ^= lead[top]
    return len(lead)


def exact_rank(witness: SkewWitness) -> int:
    """Rank of the realised matrix over the rationals; always even."""
    return _rank_of(witness.graph, witness.entry_map())


def _spanning_tree(g: Graph) -> set[tuple[int, int]]:
    # Depth-first tree of a connected graph, grown from vertex 0.
    tree = set()
    seen, stack = 1, [0]
    while stack:
        v = stack.pop()
        for u in bits(g.adj[v] & ~seen):
            seen |= 1 << u
            tree.add((min(u, v), max(u, v)))
            stack.append(u)
    return tree


def max_nullity_witness_search(g: Graph, *,
                               budget: int = 4000,
                               seed: int = 0) -> SkewWitness:
    """Best nullity found over small-integer realisations of the pattern.

    Per component: spanning-tree entries are pinned to +1 and the
    remaining entries range over {1,2,3} with both signs.  When the grid for
    a component exceeds the remaining ``budget`` (a cap on samples), that
    component falls back to seeded random sampling and the result is no
    longer marked certified.  The first sample, and each later one that the
    parity bound does not rule out, is ranked exactly.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rng = random.Random(seed)
    remaining = budget
    certified = True
    merged: dict[tuple[int, int], Fraction] = {}
    total_rank = 0
    comps = components(g)

    for idx, comp in enumerate(comps):
        sub, verts = induced_subgraph(g, comp)
        tree = _spanning_tree(sub)
        edges = sub.edges()
        free = [e for e in edges if e not in tree]
        pinned = {e: Fraction(1) for e in edges if e in tree}
        grid = len(_ENTRY_CHOICES) ** len(free)
        mat = [[0] * sub.n for _ in range(sub.n)]
        for i, j in pinned:
            mat[i][j], mat[j][i] = 1, -1

        if grid <= remaining:
            assignments = itertools.product(_ENTRY_CHOICES, repeat=len(free))
        else:
            certified = False
            share = max(remaining // (len(comps) - idx), 1)
            assignments = (tuple([rng.choice(_ENTRY_CHOICES) for _ in free])
                           for _ in range(share))

        best_rank = None
        best_values = (1,) * len(free)
        for values in assignments:
            if remaining <= 0:
                certified = False
                break
            remaining -= 1
            if best_rank is not None and _gf2_rank(
                    _parity_rows(sub.adj, free, values), best_rank) >= best_rank:
                continue  # its rank over Q is at least best_rank: it cannot win
            for (i, j), value in zip(free, values):
                mat[i][j], mat[j][i] = value, -value
            rank = _int_rank(mat)
            if best_rank is None or rank < best_rank:
                best_rank, best_values = rank, values

        final_map = dict(pinned)
        final_map.update({e: Fraction(v) for e, v in zip(free, best_values)})
        if best_rank is None:
            # budget ran out before this component saw a single evaluation
            certified = False
            best_rank = _rank_of(sub, final_map)
        total_rank += best_rank
        for (i, j), value in final_map.items():
            merged[(verts[i], verts[j])] = value

    entries = tuple(sorted((i, j, v) for (i, j), v in merged.items()))
    witness = SkewWitness(g, entries, g.n - total_rank, certified, seed)
    # replay the merged witness end to end; nullity must match the component sum
    if g.n - exact_rank(witness) != witness.achieved_nullity:
        raise AssertionError("witness nullity failed replay")
    return witness
