"""Low-rank witness search for skew patterns.

A witness realises a graph's skew pattern: an n-by-n matrix B with b_ij
nonzero exactly on edges (upper triangle stored; the lower triangle is the
negation) and zero diagonal.  Any realised nullity is a certified lower
bound on the pattern's maximum skew nullity, because the witness itself is
the certificate (replay with ``certify.exact_rank``).  When a found nullity
meets the skew forcing number from the solver, the two quantities coincide,
since the forcing number bounds the nullity from above.

Search-space note: any realisation is diagonally congruent (B -> D B D with
D a nonzero diagonal) to one whose entries along a spanning forest are +1,
and congruence preserves both rank and pattern.  The exhaustive search
therefore pins forest entries to +1 and ranges the remaining entries over
{1, 2, 3} with both signs, which keeps desk-scale patterns enumerable.
Entries are ints throughout, the only entries ``exact_rank`` accepts: each
sample is written into one integer matrix per component and ranked by
fraction-free integer elimination (``certify._int_rank``), which is exact
over the rationals, and the final witness is replayed end to end by
``exact_rank``, which checks its pattern and ranks it with the same routine.

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

from .certify import SkewWitness, _int_rank, exact_rank
from .graphs import Graph, bits, components, induced_subgraph

_ENTRY_CHOICES = (1, -1, 2, -2, 3, -3)


def _draw_entries(rng: random.Random, count: int) -> tuple[int, ...]:
    """``count`` entries, drawn as ``rng.choice(_ENTRY_CHOICES)`` draws them on
    CPython 3.10-3.13: 3 random bits, drawn again while they reach 6."""
    draw = rng.getrandbits
    values = []
    for _ in range(count):
        r = draw(3)
        while r > 5:
            r = draw(3)
        values.append(_ENTRY_CHOICES[r])
    return tuple(values)


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
    entries: list[tuple[int, int, int]] = []
    total_rank = 0
    comps = components(g)

    for idx, comp in enumerate(comps):
        sub, verts = induced_subgraph(g, comp)
        tree = _spanning_tree(sub)
        edges = sub.edges()
        free = [e for e in edges if e not in tree]
        mat = [[0] * sub.n for _ in range(sub.n)]
        for i, j in edges:  # all ones, until a sample is ranked
            mat[i][j], mat[j][i] = 1, -1

        if len(_ENTRY_CHOICES) ** len(free) <= remaining:
            assignments = itertools.product(_ENTRY_CHOICES, repeat=len(free))
        else:
            certified = False
            share = max(remaining // (len(comps) - idx), 1)
            assignments = (_draw_entries(rng, len(free)) for _ in range(share))

        best_rank, best_values = None, (1,) * len(free)
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

        if best_rank is None:
            # no sample ranked before the budget ran out: mat is still all ones
            certified = False
            best_rank = _int_rank(mat)
        total_rank += best_rank
        chosen = dict.fromkeys(tree, 1) | dict(zip(free, best_values))
        entries += [(verts[i], verts[j], v) for (i, j), v in chosen.items()]

    witness = SkewWitness(g, sorted(entries), g.n - total_rank, certified, seed)
    # replay the merged witness end to end; nullity must match the component sum
    if g.n - exact_rank(witness) != witness.achieved_nullity:
        raise AssertionError("witness nullity failed replay")
    return witness
