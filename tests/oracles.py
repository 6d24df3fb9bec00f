"""Slow reference implementations that the tests compare fast code against,
and helpers that only the tests use."""

import heapq
import itertools
import random
from fractions import Fraction

from zfforge.constructions import circulant_h, h_witness_set
from zfforge.forcing import Rule, _chunk_tables, _close, closure, zero_forcing_number
from zfforge.graphs import Graph, bits, components, from_edges, induced_subgraph
from zfforge.skew_rank import (_ENTRY_CHOICES, SkewWitness, _int_rank, _spanning_tree,
                               exact_rank)
from zfforge.spectra import CharPoly, MatrixKind


PETERSEN = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])
# the Frucht graph, LCF [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]: cubic, with
# no automorphism but the identity, so its equitable colouring is one cell
# that is not an orbit
FRUCHT = from_edges(12, [(i, (i + 1) % 12) for i in range(12)]
                    + [(i, (i + s) % 12) for i, s in
                       enumerate((-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2))])


def random_subset_mask(rng, n: int) -> int:
    return rng.randrange(1 << n) if n else 0


def subsets_of_size(n: int, k: int):
    # Gosper's hack: all n-bit masks of popcount k in increasing numeric order.
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    top = 1 << n
    while mask < top:
        yield mask
        c = mask & -mask
        r = mask + c
        mask = r | ((mask ^ r) >> 2) // c


def gosper_minimum(g: Graph, rule) -> int:
    """Brute-force minimum forcing-set size of the whole graph: every subset
    by increasing size until one closes."""
    skew, psd = rule is Rule.SKEW, rule is Rule.PSD
    tables = _chunk_tables(g.adj)
    for k in range(g.n + 1):
        for mask in subsets_of_size(g.n, k):
            if _close(tables, g.full_mask, mask, skew, psd) == g.full_mask:
                return k
    raise AssertionError("unreachable: the full vertex set always closes")


def wavefront_minimum(g: Graph) -> int:
    """Standard zero forcing number by the wavefront of Butler et al. (the
    Sage Minimum Rank Library): a Dijkstra search over closed sets, with a
    heap and a worklist closure over Python sets of its own, so it shares no
    code with the fort search.  From a closed set S at cost c, a move on v
    pays for v if it is white and for all but one of its white neighbours,
    and leads to the closure of S with v and its neighbours; Z is the cost
    at which the whole vertex set is first popped."""
    nbrs = [set(bits(row)) for row in g.adj]
    everything = frozenset(range(g.n))

    def close(blue):
        # a blue vertex with exactly one white neighbour forces it; when w
        # turns blue, w and its blue neighbours have one white neighbour fewer
        blue, todo = set(blue), list(blue)
        while todo:
            white = nbrs[todo.pop()] - blue
            if len(white) == 1:
                w = white.pop()
                blue.add(w)
                todo += [w, *nbrs[w] & blue]
        return frozenset(blue)

    start = close(())
    reached, tie = {start: 0}, itertools.count()
    heap = [(0, next(tie), start)]
    while heap:
        cost, _, closed = heapq.heappop(heap)
        if closed == everything:
            return cost
        if reached[closed] < cost:
            continue
        for v in range(g.n):
            white = nbrs[v] - closed
            grown = close(closed | white | {v})
            move = cost + (v not in closed) + max(len(white) - 1, 0)
            if grown != closed and move < reached.get(grown, g.n + 1):
                reached[grown] = move
                heapq.heappush(heap, (move, next(tie), grown))
    raise AssertionError("unreachable: a move on every vertex makes everything blue")


def brute_force_automorphisms(g: Graph) -> set[bytes]:
    """Every automorphism of g, found by trying all n! permutations: p is one
    when it carries every edge onto an edge.  Keep n <= 8."""
    edges = g.edges()
    arcs = set(edges) | {(v, u) for u, v in edges}
    return {bytes(p) for p in itertools.permutations(range(g.n))
            if all((p[u], p[v]) in arcs for u, v in edges)}


def set_closure(g: Graph, rule, initial) -> tuple[set[int], list[tuple[int, int]]]:
    """Closure of ``initial`` straight from the rule definitions, over Python
    sets: fire the least legal (actor, target) force until none is left, and
    return the blue set with the forces in order.  A blue vertex (any vertex
    under skew) forces a white neighbour that is its only neighbour among the
    white vertices, or under psd among that neighbour's white component."""
    nbrs = [{w for w in range(g.n) if g.has_edge(v, w)} for v in range(g.n)]
    blue = set(initial)
    forces = []

    def white_component(v, white):
        comp, stack = {v}, [v]
        while stack:
            for w in nbrs[stack.pop()] & white - comp:
                comp.add(w)
                stack.append(w)
        return comp

    while True:
        white = set(range(g.n)) - blue
        legal = [(actor, target)
                 for actor in range(g.n) if rule.value == "skew" or actor in blue
                 for target in nbrs[actor] & white
                 if nbrs[actor] & (white_component(target, white) if rule.value == "psd"
                                   else white) == {target}]
        if not legal:
            return blue, forces
        actor, target = min(legal)
        forces.append((actor, target))
        blue.add(target)


def zf_h_check(k: int) -> bool:
    """Exact Z of the circulant core equals 2k - 2 and the canonical witness
    closes."""
    h = circulant_h(k)
    if zero_forcing_number(h, Rule.STANDARD).value != 2 * k - 2:
        return False
    final, _ = closure(h, Rule.STANDARD, h_witness_set(k))
    return final == h.full_mask


def matrix_of(g: Graph, kind: MatrixKind) -> list[list[int]]:
    """The dense A, L or Q matrix of g, for the dense oracles below."""
    n = g.n
    off = -1 if kind is MatrixKind.LAPLACIAN else 1
    m = [[0] * n for _ in range(n)]
    for v in range(n):
        if kind is not MatrixKind.ADJACENCY:
            m[v][v] = g.degree(v)
        for u in bits(g.adj[v]):
            m[v][u] = off
    return m


def dense_berkowitz(m: list[list[int]], n: int) -> list[int]:
    """Coefficients of det(xI - M) by the dense Berkowitz loop: every
    bordering product runs over the whole trailing submatrix."""
    poly = [1]
    for i in range(n - 1, -1, -1):
        size = n - i
        a = m[i][i]
        col = [1, -a]
        if size > 1:
            r = m[i][i + 1:]
            v = [m[t][i] for t in range(i + 1, n)]
            for j in range(1, size):
                col.append(-sum(r[t] * v[t] for t in range(size - 1)))
                if j < size - 1:
                    v = [sum(m[i + 1 + s][i + 1 + t] * v[t] for t in range(size - 1))
                         for s in range(size - 1)]
        new = [0] * (size + 1)
        for cidx, pc in enumerate(poly):
            if pc:
                for j, cj in enumerate(col):
                    ridx = cidx + j
                    if ridx <= size:
                        new[ridx] += cj * pc
        poly = new
    return poly


def det_exact(matrix: list[list[int]]) -> int:
    """Fraction-free (Bareiss) integer determinant; independent of Berkowitz."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def integer_roots(cp: CharPoly) -> dict[int, int]:
    """Integer roots with multiplicity, via the rational root theorem.  The
    divisor loop is linear in the constant term, so keep inputs small."""
    coeffs = list(cp.coeffs)
    roots: dict[int, int] = {}
    while len(coeffs) > 1 and coeffs[-1] == 0:
        roots[0] = roots.get(0, 0) + 1
        coeffs.pop()
    if len(coeffs) == 1:
        return roots
    const = abs(coeffs[-1])
    candidates = sorted({d for d in range(1, const + 1) if const % d == 0})
    for base in candidates:
        for r in (base, -base):
            while True:
                # synthetic division by (x - r)
                q = [coeffs[0]]
                for c in coeffs[1:]:
                    q.append(c + r * q[-1])
                if q[-1] != 0:
                    break
                roots[r] = roots.get(r, 0) + 1
                coeffs = q[:-1]
                if len(coeffs) == 1:
                    return roots
    return roots


def gf2_rank_by_lists(matrix: list[list[int]]) -> int:
    """Rank over GF(2) by plain row reduction of lists of 0/1 entries."""
    m = [[x % 2 for x in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def fraction_rank(g: Graph, entries) -> int:
    """Rank over Q of the skew matrix with ``entries[(i, j)]`` at (i, j) and
    its negation at (j, i), by Gaussian elimination in Fractions."""
    n = g.n
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), value in entries.items():
        mat[i][j], mat[j][i] = Fraction(value), -Fraction(value)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        for r in range(rank + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                for c in range(col, n):
                    mat[r][c] -= factor * mat[rank][c]
        rank += 1
    return rank


def unfiltered_witness_search(g: Graph, *, budget: int = 4000, seed: int = 0) -> SkewWitness:
    """``max_nullity_witness_search`` as it was before the parity bound: every
    sample is ranked exactly.  Same grid, same draws, same tie rule."""
    rng = random.Random(seed)
    remaining = budget
    certified = True
    merged = {}
    total_rank = 0
    comps = components(g)
    for idx, comp in enumerate(comps):
        sub, verts = induced_subgraph(g, comp)
        tree = _spanning_tree(sub)
        free = [e for e in sub.edges() if e not in tree]
        mat = [[0] * sub.n for _ in range(sub.n)]
        for i, j in tree:
            mat[i][j], mat[j][i] = 1, -1
        if len(_ENTRY_CHOICES) ** len(free) <= remaining:
            assignments = itertools.product(_ENTRY_CHOICES, repeat=len(free))
        else:
            certified = False
            share = max(remaining // max(len(comps) - idx, 1), 1)
            assignments = (tuple(rng.choice(_ENTRY_CHOICES) for _ in free)
                           for _ in range(share))
        best_rank, best_values = None, (1,) * len(free)
        for values in assignments:
            if remaining <= 0:
                certified = False
                break
            remaining -= 1
            for (i, j), value in zip(free, values):
                mat[i][j], mat[j][i] = value, -value
            rank = _int_rank(mat)
            if best_rank is None or rank < best_rank:
                best_rank, best_values = rank, values
        final_map = {e: Fraction(1) for e in tree}
        final_map.update({e: Fraction(v) for e, v in zip(free, best_values)})
        if best_rank is None:
            certified = False
            best_rank = fraction_rank(sub, final_map)
        total_rank += best_rank
        for (i, j), value in final_map.items():
            merged[(verts[i], verts[j])] = value
    entries = tuple(sorted((i, j, v) for (i, j), v in merged.items()))
    witness = SkewWitness(g, entries, g.n - total_rank, certified, seed)
    assert g.n - exact_rank(witness) == witness.achieved_nullity
    return witness


def principal_minors_psd(rows: list[list[int]]) -> bool:
    """A symmetric matrix is positive semidefinite exactly when every
    principal minor is nonnegative; each minor by Fraction elimination."""
    n = len(rows)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        m = [[Fraction(rows[i][j]) for j in idx] for i in idx]
        det = Fraction(1)
        for col in range(len(idx)):
            pivot = next((r for r in range(col, len(idx)) if m[r][col]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            for r in range(col + 1, len(idx)):
                f = m[r][col] / m[col][col]
                for c in range(col, len(idx)):
                    m[r][c] -= f * m[col][c]
        if det < 0:
            return False
    return True
