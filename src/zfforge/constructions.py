"""Cospectral-pair constructions: partition switching and product/join families.

The central tool is partition switching (``gm_switch``): given a partition
{X1..Xl, Y} of the vertices where each part induces a constant-degree
pattern against every part and every outside vertex sees 0, half, or all of
each part, complementing the half-neighbourhoods yields a graph with the
same adjacency spectrum.  Everything else in this module assembles inputs
for which switching (or a join/product identity) provably separates zero
forcing behaviour while preserving a spectrum:

* ``theorem51_build``      join one seed with a long path, leave the other as
                           a spare component, and switch the union of seeds.
* ``regular_construction`` a 2k-regular graph on 6k vertices built from a
                           circulant core plus clique/coclique blocks,
                           switched over the core and the clique.
* ``corollary52_family``   torus pairs whose forcing gap grows linearly while
                           the switched pair stays cospectral.
* ``tensor_family``        tensor with a complete graph, scaling a skew
                           forcing difference while keeping cospectrality.
* ``join_family``          join with a complete graph, shifting forcing
                           numbers by r while keeping Laplacian cospectrality.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from . import graphs
from .graphs import (Graph, Record, bits, cartesian, complete, cycle, disjoint_union,
                     emit_graph6, fig1_left, fig1_right, is_connected,
                     is_isomorphic, join, mask_from, path)
from .forcing import Rule, zero_forcing_number
from .spectra import MatrixKind, cospectral
from .skew_rank import max_nullity_witness_search


class PreconditionError(ValueError):
    """One or more construction preconditions failed; lists each violation."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# ---------------------------------------------------------------------------
# switching partitions
# ---------------------------------------------------------------------------

class SwitchingPartition(Record):
    """The parts X1..Xl checked against one graph: per-part cross counts,
    per-outside-vertex counts, and every violated condition.

    ``part_counts[i][j]`` is the number of neighbours in part j of a vertex
    of part i; ``outside_counts`` holds (vertex, counts per part) pairs.
    """

    __slots__ = ("part_counts", "outside_counts", "issues")

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "part_counts": [list(row) for row in self.part_counts],
                "outside_counts": {str(v): list(c) for v, c in self.outside_counts},
                "issues": list(self.issues)}


def switching_partition(g: Graph, parts: Sequence[int]) -> SwitchingPartition:
    """Check {X1..Xl, Y} against the switching conditions on ``g``.

    Needed: the parts are disjoint and nonempty; for all i, j the number of
    part-j neighbours of a part-i vertex is constant over part i; and every
    outside vertex sees 0, half, or all of each part.
    """
    issues: list[str] = []
    union = 0
    for idx, part in enumerate(parts):
        if part == 0:
            issues.append(f"part {idx} is empty")
        if part & union:
            issues.append(f"part {idx} overlaps an earlier part")
        if part & ~g.full_mask:
            issues.append(f"part {idx} has vertices outside the graph")
        union |= part

    part_counts = []
    for i, pi in enumerate(parts):
        row: list[Optional[int]] = []
        for j, pj in enumerate(parts):
            counts = {(g.adj[v] & pj).bit_count() for v in bits(pi & g.full_mask)}
            if len(counts) > 1:
                issues.append(f"part {i} vertices disagree on neighbours in part {j}")
            row.append(counts.pop() if len(counts) == 1 else None)
        part_counts.append(tuple(row))

    outside = []
    for y in bits(g.full_mask & ~union):
        counts = tuple((g.adj[y] & p).bit_count() for p in parts)
        outside.append((y, counts))
        for j, c in enumerate(counts):
            size = parts[j].bit_count()
            if c not in (0, size) and 2 * c != size:
                issues.append(f"vertex {y} has {c} neighbours in part {j} of size {size}")

    return SwitchingPartition(tuple(part_counts), tuple(outside), tuple(issues))


def gm_switch(g: Graph, parts: Sequence[int]) -> Graph:
    """Complement every half-neighbourhood of outside vertices against the parts.

    The parts (vertex masks X1..Xl) are checked once, on ``g`` itself.
    Raises PreconditionError (naming the offending vertex or part) when they
    fail the switching conditions.
    """
    partition = switching_partition(g, parts)
    if not partition.ok:
        raise PreconditionError(partition.issues)
    rows = list(g.adj)
    for part in parts:
        size = part.bit_count()
        for y, _counts in partition.outside_counts:
            inside = rows[y] & part
            if inside and 2 * inside.bit_count() == size:
                flipped = part & ~inside
                rows[y] = (rows[y] & ~part) | flipped
                for x in bits(inside):
                    rows[x] &= ~(1 << y)
                for x in bits(flipped):
                    rows[x] |= 1 << y
    return Graph(g.n, rows)


def planted_switching_instance(rng: random.Random, n_min: int = 6, n_max: int = 12
                               ) -> tuple[Graph, tuple[int, ...]]:
    """Random graph with a planted valid switching coclique, for property tests."""
    n = rng.randint(n_min, n_max)
    half = rng.randint(1, 2)
    size = 2 * half
    verts = rng.sample(range(n), size)
    xmask = mask_from(verts)
    edges = []
    outside = [v for v in range(n) if not xmask >> v & 1]
    for a in range(len(outside)):
        for b in range(a + 1, len(outside)):
            if rng.random() < 0.5:
                edges.append((outside[a], outside[b]))
    for y in outside:
        mode = rng.choice(("none", "half", "all"))
        if mode == "none":
            chosen = []
        elif mode == "all":
            chosen = verts
        else:
            chosen = rng.sample(verts, half)
        edges.extend((y, x) for x in chosen)
    g = graphs.from_edges(n, edges)
    return g, (xmask,)


# ---------------------------------------------------------------------------
# construction pairs
# ---------------------------------------------------------------------------

class Expected(Record):
    # tag is "paper" for values carried by the source claims, "derived" otherwise
    __slots__ = ("name", "value", "tag")
    to_json = Record._as_dict


class ConstructionPair(Record):
    # parts are the switching parts g_prime was switched over
    __slots__ = ("g", "g_prime", "provenance", "params", "expected", "parts")
    _defaults = {"expected": (), "parts": ()}

    def __post_init__(self) -> None:
        if self.g.n != self.g_prime.n:
            raise ValueError("construction pairs must have equal order")

    def to_json(self) -> dict:
        out = {"provenance": self.provenance,
               "params": dict(self.params),
               "g": emit_graph6(self.g),
               "g_prime": emit_graph6(self.g_prime),
               "expected": [e.to_json() for e in self.expected]}
        if self.parts:
            out["switching_parts"] = [sorted(bits(p)) for p in self.parts]
        return out


def theorem51_build(g1: Optional[Graph] = None, g2: Optional[Graph] = None,
                    m: Optional[int] = None) -> ConstructionPair:
    """Pair ((g1 v P_m) u g2, switched) from two cospectral regular seeds.

    The union of the two seed vertex sets is a switching set of the first
    graph (every path vertex sees exactly half of it), and switching swaps
    which seed carries the path.  Defaults to the smallest valid seeds, the
    two built-in 10-vertex 4-regular graphs, with m = 10.
    """
    g1 = fig1_left() if g1 is None else g1
    g2 = fig1_right() if g2 is None else g2
    m = g1.n if m is None else m

    problems = []
    if not is_connected(g1):
        problems.append("g1 is not connected")
    if not is_connected(g2):
        problems.append("g2 is not connected")
    d1, d2 = g1.is_regular(), g2.is_regular()
    if d1 is None:
        problems.append("g1 is not regular")
    if d2 is None:
        problems.append("g2 is not regular")
    if d1 is not None and d2 is not None and d1 != d2:
        problems.append(f"degrees differ ({d1} vs {d2})")
    if g1.n != g2.n:
        problems.append(f"orders differ ({g1.n} vs {g2.n})")
    elif not cospectral(g1, g2, MatrixKind.ADJACENCY):
        problems.append("seeds are not adjacency-cospectral")
    if m < g1.n:
        problems.append(f"m = {m} is smaller than the seed order {g1.n}")
    if problems:
        raise PreconditionError(problems)

    n = g1.n
    g_prime = disjoint_union(join(g1, path(m)), g2)
    xmask = mask_from(range(n)) | mask_from(range(n + m, 2 * n + m))
    return ConstructionPair(
        g=g_prime,
        g_prime=gm_switch(g_prime, [xmask]),
        provenance="theorem51",
        params=(("n", n), ("m", m)),
        expected=(),
        parts=(xmask,),
    )


def torus_zero_forcing(s: int, t: int) -> int:
    """Closed form for the standard forcing number of a torus C_s box C_t."""
    if not 3 <= s <= t:
        raise ValueError("torus formula needs 3 <= s <= t")
    return 2 * s - 1 if s == t and s % 2 else 2 * s


class Corollary52Report(Record):
    __slots__ = ("c", "order", "z_first", "z_second", "gap", "g1", "g2", "skipped")

    def to_json(self) -> dict:
        return {"c": self.c, "order": self.order,
                "z_first": self.z_first, "z_second": self.z_second, "gap": self.gap,
                "g1": emit_graph6(self.g1) if self.g1 is not None else None,
                "g2": emit_graph6(self.g2) if self.g2 is not None else None,
                "assembled": None,  # never fits the order cap; the key stays in the report
                "skipped": self.skipped}


def corollary52_family(c: int) -> Corollary52Report:
    """Torus pair (C4 box C_{c^2}, C_2c box C_2c) and its forcing gap 4c - 8.

    The ingredient graphs are built whenever they fit the order cap; the
    fully assembled pair needs 3 times their order, beyond the cap for every
    c >= 3, so the report carries the parameters and the gap instead.
    """
    if c < 3:
        raise ValueError("corollary52_family needs c >= 3")
    order = 4 * c * c
    z1 = torus_zero_forcing(4, c * c)
    z2 = torus_zero_forcing(2 * c, 2 * c)
    g1 = g2 = None
    if order <= graphs.ORDER_CAP:
        g1 = cartesian(cycle(4), cycle(c * c))
        g2 = cartesian(cycle(2 * c), cycle(2 * c))
    skipped = (f"assembled pair would need order {3 * order} > cap "
               f"{graphs.ORDER_CAP}")
    return Corollary52Report(c, order, z1, z2, z2 - z1, g1, g2, skipped)


# ---------------------------------------------------------------------------
# the 6k-vertex regular construction
# ---------------------------------------------------------------------------

def circulant_h(k: int) -> Graph:
    """The k-regular circulant core on 3k - 1 vertices: i ~ i + k .. i + 2k - 1."""
    if k < 2:
        raise ValueError("circulant core needs k >= 2")
    return graphs.circulant(3 * k - 1, range(k, 2 * k))


def h_witness_set(k: int) -> tuple[int, ...]:
    """The canonical minimum forcing set {0} u {2, ..., 2k - 2} of the core."""
    return (0,) + tuple(range(2, 2 * k - 1))


def regular_construction(k: int) -> ConstructionPair:
    """2k-regular cospectral pair on 6k vertices with different forcing numbers.

    Blocks, in vertex order: the circulant core H (0 .. 3k-2), a clique
    a_0..a_k, a coclique b_0..b_k, a coclique c_1..c_{k-1}.  Cross edges:

      (i)   a_i ~ b_j for j != i
      (ii)  c_i ~ 0 and c_i ~ j for j in k .. 3k-2
      (iii) b_i ~ j for i < k and j in 1 .. k-1;  b_k ~ j for j in 2k .. 3k-2
      (iv)  b_i ~ k+i-1 for 1 <= i <= k;  b_0 ~ 0

    Rule (ii) is the unique reading that makes the result 2k-regular.  The
    constructor enforces 2k-regularity as a hard postcondition, and
    ``gm_switch`` rejects an invalid switching set (core plus clique), so
    any drift fails loudly.
    """
    if k < 2:
        raise ValueError("regular_construction needs k >= 2")
    if 6 * k > graphs.ORDER_CAP:
        raise graphs.OrderCapError(f"order {6 * k} exceeds cap {graphs.ORDER_CAP}")
    nh = 3 * k - 1
    a = {i: nh + i for i in range(k + 1)}
    b = {i: nh + (k + 1) + i for i in range(k + 1)}
    c = {i: nh + 2 * (k + 1) + (i - 1) for i in range(1, k)}

    edges = [(i, (i + d) % nh) for i in range(nh) for d in range(k, 2 * k)]
    edges += [(a[i], a[j]) for i in range(k + 1) for j in range(i + 1, k + 1)]
    edges += [(a[i], b[j]) for i in range(k + 1) for j in range(k + 1) if i != j]
    for i in range(1, k):
        edges.append((c[i], 0))
        edges.extend((c[i], j) for j in range(k, nh))
    for i in range(k):
        edges.extend((b[i], j) for j in range(1, k))
    edges.extend((b[k], j) for j in range(2 * k, nh))
    edges.extend((b[i], k + i - 1) for i in range(1, k + 1))
    edges.append((b[0], 0))

    g = graphs.from_edges(6 * k, edges)

    if g.is_regular() != 2 * k:
        raise AssertionError(f"construction for k={k} is not {2 * k}-regular")
    xmask = mask_from(range(nh)) | mask_from(a.values())
    g_prime = gm_switch(g, [xmask])
    expected = (Expected("Z(g)", 4 * k - 2, "paper"),
                Expected("Z(g_prime)_upper_bound", 4 * k - 3, "paper"),
                Expected("Z(core)", 2 * k - 2, "paper"))
    return ConstructionPair(g, g_prime, "regular6k", (("k", k),), expected, (xmask,))


# ---------------------------------------------------------------------------
# product and join families
# ---------------------------------------------------------------------------

class TensorFamilyResult(Record):
    __slots__ = ("graph", "base", "r", "z_minus_base", "witness", "expected")

    def to_json(self) -> dict:
        return {"graph": emit_graph6(self.graph),
                "base": emit_graph6(self.base),
                "r": self.r,
                "z_minus_base": self.z_minus_base,
                "witness": self.witness.to_json(),
                "expected": [e.to_json() for e in self.expected]}


def tensor_family(g: Graph, r: int, *, witness_budget: int = 4000,
                  seed: int = 0) -> TensorFamilyResult:
    """Tensor g with a complete graph K_r; expected forcing values scale as

        (r - 2) |V(g)| + 2 Z_minus(g)

    for both the standard and the skew rule.  Requires r >= 3 and that the
    maximum skew nullity of g provably equals Z_minus(g), which is certified
    by a witness whose nullity meets the solver value.
    """
    if r < 3:
        raise PreconditionError(["tensor family needs r >= 3"])
    product = graphs.tensor(g, complete(r))  # past the order cap: raise before any solve
    z_minus = zero_forcing_number(g, Rule.SKEW).value
    witness = max_nullity_witness_search(g, budget=witness_budget, seed=seed)
    if witness.achieved_nullity != z_minus:
        raise PreconditionError(
            [f"maximum skew nullity is not established: best witness nullity "
             f"{witness.achieved_nullity} != Z_minus {z_minus}"])
    value = (r - 2) * g.n + 2 * z_minus
    expected = (Expected("Z(product)", value, "paper"),
                Expected("Z_minus(product)", value, "paper"))
    return TensorFamilyResult(product, g, r, z_minus, witness, expected)


def join_family(g1: Graph, g2: Graph, r: int) -> ConstructionPair:
    """Join both inputs with K_r: Laplacian cospectrality is preserved and
    every forcing number shifts by exactly r.  Requires connected inputs that
    are Laplacian-cospectral with differing standard or skew forcing numbers.
    """
    problems = []
    if r < 1:
        problems.append("join family needs r >= 1")
    if not is_connected(g1):
        problems.append("g1 is not connected")
    if not is_connected(g2):
        problems.append("g2 is not connected")
    if g1.n != g2.n or not cospectral(g1, g2, MatrixKind.LAPLACIAN):
        problems.append("inputs are not Laplacian-cospectral")
    if problems:
        raise PreconditionError(problems)
    kr = complete(r)
    joins = join(g1, kr), join(g2, kr)  # past the order cap: raise before any solve
    z1 = zero_forcing_number(g1, Rule.STANDARD).value
    z2 = zero_forcing_number(g2, Rule.STANDARD).value
    zm1 = zero_forcing_number(g1, Rule.SKEW).value
    zm2 = zero_forcing_number(g2, Rule.SKEW).value
    if z1 == z2 and zm1 == zm2:
        raise PreconditionError(["inputs do not differ in standard or skew forcing number"])
    expected = (Expected("Z(g1_join)", r + z1, "paper"),
                Expected("Z(g2_join)", r + z2, "paper"),
                Expected("Z_minus(g1_join)", r + zm1, "paper"),
                Expected("Z_minus(g2_join)", r + zm2, "paper"))
    return ConstructionPair(*joins, "join-family",
                            (("r", r), ("n", g1.n)), expected)


# ---------------------------------------------------------------------------
# rook's grid vs its switched mate
# ---------------------------------------------------------------------------

def grid_diagonal_part(s: int = 4) -> int:
    """The diagonal transversal {(i, i)} of the s-by-s rook's graph, as a mask."""
    return mask_from(i * s + i for i in range(s))


def shrikhande() -> Graph:
    """Switch the 4x4 rook's graph over its diagonal coclique."""
    return gm_switch(graphs.grid_lattice(4), [grid_diagonal_part(4)])


class GridShrikhandeReport(Record):
    __slots__ = ("r", "zplus_grid", "zplus_switched", "adjacency_cospectral", "isomorphic",
                 "product_upper_bound", "product_lower_bound", "separation_holds")
    to_json = Record._as_dict


def grid_shrikhande_report(r: int, zplus_grid: int, zplus_switched: int) -> GridShrikhandeReport:
    """PSD forcing separation for (rook's grid) box K_r, by bound arithmetic.

    ``zplus_grid`` and ``zplus_switched`` are the exact psd forcing numbers of
    the two 16-vertex ingredients, solved by the caller with
    ``zero_forcing_number``; the 16r-vertex products are far beyond exact
    search, so the separation uses the product bounds
        upper(switched) = min(r * zplus_switched, 16 (r - 1))
        lower(grid)     = zplus_grid * (r - 1)
    which separate exactly when r >= 11.
    """
    if r < 11:
        raise ValueError("the product separation needs r >= 11")
    grid = graphs.grid_lattice(4)
    mate = shrikhande()
    upper = min(r * zplus_switched, 16 * (r - 1))
    lower = zplus_grid * (r - 1)
    iso, _ = is_isomorphic(grid, mate)
    return GridShrikhandeReport(
        r=r,
        zplus_grid=zplus_grid,
        zplus_switched=zplus_switched,
        adjacency_cospectral=cospectral(grid, mate, MatrixKind.ADJACENCY),
        isomorphic=iso,
        product_upper_bound=upper,
        product_lower_bound=lower,
        separation_holds=upper < lower,
    )
