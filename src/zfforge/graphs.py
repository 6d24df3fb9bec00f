"""Immutable bitmask graphs: builders, operators, components, isomorphism, I/O.

Vertices are the integers 0..n-1.  Adjacency is one n-bit integer per vertex,
so every neighbourhood operation is a single machine-word bit operation for
the orders this package handles (capped at 64).  Vertex sets are plain ints
used as bitmasks throughout; ``mask_from`` and ``bits`` convert between masks
and vertex iterables.

Isomorphism is decided by individualisation-refinement: colour refinement
of the first graph, replayed on the second, then branching on one vertex of
the smallest non-trivial colour class with a refinement after every choice.
A "no" is an exhaustive proof; a "yes" returns one checked mapping, which
may be any isomorphism.  The components of the two graphs are matched up
first, so the search only runs on connected pairs.  One call may spend at most
``ISO_NODE_CAP`` individualisation nodes over all its pairs and raises
BudgetExceededError past it.  The isomorphism search itself has no
automorphism pruning, but the same machinery, run on a graph against
itself, lists its automorphism group (``automorphism_group``), which the
fort search in ``forcing`` branches on.

Product and join operators use row-major vertex order: the vertex (u, u') of
a product of g and h sits at index u * h.n + u', and a join places all of g
before all of h.  Certificates elsewhere in the package reference these
indices, so the ordering is part of the public contract.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Iterable, Iterator, Optional

ORDER_CAP = 64
ISO_NODE_CAP = 50_000  # individualisation nodes one is_isomorphic call may spend
AUT_GROUP_CAP = 5_040  # largest automorphism group listed element by element


class GraphError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    """A search would exceed its step budget."""


class Budget:
    """Step meter shared by the exponential searches.

    ``spend`` counts one step, or ``steps`` at once: a search may count its
    steps itself and spend them in one call, or all up to ``limit + 1`` at
    its first step past the limit.  That step raises BudgetExceededError
    naming ``what`` was being searched, which the search sets as it moves
    from one component to the next, and the steps spent.  The message is
    built only then, so a step does no string work.
    """

    __slots__ = ("limit", "spent", "what")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0
        self.what = "search"

    def spend(self, steps: int = 1) -> None:
        self.spent += steps
        if self.spent > self.limit:
            raise BudgetExceededError(
                f"{self.what} exhausted its budget after {self.spent} steps")


class UnknownGraphError(GraphError):
    """Requested named graph does not exist."""


class OrderCapError(GraphError):
    """Construction would exceed the 64-vertex bit-row cap."""


def _check_order(n: int) -> None:
    if not 0 <= n <= ORDER_CAP:
        raise OrderCapError(f"order {n} outside 0..{ORDER_CAP}")


def mask_from(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__``, gives defaults for its last
    fields in ``_defaults``, and checks a new record in ``__post_init__``,
    where it also stores the sequences it is given as tuples.
    Records of one class with equal fields are equal and hash alike; a field
    can be neither assigned nor deleted; pickles and copies are rebuilt
    through the constructor, so the checks run again; ``to_json`` writes each
    field by the rule in ``_json``, and a subclass overrides only what differs.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        fields = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or kwargs.keys() & names[:len(args)]
                or fields.keys() != set(names)):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, fields[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields of a new record; the base accepts any."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def to_json(self) -> dict:
        return {name: _json(getattr(self, name)) for name in self.__slots__}


def _json(value):
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


class Graph(Record):
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency rows.

    Rows are symmetric and irreflexive; both are checked at construction.
    The order is checked before ``adj`` is read, so an operator may pass its
    rows lazily and an order past the cap is refused before any row is built.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        _check_order(n)
        adj = tuple(adj)
        if len(adj) != n:
            raise GraphError(f"{len(adj)} adjacency rows for order {n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"row {v} has bits beyond vertex {n - 1}")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def to_json(self) -> str:
        return emit_graph6(self)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(row.bit_count() for row in self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def is_regular(self) -> Optional[int]:
        """The common degree when the graph is regular, else None."""
        if self.n == 0:
            return 0
        degs = {row.bit_count() for row in self.adj}
        return degs.pop() if len(degs) == 1 else None


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph of order ``n`` with ``edges``; the order is checked before ``edges`` is read."""
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


# ---------------------------------------------------------------------------
# named builders
# ---------------------------------------------------------------------------

def empty(n: int) -> Graph:
    return from_edges(n, ())


def path(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    return from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 0 or n < 0:
        raise GraphError(f"complete_bipartite parts need order >= 0, got {m} and {n}")
    return from_edges(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def circulant(n: int, offsets: Iterable[int]) -> Graph:
    if n < 1:
        raise GraphError("circulant needs at least 1 vertex")

    def edges():
        for s in offsets:
            if not 0 < s % n:
                raise GraphError(f"circulant offset {s} is 0 mod {n}")
            for i in range(n):
                yield i, (i + s) % n

    return from_edges(n, edges())


def grid_lattice(s: int) -> Graph:
    """Rook's graph on an s-by-s board: same row or same column is adjacent."""
    if s < 1:
        raise GraphError("grid_lattice needs s >= 1")
    return cartesian(complete(s), complete(s))


# Two 4-regular 10-vertex graphs with identical adjacency spectrum but
# different forcing behaviour: a 6-cycle 0..5 plus four inner vertices.
_FIG1_LEFT = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
              (6, 1), (6, 2), (6, 5), (6, 9),
              (7, 0), (7, 1), (7, 3), (7, 8),
              (8, 2), (8, 3), (8, 4),
              (9, 0), (9, 4), (9, 5)]
_FIG1_RIGHT = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
               (6, 0), (6, 1), (6, 3), (6, 9),
               (7, 1), (7, 2), (7, 5), (7, 8),
               (8, 2), (8, 3), (8, 4),
               (9, 0), (9, 4), (9, 5)]


def fig1_left() -> Graph:
    return from_edges(10, _FIG1_LEFT)


def fig1_right() -> Graph:
    return from_edges(10, _FIG1_RIGHT)


def ex32_g() -> Graph:
    """A 6-cycle plus one isolated vertex (7 vertices)."""
    return from_edges(7, [(i, (i + 1) % 6) for i in range(6)])


def ex32_gprime() -> Graph:
    """Spider: centre 0 with three legs 0-1-2, 0-3-4, 0-5-6."""
    return from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


_NAMED = {
    "path": (1, lambda p: path(p[0])),
    "cycle": (1, lambda p: cycle(p[0])),
    "complete": (1, lambda p: complete(p[0])),
    "empty": (1, lambda p: empty(p[0])),
    "complete_bipartite": (2, lambda p: complete_bipartite(p[0], p[1])),
    "grid_lattice": (1, lambda p: grid_lattice(p[0])),
    "fig1_left": (0, lambda p: fig1_left()),
    "fig1_right": (0, lambda p: fig1_right()),
    "ex32_G": (0, lambda p: ex32_g()),
    "ex32_Gprime": (0, lambda p: ex32_gprime()),
    # circulant takes n followed by any number of offsets
    "circulant": (None, lambda p: circulant(p[0], p[1:])),
}


def named_graphs() -> tuple[str, ...]:
    return tuple(sorted(_NAMED))


def build_named(name: str, *params: int) -> Graph:
    """Build one of the named fixture graphs; raises on unknown names or bad params."""
    if name not in _NAMED:
        raise UnknownGraphError(f"unknown graph name {name!r}; known: {', '.join(named_graphs())}")
    arity, fn = _NAMED[name]
    if arity is not None and len(params) != arity:
        raise GraphError(f"{name} takes {arity} parameter(s), got {len(params)}")
    if name == "circulant" and len(params) < 2:
        raise GraphError("circulant takes n followed by at least one offset")
    return fn(params)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _spread(g: Graph, width: int) -> Iterator[int]:
    """The rows of g, lazily, with bit v moved to bit v * width: row u marks
    the width-bit block of each neighbour of u in a product row."""
    return (sum([1 << v * width for v in bits(row)]) for row in g.adj)


def tensor(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product: (u,u') ~ (v,v') iff u~v and u'~v'."""
    # row (u, u') is h's row u' in the block of every v ~ u; an h row fits in
    # one block, so multiplying by the spread row places the copies without carries
    return Graph(g.n * h.n, (s * row for s in _spread(g, h.n) for row in h.adj))


def cartesian(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (u,u') ~ (v,v') iff u=v and u'~v', or u'=v' and u~v."""
    return Graph(g.n * h.n, (row << u * h.n | s << up for u, s in enumerate(_spread(g, h.n))
                             for up, row in enumerate(h.adj)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides; g comes first."""
    hfull = ((1 << h.n) - 1) << g.n
    gfull = (1 << g.n) - 1
    return Graph(g.n + h.n, chain((row | hfull for row in g.adj),
                                  (row << g.n | gfull for row in h.adj)))


def iterated_join(g: Graph, k: int) -> Graph:
    """k-fold self-join: 0 joins returns g itself."""
    if k < 0:
        raise GraphError("iterated_join needs k >= 0")
    out = g
    for _ in range(k):
        out = join(out, g)
    return out


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, chain(g.adj, (row << g.n for row in h.adj)))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, [(full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)])


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g; adjacent when they share an endpoint."""

    def rows():
        es = g.edges()
        incident = [0] * g.n
        for e, (u, v) in enumerate(es):
            incident[u] |= 1 << e
            incident[v] |= 1 << e
        for e, (u, v) in enumerate(es):
            yield (incident[u] | incident[v]) ^ 1 << e

    return Graph(g.m, rows())


def relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Apply a permutation: old vertex v becomes perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError(f"{tuple(perm)} is not a permutation of 0..{g.n - 1}")
    rows = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << perm[u]
        rows[perm[v]] = row
    return Graph(g.n, rows)


# ---------------------------------------------------------------------------
# components and induced subgraphs
# ---------------------------------------------------------------------------

def mask_components(adj, mask: int) -> list[int]:
    """Connected components of the subgraph induced on ``mask``, as masks."""
    comps = []
    rem = mask
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= adj[low.bit_length() - 1]
            nxt &= mask & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rem &= ~comp
    return comps


def components(g: Graph) -> list[int]:
    return mask_components(g.adj, g.full_mask)


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on the masked vertices plus the map from new to old indices
    (g itself, not a copy, for the whole vertex set)."""
    if mask & ~g.full_mask:  # also every negative mask, on which bits never ends
        raise GraphError(f"vertex mask {mask} has vertices outside 0..{g.n - 1}")
    if mask == g.full_mask:
        return g, tuple(range(g.n))
    verts = tuple(list(bits(mask)))
    pos = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for u in bits(g.adj[v] & mask):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(verts), rows), verts


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def _neighbour_lists(g: Graph) -> list[list[int]]:
    # Lists rather than tuples: CPython builds a tuple from a generator by
    # resizing it, and the resized tuples pile up on its free lists, about
    # 0.5 MB over the catalog's automorphism searches.
    return [list(bits(row)) for row in g.adj]


def _refine(nbrs: list[list[int]], colouring: list[int]) -> tuple[list, list[int]]:
    # Refine a colouring to an equitable one, keeping each round as (key ->
    # colour table, the new colours sorted) so that _search_mapping can refine
    # another graph by the same tables.  A discrete colouring is equitable
    # already: another round would only rename its colours in the same order.
    rounds = []
    ncolors = len(set(colouring))
    while True:
        keys = [(colouring[v], tuple(sorted([colouring[u] for u in nb])))
                for v, nb in enumerate(nbrs)]
        ordered = sorted(keys)
        table = {k: i for i, k in enumerate(dict.fromkeys(ordered))}
        colouring = [table[k] for k in keys]
        rounds.append((table, [table[k] for k in ordered]))
        if len(table) == ncolors or len(table) == len(nbrs):
            return rounds, colouring
        ncolors = len(table)


def _path(nbrs: list[list[int]], colouring: list[int]) -> list[tuple]:
    # g's side of every search, worked out once: the path of the tree that
    # gives the first vertex of each target cell a fresh colour.  Per level:
    # the refinement rounds, the equitable colouring, its target cell and
    # that fresh colour; the last level is discrete and has neither.
    path = []
    while True:
        rounds, colouring = _refine(nbrs, colouring)
        cell = _target_cell(colouring)
        path.append((rounds, colouring, cell, None if cell is None else max(colouring) + 1))
        if cell is None:
            return path
        colouring = colouring[:]
        colouring[cell[0]] = path[-1][3]


def _target_cell(colouring: list[int]) -> Optional[list[int]]:
    # The smallest non-singleton colour class (least colour on ties), in
    # vertex order; None when the colouring is discrete.
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colouring):
        cells.setdefault(c, []).append(v)
    if len(cells) == len(colouring):
        return None
    return min((cell for cell in cells.values() if len(cell) > 1),
               key=lambda cell: (len(cell), colouring[cell[0]]))


def is_isomorphic(g: Graph, h: Graph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Decide isomorphism by individualisation-refinement.

    Disjoint unions are isomorphic exactly when their components pair off
    isomorphically, so each component of g is matched to an unused
    component of h that is isomorphic to it, and the search only ever sees
    connected pairs.  For a pair, g's side is refined once: to an equitable
    colouring, then again each time the first vertex of its smallest
    non-singleton class gets a fresh colour, until it is discrete.  Each
    such vertex is tried against every vertex of the same class in h, and h
    is refined by the colour tables recorded on g's side after each choice;
    a key they lack, or a class of another size, ends the branch (McKay &
    Piperno, "Practical graph isomorphism, II", 2014).
    A discrete colouring fixes a mapping, which counts only if it carries
    every row of g onto the row of h.  A "no" is therefore an exhaustive
    proof, and a "yes" comes with a checked mapping; when several
    isomorphisms exist, the one returned is any of them.  Every
    individualisation spends one step of a Budget shared by all the pairs;
    past ``ISO_NODE_CAP`` steps the call raises BudgetExceededError.

    Returns (True, mapping) with mapping[v] the image of v, or (False, None).
    """
    if g.n != h.n or g.m != h.m:
        return False, None
    budget = Budget(ISO_NODE_CAP)
    unused = [(sub, verts, _neighbour_lists(sub))
              for sub, verts in (induced_subgraph(h, comp) for comp in components(h))]
    mapping = [0] * g.n
    for comp in components(g):
        sub, verts = induced_subgraph(g, comp)
        budget.what = f"isomorphism search on a component of order {sub.n}"
        path = _path(_neighbour_lists(sub), [0] * sub.n)
        for i, (sub_h, verts_h, nbrs_h) in enumerate(unused):
            found = _search_mapping(sub, sub_h, path, 0, nbrs_h, [0] * sub_h.n, budget)
            if found is not None:
                for v, w in zip(verts, found):
                    mapping[v] = verts_h[w]
                del unused[i]
                break
        else:
            return False, None
    return True, tuple(mapping)


def _search_mapping(g: Graph, h: Graph, path: list[tuple], depth: int, nbrs_h,
                    ch: list[int], budget: Budget) -> Optional[tuple[int, ...]]:
    # One node of the individualisation tree, at ``depth`` of g's path:
    # refine h's colouring by g's rounds, then branch.  A key of h missing
    # from g's table, or a colour class of another size, means no isomorphism
    # respects the colourings given.  Module-level rather than nested, so a
    # search leaves no reference cycle behind for the garbage collector.
    rounds, cg, cell, fresh = path[depth]
    for table, sorted_cg in rounds:
        try:
            ch = [table[(ch[v], tuple(sorted([ch[u] for u in nb])))]
                  for v, nb in enumerate(nbrs_h)]
        except KeyError:
            return None
        if sorted(ch) != sorted_cg:
            return None
    if cell is None:
        where = {c: w for w, c in enumerate(ch)}
        mapping = tuple([where[c] for c in cg])
        for v, row in enumerate(g.adj):
            if mask_from([mapping[u] for u in bits(row)]) != h.adj[mapping[v]]:
                return None
        return mapping
    color = cg[cell[0]]
    for w in (w for w, c in enumerate(ch) if c == color):
        budget.spend()
        ch2 = ch[:]
        ch2[w] = fresh
        found = _search_mapping(g, h, path, depth + 1, nbrs_h, ch2, budget)
        if found is not None:
            return found
    return None


def automorphism_group(g: Graph) -> list[bytes]:
    """Every automorphism of g, as permutations p with p[v] the image of v.

    A graph and its complement have the same automorphisms, so the sparser
    of the two is searched.  Generators come from one path of the
    individualisation tree: refine g from its degrees, individualise the
    first vertex of the target cell, and repeat until the colouring is
    discrete.  With v_i the vertex individualised at level i, the
    automorphisms that fix v_1..v_{i-1} form a chain of stabilisers that
    ends in the identity.  Levels are taken deepest first; at level i every
    vertex w of the target cell that the generators found so far (all of
    which fix v_1..v_{i-1}) do not already carry v_i to is tried by one
    isomorphism search of g onto itself, with v_i individualised on one
    side and w on the other; the searches replay this one path's
    refinements on the side of w.  Each mapping found is checked row by
    row.  The orbit sizes multiply to the group's order, and the
    generators are closed under composition into the full list, with the
    identity first.

    The answer is never an approximation.  When the order exceeds
    ``AUT_GROUP_CAP``, or the generator search spends more than its own
    Budget of ``ISO_NODE_CAP`` individualisations, only the identity is
    returned: the trivial subgroup, a group all the same.
    """
    n = g.n
    identity = bytes(range(n))
    if 4 * g.m > n * (n - 1):  # g and its complement, the sparser, share a group
        g = complement(g)
    nbrs = _neighbour_lists(g)
    path = _path(nbrs, [row.bit_count() for row in g.adj])
    budget = Budget(ISO_NODE_CAP)
    gens: list[bytes] = []
    order = 1
    try:
        for depth in reversed(range(len(path) - 1)):
            _rounds, colouring, cell, fresh = path[depth]
            v = cell[0]
            orbit = _orbit(v, gens)
            for w in cell:
                if w in orbit:
                    continue
                ch = colouring[:]
                ch[w] = fresh
                found = _search_mapping(g, g, path, depth + 1, nbrs, ch, budget)
                if found is not None:
                    gens.append(bytes(found))
                    orbit = _orbit(v, gens)
            order *= len(orbit)
            if order > AUT_GROUP_CAP:
                return [identity]
    except BudgetExceededError:
        return [identity]
    # s[p[v]] for every v is p.translate(s padded to a 256-byte table)
    tables = [s + bytes(range(n, 256)) for s in gens]
    group, seen = [identity], {identity}
    for p in group:  # grows while it is read: a breadth-first closure
        for table in tables:
            q = p.translate(table)
            if q not in seen:
                seen.add(q)
                group.append(q)
    return group


def _orbit(v: int, gens: list[bytes]) -> set[int]:
    orbit, todo = {v}, [v]
    while todo:
        u = todo.pop()
        for s in gens:
            if s[u] not in orbit:
                orbit.add(s[u])
                todo.append(s[u])
    return orbit


# ---------------------------------------------------------------------------
# I/O: graph6 and plain edge lists
# ---------------------------------------------------------------------------

def emit_graph6(g: Graph) -> str:
    """Standard graph6: size bytes then the upper triangle in column order."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    # column j is the bits of row j below j, lowest first
    stream = "".join([format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n)])
    stream += "0" * (-len(stream) % 6)
    return head + "".join([chr(63 + int(stream[p:p + 6], 2)) for p in range(0, len(stream), 6)])


def parse_graph6(text: str) -> Graph:
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise GraphError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise GraphError("unsupported graph6 size encoding")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    _check_order(n)  # here, not only in Graph: an over-cap header fails the body length first
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise GraphError("graph6 body has wrong length")
    for ch in body:
        if not "?" <= ch <= "~":
            raise GraphError(f"invalid graph6 character {ch!r}")
    stream = "".join([format(ord(ch) - 63, "06b") for ch in body])
    rows = [0] * n
    for j in range(1, n):
        # column j, bits i < j, sits at stream[j (j - 1) / 2:] lowest first
        rows[j] = col = int(stream[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        for i in bits(col):
            rows[i] |= 1 << j
    return Graph(n, rows)


def emit_edgelist(g: Graph) -> str:
    return "\n".join(f"{u} {v}" for u, v in g.edges())


def parse_edgelist(text: str, n: Optional[int] = None) -> Graph:
    """One "u v" pair per line, 0-indexed.

    The order is max index + 1 unless ``n`` is given, so graphs whose last
    vertex is isolated need an explicit ``n``.
    """
    edges = []
    top = -1
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge-list line {line!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        top = max(top, u, v)
    order = top + 1 if n is None else n
    return from_edges(order, edges)
