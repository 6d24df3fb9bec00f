"""Color-change rules, closures with certificates, exact minimum forcing sets.

Rules, over a blue set B with white = V minus B:

* standard: a blue vertex with exactly one white neighbour forces it.
* skew:     ANY vertex, blue or white, with exactly one white neighbour
            forces it.
* psd:      a blue vertex u forces a white neighbour w when w is the only
            white neighbour of u inside w's component of the white-induced
            subgraph.

The closure of an initial set is the unique fixed point of iterating a rule
(the rules are confluent, so firing order never changes the final set).  The
minimum size of a set whose closure is everything is the zero forcing number
for that rule: Z under standard, Z_minus under skew, Z_plus under psd.
The rules share one force condition, written once in ``_close``: they differ
only in who may act (the blue vertices, or every vertex under skew) and in
which white set the exactly-one test looks at (all white vertices, or the
target's white component under psd).  The fort search and the certificate
closure both call it.  It reads the graph from chunk tables, built once per
component solve, whose witness replay reuses them when the graph is its one
component, and once per other ``closure`` call: for every run of 8 vertices
and every subset of the run, the OR of the subset's rows and the set of
vertices with two or more neighbours in it, so a pass folds one entry per
run instead of one row per white vertex.  A psd pass folds the whole white
set first, as the other rules do: a blue vertex with one white neighbour
overall has one in that neighbour's component, so every force it finds is a
psd force, and white is split into components only when it finds none.

The solver takes each connected component as a graph of its own
(``graphs.induced_subgraph``, which gives a connected g itself) and sums the
component minima (all three parameters are additive over components; in
particular an isolated vertex always costs 1, since no rule lets anything
force a vertex with no neighbours).  A fort is the complement of a proper
closed set, and a set forces everything exactly when it meets every fort, so
each component minimum is a minimum hitting set of its forts (the fort cover
of Brimkov, Fast and Hicks, EJOR 2019).  Forts are generated lazily: a set
that fails to close is grown, one vertex at a time while it stays proper,
into a maximal closed set whose complement is a minimal fort.  A vertex
whose addition closes everything is essential to that growth: the closed set
only grows and every rule's closure is monotone, so a later closure that
turns an essential vertex blue ends full, and it stops there (``_close``'s
``stop``).  One depth-first branch and bound finds the minimum: the
incumbent, the smallest forcing set found so far, starts as the whole
component, and a node may pick only as many more vertices as keep its set
below the incumbent.  A node branches on the unhit fort with the fewest
allowed vertices, bans each vertex once tried, and runs the real closure at
every leaf; a leaf that closes becomes the incumbent.  On the last pick only
a vertex in every unhit fort can give a forcing set, so a node with one pick
left tries only those, returns at once if none is left unbanned, and bans
the others untried, as it would after a child that failed.  Each such child
is a leaf, closed by the node itself with the same two steps: its fort list
would be empty, and a leaf never reads its group.  The search stops
early when the incumbent meets its start bound, a proven lower bound: the
component's minimum degree delta (Z >= delta, Z_plus >= treewidth >= delta
and Z_minus >= delta - 1), or the nullity of the component's block of an
integer matrix with g's pattern, when the caller passes one and
``certify.matrix_nullity`` accepts it (Z >= M >= null(A) for a symmetric A,
Z_plus >= null(P) for a psd P, Z_minus >= null(K) for a skew K).
Otherwise it ends only when no smaller set survives, or, under the standard
rule, when the wavefront below proves the incumbent minimum, so every value
is decided by exhaustive proof or by a checked integer identity, and the
proof that nothing of size Z - 1 forces is made once.

Under the standard rule that proof comes from a second exhaustive search run
alongside, the wavefront of Butler et al. (the Sage Minimum Rank Library;
see Brimkov, Fast and Hicks): a Dijkstra search over closed sets from the
empty set.  From a closed set S at cost c, a move on v pays for v when it is
white and for all but one of its white neighbours, which v then forces: it
costs [v not in S] + max(|N(v) minus S| - 1, 0) and leads to the closure of
S with v and N(v).  The least cost at which the whole component is reached
is Z.  Moves that cost at least the incumbent's size are skipped, so
running out of cheaper moves proves the incumbent minimum.  A move whose
blue set is a closed set already reached needs no closure.  The wavefront
starts once the search holds an incumbent above delta, and advances by one
pop whenever its closures fall behind the search's own steps, so it spends
at most one pop's closures more than the search itself.  When it has
proved the minimum the search stops as soon as its incumbent meets it: the
search only ends earlier, on the set it would have returned anyway, so
values and witnesses are those of the fort search alone.  It runs for the
standard rule only: under skew a vertex with one white neighbour forces for
free and the moves multiply, and psd forces depend on white components.

The branching is orbital (Ostrowski, Linderoth, Rossi and Smriglio,
"Orbital branching", Math. Prog. 2011).  Each node carries a group of
automorphisms of the component that fix its chosen vertices one by one and
map its banned set onto itself.  The root's is the component's whole group
(``graphs.automorphism_group``); the child that adds v gets the elements of
its parent's group that fix v.  Once the child on v has failed, the node
bans v's whole orbit under its group, not v alone, and skips vertices that
are already banned.  The group is listed on demand: a node keeps the
vertices it bans in a pending list and bans their orbits just before it
tries its next child, and only then is the component's group listed (once
per component) and cut down to the pointwise stabiliser of the chosen
vertices, which is the node's group while nothing above it has banned.  A
solve that meets its bound on the first dive, or whose bans no later child
sees, lists no group.  This is sound because an automorphism p carries
forcing sets to forcing sets of the same size: a forcing set S that holds
the node's chosen vertices, avoids its banned set and contains p(v) gives
the forcing set p^-1(S), which still holds the chosen vertices (p fixes
them), still avoids the banned set (p maps it onto itself) and contains v,
so the failed child on v would have found it.  A banned set that grows by
whole orbits stays invariant, so the argument holds at every step.  It
needs each node's group to be closed under composition: the "orbits" of a
truncated list of elements are not orbits of anything, so a group past
``graphs.AUT_GROUP_CAP`` elements, or one whose generator search runs out
of budget, is replaced by the identity alone, never cut short.

Search effort is metered by one ``graphs.Budget`` per solve, set only by the
``budget`` argument: every closure evaluation and every branch node spends
one step, as does every closure the wavefront evaluates.  A component's
search counts its steps in a local variable and spends them from the Budget
when it ends, or at once at the first step past the budget, so no step
costs a call.  The budget is the solver's only limit:
no component is refused for its order.  The first step past it raises
BudgetExceededError naming the rule, the component's order and the steps
spent, never an approximation.  The automorphism group is found with a
budget of its own, so ``ZfResult.explored`` counts fort-search and wavefront
steps only.
Nothing is remembered between solves: every call searches from scratch.

Certificates use a deterministic tie-break so witnesses are byte-stable: at
every step the lexicographically least eligible (actor, target) pair fires.
The certificate format and its replay, ``ForcingCertificate`` and
``verify_certificate``, live in ``certify`` and are imported back here.
"""

from __future__ import annotations

from typing import Iterable, Union

from .certify import (ForcingCertificate, MatrixCertificate, Rule, matrix_nullity,
                      verify_certificate)
from .graphs import (Budget, BudgetExceededError, Graph, Record, automorphism_group, bits,
                     components, induced_subgraph, is_connected, join)

VertexSetLike = Union[int, Iterable[int]]


class ZfResult(Record):
    """Exact minimum, a replayable witness, and the search steps spent.

    The witness replays the union of the components' final incumbents.
    ``explored`` counts closure evaluations plus branch nodes of the fort
    search, and under the standard rule the wavefront's closure evaluations,
    summed over components; it is the budget the solve used.
    """

    __slots__ = ("value", "witness", "explored")


def _as_mask(initial: VertexSetLike, n: int) -> int:
    if isinstance(initial, int):
        mask, inside = initial, 0 <= initial < 1 << n
    else:
        vertices = set(initial)
        inside = all(0 <= v < n for v in vertices)
        mask = sum(1 << v for v in vertices) if inside else 0
    if not inside:
        raise ValueError("initial set contains vertices outside the graph")
    return mask


# ---------------------------------------------------------------------------
# the force condition, written once for all three rules
# ---------------------------------------------------------------------------

_CHUNK = 8  # vertices per chunk table: two lists of 256 entries each
_LOW = (1 << _CHUNK) - 1


def _chunk_tables(adj) -> list[tuple[list[int], list[int]]]:
    """Per run of ``_CHUNK`` vertices, ``(ors, twice)`` indexed by every subset
    b of the run: ``ors[b]`` is the OR of the rows of b, ``twice[b]`` the
    vertices with at least two neighbours in b.  Each run is built by
    doubling over its rows."""
    tables = []
    for start in range(0, len(adj), _CHUNK):
        ors, twice = [0], [0]
        for row in adj[start:start + _CHUNK]:
            twice += [t | o & row for t, o in zip(twice, ors)]
            ors += [o | row for o in ors]
        tables.append((ors, twice))
    return tables


def _close(tables, full, blue, skew, psd, trace=None, stop=0):
    """Closure of ``blue`` in the graph with chunk tables ``tables`` (see
    ``_chunk_tables``) and vertex mask ``full``.

    A pass folds a white region's chunk entries to get ``once`` (the
    vertices with a neighbour in the region) and ``twice`` (those with two
    or more).  The actors are ``once & ~twice``, only blue ones unless skew,
    and each forces its one neighbour in the region: the OR of the actors'
    entries, ANDed with the region, is every target at once.  A force legal
    at the start of a pass stays legal as white shrinks (psd components only
    split), so a pass fires them all.  A pass's region is the whole white
    set.  Under psd an actor then has one white neighbour overall, which is
    also its one neighbour in that neighbour's white component, so each
    force found is a psd force; a psd pass that fires nothing is repeated
    over each white component in turn, grown one breadth-first layer at a
    time.  Any other pass that fires nothing ends the closure.  With a
    ``trace`` list every psd pass takes the components, a pass fires only
    the lexicographically least (actor, target) pair, and appends it; an
    actor's row is its one-vertex entry.  A pass that turns a vertex of
    ``stop`` blue returns ``full`` at once: the caller's promise that such a
    closure ends full.
    """
    width, low = _CHUNK, _LOW
    traced = psd and trace is not None
    split = traced  # fold each white component, not the whole white set
    pairs = []
    while True:
        rest = full & ~blue
        newly = 0
        while rest:
            region = todo = rest & -rest if split else rest
            once = twice = 0
            while True:
                for ors, tw in tables:
                    b = todo & low
                    if b:
                        o = ors[b]
                        twice |= tw[b] | once & o
                        once |= o
                    todo >>= width
                    if not todo:
                        break
                if not split:
                    break
                todo = once & rest & ~region  # the component's next layer
                if not todo:
                    break
                region |= todo
            rest &= ~region
            actors = once & ~twice if skew else once & ~twice & blue
            if not actors:
                continue
            if trace is not None:
                for a in bits(actors):
                    row = tables[a // width][0][1 << a % width]
                    pairs.append((a, (row & region).bit_length() - 1))
            for ors, _tw in tables:
                newly |= ors[actors & low] & region
                actors >>= width
                if not actors:
                    break
        if pairs:
            trace.append(min(pairs))
            pairs.clear()
            newly = 1 << trace[-1][1]
        if not newly:
            if split or not psd:
                return blue
            split = True
            continue
        if newly & stop:
            return full
        blue |= newly
        split = traced


def closure(g: Graph, rule: Rule, initial: VertexSetLike, *,
            _tables=None) -> tuple[int, ForcingCertificate]:
    """Closure of the initial set, with a deterministic force-by-force trace.

    ``_tables`` is for the solver's witness replay only: g's chunk tables,
    already built for its search."""
    blue = _as_mask(initial, g.n)
    forces: list[tuple[int, int]] = []
    tables = _chunk_tables(g.adj) if _tables is None else _tables
    final = _close(tables, g.full_mask, blue, rule is Rule.SKEW, rule is Rule.PSD, forces)
    return final, ForcingCertificate(rule, bits(blue), forces)


# ---------------------------------------------------------------------------
# exact minimum search
# ---------------------------------------------------------------------------

def _lower_bound(g: Graph, rule: Rule) -> int:
    """Z >= delta, Z_plus >= tw >= delta and Z_minus >= delta - 1, with delta
    the minimum degree of g: the start bound of a component solve, unless a
    checked matrix certificate proves a larger one."""
    delta = min(row.bit_count() for row in g.adj)
    return max(delta - 1, 0) if rule is Rule.SKEW else delta


def _component_minimum(g: Graph, tables, rule: Rule, budget: Budget, bound: int) -> int:
    """Minimum forcing set of the connected graph g with chunk tables
    ``tables``, as a minimum hitting set of lazily generated forts, branching
    on automorphism orbits, stopped early by an incumbent of size ``bound``,
    a proven lower bound, and under the standard rule by the wavefront's
    proof of the minimum (see the module docstring); returns its mask."""
    budget.what = f"{rule.value} search on a component of order {g.n}"
    comp = g.full_mask
    skew, psd = rule is Rule.SKEW, rule is Rule.PSD
    forts: list[int] = []
    best = comp  # the incumbent: the smallest forcing set found so far
    whole = None  # g's automorphism group, listed when a ban first needs it
    # steps are counted here and spent from the budget once at the end; the
    # first step past room brings the budget to limit + 1 at once, and raises
    room, spent = budget.limit - budget.spent, 0
    waved = 0  # steps spent by the wavefront

    def minimal_fort(closed: int) -> int:
        # grow the proper closed set to a maximal one; its complement is a
        # minimal fort.  essential: the vertices whose addition closed
        # everything; closed only grows, so a closure that reaches one of
        # them ends full too
        nonlocal spent
        essential = 0
        todo = comp & ~closed
        while todo:
            low = todo & -todo
            todo ^= low
            spent += 1
            if spent > room:
                budget.spend(room + 1)
            grown = _close(tables, comp, closed | low, skew, psd, stop=essential)
            if grown == comp:
                essential |= low
            else:
                closed = grown
                todo &= ~grown
        return comp & ~closed

    def wavefront():
        # Dijkstra over closed sets, one pop per next(); ends once it proves
        # the minimum, which it leaves in bound.  Every move costs at least
        # 1, so queue[c] is complete once the pops reach it.
        nonlocal bound, spent, waved
        adj = g.adj
        reached = {0: 0}  # closed set -> the least cost it was reached at
        queue = [[0]] + [[] for _ in range(g.n)]  # [c]: the closed sets reached at cost c
        found = comp.bit_count()  # the least cost at which a move closed comp
        for c, level in enumerate(queue):
            for closed in level:
                top = min(found, best.bit_count())
                if c + 1 >= top:  # no move from here costs less than top
                    bound = top
                    return
                if reached[closed] < c:
                    continue
                white = comp & ~closed
                moves = {}  # the set a move makes blue -> its least cost
                for v, row in enumerate(adj):
                    hit = row & white
                    if closed >> v & 1:  # blue: pay all but one white neighbour
                        if not hit:
                            continue
                        cost = c + hit.bit_count() - 1
                        grown = closed | hit
                    else:  # white: pay v too
                        cost = c + (hit.bit_count() or 1)
                        grown = closed | hit | 1 << v
                    if cost < moves.get(grown, top):
                        moves[grown] = cost
                for grown, cost in moves.items():
                    if cost >= found:
                        continue
                    if grown not in reached:  # else it is closed already
                        spent += 1
                        waved += 1
                        if spent > room:
                            budget.spend(room + 1)
                        grown = _close(tables, comp, grown, False, False)
                    if grown == comp:
                        found = cost
                    elif cost < reached.get(grown, top):
                        reached[grown] = cost
                        queue[cost].append(grown)
                yield True
        bound = min(found, best.bit_count())

    def search(chosen: int, depth: int, banned: int, unhit: list[int],
               group: list[bytes] | None) -> bool:
        # unhit: the known forts that miss chosen.  Every fort found below
        # this node misses chosen too, so it is appended here on the way back.
        # group: automorphisms of the component that fix chosen pointwise
        # and map banned onto itself; None while not listed, and then banned
        # is empty and the group is all of chosen's pointwise stabiliser.
        # Returns True once the incumbent meets the lower bound.
        nonlocal best, whole, spent, wave
        left = best.bit_count() - 1 - depth  # picks that stay below the incumbent
        if left < 0:
            return False
        spent += 1 if unhit else 2  # the node, and the closure of a leaf
        if spent > room:
            budget.spend(room + 1)
        if wave and best != comp and 2 * waved < spent and not next(wave, False):
            wave = None  # the wavefront has proved the bound
            if best.bit_count() == bound:
                return True
        if not unhit:
            closed = _close(tables, comp, chosen, skew, psd)
            if closed == comp:
                best = chosen
                return depth == bound
            forts.append(minimal_fort(closed))
            unhit.append(forts[-1])
        if left == 0:
            return False
        symmetric = group is None or len(group) > 1  # else the identity alone
        common = comp  # on the last pick: the vertices in every unhit fort
        if left == 1:
            for f in unhit:
                common &= f
            if not common & ~banned:
                return False
        if left == 1 and not symmetric:
            allowed = common & ~banned
        else:
            free = ~banned
            allowed = min([f & free for f in unhit], key=int.bit_count)
            if not allowed:
                return False
        pending = []  # vertices banned here whose orbits are not banned yet
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            if banned & low:  # in the orbit of a vertex already tried
                continue
            if common & low:  # else a last pick that misses a fort: banned untried
                if pending:  # ban their orbits before the next child
                    if group is None:
                        if whole is None:
                            whole = automorphism_group(g)
                        group = whole
                        for u in bits(chosen):  # chosen's pointwise stabiliser
                            group = [p for p in group if p[u] == u]
                    for u in pending:
                        for p in group:
                            banned |= 1 << p[u]
                    pending.clear()
                    if banned & low:
                        continue
                if left > 1:
                    known = len(forts)
                    v = low.bit_length() - 1
                    stabiliser = (group if group is None or not symmetric
                                  else [p for p in group if p[v] == v])
                    if search(chosen | low, depth + 1, banned,
                              [f for f in unhit if not f & low], stabiliser):
                        return True
                    unhit.extend(forts[known:])
                elif best.bit_count() > depth + 1:  # else no child stays below the incumbent
                    # the child on v is a leaf, closed here with its two
                    # steps: v is in every unhit fort, so its list is empty
                    spent += 2
                    if spent > room:
                        budget.spend(room + 1)
                    closed = _close(tables, comp, chosen | low, skew, psd)
                    if closed == comp:
                        best = chosen | low
                        if depth + 1 == bound:
                            return True
                    else:
                        forts.append(minimal_fort(closed))
                        unhit.append(forts[-1])
                        common &= forts[-1]
            banned |= low
            if symmetric:
                pending.append(low.bit_length() - 1)
        return False

    wave = wavefront() if rule is Rule.STANDARD else None
    search(0, 0, 0, [], None)
    del search, wave  # search refers to itself: free its forts now, not at a later collection
    budget.spend(spent)
    return best


def zero_forcing_number(g: Graph, rule: Rule, *, budget: int = 10 ** 8,
                        lower_bound: MatrixCertificate | None = None) -> ZfResult:
    """Exact minimum forcing-set size with witness certificate.

    Searches each connected component as a graph of its own, and a
    connected g as itself: the parameter is additive over components.  All
    components spend from one Budget of ``budget`` search steps, the
    solver's only limit; a budget below 1 is a ValueError.

    A ``lower_bound`` matrix is checked by ``certify.matrix_nullity`` on
    every component, and a failed check (a kind that does not bound the
    rule included) raises its ValueError.  Each component's search then
    starts from the larger of its degree bound and its block's nullity, so
    it stops at its first incumbent of that size, the set it would have
    returned anyway: the value and witness are those of the plain solve.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    state = Budget(budget)
    initial, tables = 0, None  # g's tables, when g is its one component
    for comp in components(g):
        sub, verts = induced_subgraph(g, comp)
        sub_tables = _chunk_tables(sub.adj)
        if sub is g:
            tables = sub_tables
        bound = _lower_bound(sub, rule)
        if lower_bound is not None:
            bound = max(bound, matrix_nullity(g, lower_bound, rule, comp))
        for i in bits(_component_minimum(sub, sub_tables, rule, state, bound)):
            initial |= 1 << verts[i]

    final, cert = closure(g, rule, initial, _tables=tables)
    if final != g.full_mask:
        raise AssertionError("solver witness failed deterministic replay")
    return ZfResult(initial.bit_count(), cert, state.spent)


def zf_join_formula_check(g: Graph, h: Graph, rule: Rule) -> bool:
    """Compare the exact solver on join(g, h) against the join formula

        value(g v h) = min(|V(g)| + value(h), |V(h)| + value(g))

    for the standard and skew rules (both require connected inputs).
    """
    if rule not in (Rule.STANDARD, Rule.SKEW):
        raise ValueError("join formula applies to the standard and skew rules only")
    if not is_connected(g) or not is_connected(h):
        raise ValueError("join formula check needs connected inputs")
    joined = join(g, h)
    lhs = zero_forcing_number(joined, rule).value
    rhs = min(g.n + zero_forcing_number(h, rule).value,
              h.n + zero_forcing_number(g, rule).value)
    return lhs == rhs
