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
closure both call it.

The solver takes each connected component as a graph of its own
(``graphs.induced_subgraph``) and sums the component minima (all three
parameters are additive over components; in particular an isolated vertex
always costs 1, since no rule lets anything force a vertex with no
neighbours).  A fort is the complement of a proper closed set, and a
set forces everything exactly when it meets every fort, so each component
minimum is a minimum hitting set of its forts (the fort cover of Brimkov,
Fast and Hicks, EJOR 2019).  Forts are generated lazily: a set that fails to
close is grown, one vertex at a time while it stays proper, into a maximal
closed set whose complement is a minimal fort.  A vertex whose addition
closes everything is essential to that growth: the closed set only grows
and every rule's closure is monotone, so a later closure that turns an
essential vertex blue ends full, and it stops there (``_close``'s
``stop``).  One depth-first branch and bound finds the minimum: the
incumbent, the smallest forcing set found so far, starts as the whole
component, and a node may pick only as many more vertices as keep its set
below the incumbent.  A node branches on the unhit fort with the fewest
allowed vertices, bans each vertex once tried, and runs the real closure at
every leaf; a leaf that closes becomes the incumbent.  On the last pick
only a vertex in every unhit fort can give a forcing set, so a node with
one pick left tries only those, and bans the others untried, as it would
after a child that failed.  The search stops early when the incumbent meets the proven
lower bound in the component's minimum degree delta: Z >= delta,
Z_plus >= treewidth >= delta and Z_minus >= delta - 1.  Otherwise it ends
only when no smaller set survives, so every value is decided by exhaustive
proof, and the proof that nothing of size Z - 1 forces is made once.

The branching is orbital (Ostrowski, Linderoth, Rossi and Smriglio,
"Orbital branching", Math. Prog. 2011).  Each node carries a group of
automorphisms of the component that fix its chosen vertices one by one and
map its banned set onto itself.  The root's is the component's whole group
(``graphs.automorphism_group``); the child that adds v gets the elements of
its parent's group that fix v.  Once the child on v has failed, the node
bans v's whole orbit under its group, not v alone, and skips vertices that
are already banned.  This is sound because an automorphism p carries
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
one step.  The budget is the solver's only limit: no component is refused
for its order.  The first step past it raises BudgetExceededError naming
the rule, the component's order and the steps spent, never an
approximation.  The automorphism group is found with a budget of its own, so
``ZfResult.explored`` counts fort-search steps only.
Nothing is remembered between solves: every call searches from scratch.

Certificates use a deterministic tie-break so witnesses are byte-stable: at
every step the lexicographically least eligible (actor, target) pair fires.
"""

from __future__ import annotations

import enum
from typing import Iterable, Union

from .graphs import (Budget, BudgetExceededError, Graph, Record, automorphism_group, bits,
                     components, induced_subgraph, is_connected, join)

VertexSetLike = Union[int, Iterable[int]]


class Rule(enum.Enum):
    STANDARD = "standard"
    SKEW = "skew"
    PSD = "psd"


def rule_from_name(name: str) -> Rule:
    try:
        return Rule(name.lower())
    except ValueError:
        raise ValueError(f"rule must be standard, skew or psd; got {name!r}") from None


class ForcingCertificate(Record):
    """Replayable trace: initial blue vertices plus ordered (actor, target) forces."""

    __slots__ = ("rule", "initial", "forces")

    def to_json(self) -> dict:
        return {"rule": self.rule.value,
                "initial": list(self.initial),
                "forces": [list(f) for f in self.forces]}

    @classmethod
    def from_json(cls, data: dict) -> "ForcingCertificate":
        return cls(Rule(data["rule"]),
                   tuple(data["initial"]),
                   tuple((a, t) for a, t in data["forces"]))


class ZfResult(Record):
    """Exact minimum, a replayable witness, and the search steps spent.

    The witness replays the union of the components' final incumbents.
    ``explored`` counts closure evaluations plus branch nodes of the fort
    search, summed over components; it is the budget the solve used.
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

def _close(adj, full, blue, skew, psd, trace=None, stop=0):
    """Closure of ``blue`` in the graph with rows ``adj`` and vertex mask ``full``.

    A pass takes the white regions in turn: all white vertices, or under psd
    each white component, grown by the same loop that ORs the region's rows
    into ``once`` (the vertices with a neighbour in the region) and ``twice``
    (those with two or more).  The actors are ``once & ~twice``, only blue
    ones unless skew, and each forces its one neighbour in the region.  A
    force legal at the start of a pass stays legal as white shrinks (psd
    components only split), so a pass fires them all; a pass that fires
    nothing ends the closure.  With a ``trace`` list a pass fires only the
    lexicographically least (actor, target) pair, and appends it.  A pass
    that turns a vertex of ``stop`` blue returns ``full`` at once: the
    caller's promise that such a closure ends full.
    """
    while True:
        rest = full & ~blue
        newly, pairs = 0, []
        while rest:
            region = rest & -rest if psd else rest
            todo, once, twice = region, 0, 0
            while todo:
                low = todo & -todo
                todo ^= low
                row = adj[low.bit_length() - 1]
                twice |= once & row
                once |= row
                if psd:
                    grow = row & rest & ~region
                    region |= grow
                    todo |= grow
            rest &= ~region
            actors = once & ~twice if skew else once & ~twice & blue
            while actors:
                low = actors & -actors
                actors ^= low
                target = adj[low.bit_length() - 1] & region
                newly |= target
                if trace is not None:
                    pairs.append((low.bit_length() - 1, target.bit_length() - 1))
        if pairs:
            trace.append(min(pairs))
            newly = 1 << trace[-1][1]
        if not newly:
            return blue
        if newly & stop:
            return full
        blue |= newly


def closure(g: Graph, rule: Rule, initial: VertexSetLike) -> tuple[int, ForcingCertificate]:
    """Closure of the initial set, with a deterministic force-by-force trace."""
    blue = _as_mask(initial, g.n)
    forces: list[tuple[int, int]] = []
    final = _close(g.adj, g.full_mask, blue, rule is Rule.SKEW, rule is Rule.PSD, forces)
    return final, ForcingCertificate(rule, tuple(bits(blue)), tuple(forces))


def verify_certificate(g: Graph, cert: ForcingCertificate, require_all_blue: bool = True) -> bool:
    """Independent replay of a certificate; trusts nothing from the solver.

    Checks that every force is legal under the rule when it fires, that no
    vertex is forced twice or forced despite being in the initial set, and
    (by default) that the replay ends with every vertex blue.
    """
    if any(not 0 <= v < g.n for v in cert.initial):
        return False
    blue = set(cert.initial)
    for actor, target in cert.forces:
        if not 0 <= actor < g.n or not 0 <= target < g.n:
            return False
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


# ---------------------------------------------------------------------------
# exact minimum search
# ---------------------------------------------------------------------------

def _lower_bound(g: Graph, rule: Rule) -> int:
    """Z >= delta, Z_plus >= tw >= delta and Z_minus >= delta - 1, with delta
    the minimum degree of g."""
    delta = min(row.bit_count() for row in g.adj)
    return max(delta - 1, 0) if rule is Rule.SKEW else delta


def _component_minimum(g: Graph, rule: Rule, budget: Budget) -> int:
    """Minimum forcing set of the connected graph g, as a minimum hitting set
    of lazily generated forts, branching on automorphism orbits (see the
    module docstring); returns its mask."""
    budget.what = f"{rule.value} search on a component of order {g.n}"
    adj, comp = g.adj, g.full_mask
    skew, psd = rule is Rule.SKEW, rule is Rule.PSD
    bound = _lower_bound(g, rule)
    forts: list[int] = []
    best = comp  # the incumbent: the smallest forcing set found so far

    def minimal_fort(closed: int) -> int:
        # grow the proper closed set to a maximal one; its complement is a
        # minimal fort.  essential: the vertices whose addition closed
        # everything; closed only grows, so a closure that reaches one of
        # them ends full too
        essential = 0
        for v in bits(comp & ~closed):
            low = 1 << v
            if closed & low:
                continue
            budget.spend()
            grown = _close(adj, comp, closed | low, skew, psd, stop=essential)
            if grown == comp:
                essential |= low
            else:
                closed = grown
        return comp & ~closed

    def search(chosen: int, depth: int, banned: int, unhit: list[int],
               group: list[bytes]) -> bool:
        # unhit: the known forts that miss chosen.  Every fort found below
        # this node misses chosen too, so it is appended here on the way back.
        # group: automorphisms of the component that fix chosen pointwise
        # and map banned onto itself.  Returns True once the incumbent meets
        # the lower bound.
        nonlocal best
        left = best.bit_count() - 1 - depth  # picks that stay below the incumbent
        if left < 0:
            return False
        budget.spend()
        if not unhit:
            budget.spend()
            closed = _close(adj, comp, chosen, skew, psd)
            if closed == comp:
                best = chosen
                return depth == bound
            forts.append(minimal_fort(closed))
            unhit.append(forts[-1])
        if left == 0:
            return False
        symmetric = len(group) > 1  # else the identity alone, its own stabiliser
        common = comp  # on the last pick: the vertices in every unhit fort
        if left == 1:
            for f in unhit:
                common &= f
        if left == 1 and not symmetric:
            allowed = common & ~banned
        else:
            allowed = min((f & ~banned for f in unhit), key=int.bit_count)
        if not allowed:
            return False
        for v in bits(allowed):
            low = 1 << v
            if banned & low:  # in the orbit of a vertex already tried
                continue
            if common & low:  # else a last pick that misses a fort: banned untried
                known = len(forts)
                stabiliser = [p for p in group if p[v] == v] if symmetric else group
                if search(chosen | low, depth + 1, banned, [f for f in unhit if not f & low],
                          stabiliser):
                    return True
                unhit.extend(forts[known:])
                if left == 1:
                    for f in forts[known:]:
                        common &= f
            banned |= low
            if symmetric:  # ban v's whole orbit
                for p in group:
                    banned |= 1 << p[v]
        return False

    search(0, 0, 0, [], automorphism_group(g))
    del search  # it refers to itself: free its forts now, not at a later collection
    return best


def zero_forcing_number(g: Graph, rule: Rule, *, budget: int = 10 ** 8) -> ZfResult:
    """Exact minimum forcing-set size with witness certificate.

    Searches each connected component as a graph of its own: the parameter
    is additive over components.  All components spend from one Budget of
    ``budget`` search steps, the solver's only limit.
    """
    state = Budget(budget)
    initial = 0
    for comp in components(g):
        sub, verts = induced_subgraph(g, comp)
        for i in bits(_component_minimum(sub, rule, state)):
            initial |= 1 << verts[i]

    final, cert = closure(g, rule, initial)
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
