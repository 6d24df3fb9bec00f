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

The solver works per connected component and sums the component minima
(all three parameters are additive over components; in particular an
isolated vertex always costs 1, since no rule lets anything force a vertex
with no neighbours).  A fort is the complement of a proper closed set, and a
set forces everything exactly when it meets every fort, so each component
minimum is a minimum hitting set of its forts (the fort cover of Brimkov,
Fast and Hicks, EJOR 2019).  Forts are generated lazily: a set that fails to
close is grown, one vertex at a time while it stays proper, into a maximal
closed set whose complement is a minimal fort.  One depth-first branch and
bound finds the minimum: the incumbent, the smallest forcing set found so
far, starts as the whole component, and a node may pick only as many more
vertices as keep its set below the incumbent.  A node branches on the unhit
fort with the fewest allowed vertices, bans each vertex once tried, prunes
when a greedy packing of disjoint unhit forts needs more picks than are
left, and runs the real closure at every leaf; a leaf that closes becomes
the incumbent.  The search stops early when the incumbent meets the proven
lower bound in the component's minimum degree delta: Z >= delta,
Z_plus >= treewidth >= delta and Z_minus >= delta - 1.  Otherwise it ends
only when no smaller set survives, so every value is decided by exhaustive
proof, and the proof that nothing of size Z - 1 forces is made once.
Search effort is metered by one ``graphs.Budget`` per solve, set only by the
``budget`` argument: every closure evaluation and every branch node spends
one step.  The first step past the budget raises BudgetExceededError naming
the rule, the component's order and the steps spent; a component above the
order cap raises it too.  Neither degrades to an approximation.
Nothing is remembered between solves: every call searches from scratch.

Certificates use a deterministic tie-break so witnesses are byte-stable: at
every step the lexicographically least eligible (actor, target) pair fires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Union

from .graphs import (Budget, BudgetExceededError, Graph, bits, components,
                     is_connected, join)

DEFAULT_ORDER_CAP = 24

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


@dataclass(frozen=True)
class ForcingCertificate:
    """Replayable trace: initial blue vertices plus ordered (actor, target) forces."""

    rule: Rule
    initial: tuple[int, ...]
    forces: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {"rule": self.rule.value,
                "initial": list(self.initial),
                "forces": [list(f) for f in self.forces]}

    @classmethod
    def from_json(cls, data: dict) -> "ForcingCertificate":
        return cls(Rule(data["rule"]),
                   tuple(data["initial"]),
                   tuple((a, t) for a, t in data["forces"]))


@dataclass(frozen=True)
class ZfResult:
    """Exact minimum, a replayable witness, and the search steps spent.

    The witness replays the union of the components' final incumbents.
    ``explored`` counts closure evaluations plus branch nodes of the fort
    search, summed over components; it is the budget the solve used.
    """

    value: int
    witness: ForcingCertificate
    explored: int


def _as_mask(initial: VertexSetLike, n: int) -> int:
    mask = initial if isinstance(initial, int) else sum(1 << v for v in set(initial))
    if mask & ~((1 << n) - 1) or mask < 0:
        raise ValueError("initial set contains vertices outside the graph")
    return mask


# ---------------------------------------------------------------------------
# the force condition, written once for all three rules
# ---------------------------------------------------------------------------

def _close(adj, full, blue, skew, psd, trace=None):
    """Closure of ``blue`` in the graph with rows ``adj`` and vertex mask ``full``.

    A pass takes the white regions in turn: all white vertices, or under psd
    each white component, grown by the same loop that ORs the region's rows
    into ``once`` (the vertices with a neighbour in the region) and ``twice``
    (those with two or more).  The actors are ``once & ~twice``, only blue
    ones unless skew, and each forces its one neighbour in the region.  A
    force legal at the start of a pass stays legal as white shrinks (psd
    components only split), so a pass fires them all; a pass that fires
    nothing ends the closure.  With a ``trace`` list a pass fires only the
    lexicographically least (actor, target) pair, and appends it.
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

def _lower_bound(adj, comp: int, rule: Rule) -> int:
    """Z >= delta, Z_plus >= tw >= delta and Z_minus >= delta - 1, with delta
    the minimum degree over the vertices of ``comp``."""
    delta = min(adj[v].bit_count() for v in bits(comp))
    return max(delta - 1, 0) if rule is Rule.SKEW else delta


def _component_minimum(adj, comp: int, rule: Rule, budget: Budget) -> int:
    """Minimum forcing set of the connected component ``comp`` (a vertex mask
    of the graph with rows ``adj``), as a minimum hitting set of lazily
    generated forts (see the module docstring); returns its mask."""
    budget.what = f"{rule.value} search on a component of order {comp.bit_count()}"
    skew, psd = rule is Rule.SKEW, rule is Rule.PSD
    bound = _lower_bound(adj, comp, rule)
    forts: list[int] = []
    best = comp  # the incumbent: the smallest forcing set found so far

    def minimal_fort(closed: int) -> int:
        # grow the proper closed set to a maximal one; its complement is a
        # minimal fort
        for v in bits(comp & ~closed):
            low = 1 << v
            if closed & low:
                continue
            budget.spend()
            grown = _close(adj, comp, closed | low, skew, psd)
            if grown != comp:
                closed = grown
        return comp & ~closed

    def search(chosen: int, depth: int, banned: int, unhit: list[int]) -> bool:
        # unhit: the known forts that miss chosen.  Every fort found below
        # this node misses chosen too, so it is appended here on the way back.
        # Returns True once the incumbent meets the lower bound.
        nonlocal best
        left = best.bit_count() - 1 - depth  # picks that stay below the incumbent
        if left < 0:
            return False
        budget.spend()
        while not unhit:
            budget.spend()
            closed = _close(adj, comp, chosen, skew, psd)
            if closed == comp:
                best = chosen
                return depth == bound
            forts.append(minimal_fort(closed))
            unhit.append(forts[-1])
        if left == 0:
            return False
        allowed = sorted((f & ~banned for f in unhit), key=int.bit_count)
        if not allowed[0]:
            return False
        # forts with pairwise-disjoint allowed parts each need their own pick
        disjoint, used = 0, 0
        for f in allowed:
            if not f & used:
                used |= f
                disjoint += 1
                if disjoint > left:
                    return False
        for v in bits(allowed[0]):
            low = 1 << v
            known = len(forts)
            if search(chosen | low, depth + 1, banned, [f for f in unhit if not f & low]):
                return True
            unhit.extend(forts[known:])
            banned |= low
        return False

    search(0, 0, 0, [])
    return best


def zero_forcing_number(g: Graph, rule: Rule, *,
                        budget: int = 10 ** 8,
                        order_cap: int = DEFAULT_ORDER_CAP) -> ZfResult:
    """Exact minimum forcing-set size with witness certificate.

    Searches each connected component separately: the parameter is additive
    over components.  All components spend from one Budget of ``budget``
    search steps.
    """
    state = Budget(budget)
    initial = 0
    for comp in components(g):
        if comp.bit_count() > order_cap:
            raise BudgetExceededError(
                f"component of order {comp.bit_count()} exceeds the order cap {order_cap}")
        initial |= _component_minimum(g.adj, comp, rule, state)

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
