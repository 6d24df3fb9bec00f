import hashlib
import json
import random

import pytest

from zfforge.forcing import (BudgetExceededError, ForcingCertificate, Rule,
                             _chunk_tables, _close, closure, verify_certificate,
                             zero_forcing_number, zf_join_formula_check)
from zfforge import claims, forcing, graphs
from zfforge.certify import MatrixCertificate
from zfforge.constructions import (circulant_h, hollow_matrix, regular_construction,
                                   shifted_adjacency, shrikhande, tensor_bound, torus_bound)
from zfforge.graphs import (automorphism_group, bits, cartesian, circulant, complement,
                            complete, complete_bipartite, components, cycle,
                            disjoint_union, empty, ex32_g, ex32_gprime, fig1_left,
                            fig1_right, from_edges, grid_lattice, induced_subgraph,
                            iterated_join, join, mask_components, mask_from, path)
from zfforge.randgraphs import random_connected_graph, random_graph
from zfforge.skew_rank import max_nullity_witness_search

from oracles import (FRUCHT, PETERSEN, gosper_minimum, random_subset_mask, set_closure,
                     wavefront_minimum)

ALL_RULES = (Rule.STANDARD, Rule.SKEW, Rule.PSD)


def test_closure_path_endpoint_standard():
    g = path(3)
    final, cert = closure(g, Rule.STANDARD, [0])
    assert final == g.full_mask
    assert cert.forces == ((0, 1), (1, 2))
    assert verify_certificate(g, cert)


def test_closure_rejects_vertices_outside_the_graph():
    for initial in ([-1], [3], 1 << 3, -1):
        with pytest.raises(ValueError, match="initial set contains vertices outside the graph"):
            closure(path(3), Rule.PSD, initial)


def test_closure_c6_skew_empty_stalls():
    g = cycle(6)
    final, cert = closure(g, Rule.SKEW, [])
    assert final == 0 and cert.forces == ()


def test_closure_star_psd_center():
    g = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    final, cert = closure(g, Rule.PSD, [0])
    assert final == g.full_mask
    assert len(cert.forces) == 3  # each leaf is alone in its white component
    assert all(actor == 0 for actor, _ in cert.forces)
    assert verify_certificate(g, cert)
    # under the standard rule the centre cannot start at all
    final_std, _ = closure(g, Rule.STANDARD, [0])
    assert final_std == 1


def test_fixture_pair_values():
    expect = {(0, Rule.STANDARD): 6, (0, Rule.PSD): 5, (0, Rule.SKEW): 4,
              (1, Rule.STANDARD): 4, (1, Rule.PSD): 4, (1, Rule.SKEW): 4}
    pair = (fig1_left(), fig1_right())
    for (which, rule), value in expect.items():
        result = zero_forcing_number(pair[which], rule)
        assert result.value == value
        assert verify_certificate(pair[which], result.witness)


def test_ex32_skew_values():
    assert zero_forcing_number(ex32_g(), Rule.SKEW).value == 3
    assert zero_forcing_number(ex32_gprime(), Rule.SKEW).value == 1


def test_psd_rook_3():
    assert zero_forcing_number(grid_lattice(3), Rule.PSD).value == 5


def test_path_standard_is_one():
    for n in range(2, 11):
        assert zero_forcing_number(path(n), Rule.STANDARD).value == 1


def test_complete_graphs():
    for n in range(2, 9):
        assert zero_forcing_number(complete(n), Rule.STANDARD).value == n - 1
        assert zero_forcing_number(complete(n), Rule.PSD).value == n - 1


def test_empty_and_singleton():
    for rule in ALL_RULES:
        assert zero_forcing_number(empty(1), rule).value == 1
        assert zero_forcing_number(empty(4), rule).value == 4
        assert zero_forcing_number(empty(0), rule).value == 0


def test_isolated_vertex_always_needed():
    g = ex32_g()  # cycle component plus isolated vertex
    for rule in ALL_RULES:
        result = zero_forcing_number(g, rule)
        assert 6 in result.witness.initial


def test_verify_certificate_rejects_forgeries():
    g = path(3)
    # standard force by an actor with two white neighbours
    bad = ForcingCertificate(Rule.STANDARD, (1,), ((1, 0), (1, 2)))
    assert not verify_certificate(g, bad)
    # skew allows that same first force only if unique; vertex 1 has two whites
    assert not verify_certificate(g, ForcingCertificate(Rule.SKEW, (1,), ((1, 0),)))
    # claiming completion while a vertex stays white
    assert not verify_certificate(g, ForcingCertificate(Rule.STANDARD, (0,), ((0, 1),)))
    assert verify_certificate(g, ForcingCertificate(Rule.STANDARD, (0,), ((0, 1),)),
                              require_all_blue=False)
    # forcing across a non-edge
    assert not verify_certificate(g, ForcingCertificate(Rule.STANDARD, (0, 1), ((0, 2),)))
    # forcing a vertex that is already blue
    assert not verify_certificate(g, ForcingCertificate(Rule.STANDARD, (0, 1), ((0, 1),)))
    # one initial vertex listed twice: two claimed for a set of one
    assert not verify_certificate(g, ForcingCertificate(Rule.STANDARD, (0, 0), ((0, 1), (1, 2))))
    # an initial vertex, an actor or a target outside the graph
    for initial, forces in (((0, 3), ((0, 1), (1, 2))), ((0, 1), ((3, 2),)),
                            ((0, -1), ((0, 1), (1, 2))), ((0,), ((0, 1), (1, 3)))):
        assert not verify_certificate(g, ForcingCertificate(Rule.STANDARD, initial, forces),
                                      require_all_blue=False)
    # vertices that are not ints, as a report's JSON could carry them: a float,
    # a string, and true, which would otherwise pass as vertex 1
    for data in ({"initial": [0.0], "forces": [[0.0, 1], [1, 2]]},
                 {"initial": ["0"], "forces": [[0, 1], [1, 2]]},
                 {"initial": [0], "forces": [[0, True], [True, 2]]},
                 {"initial": [True], "forces": [[1, 0], [1, 2]]}):
        cert = ForcingCertificate.from_json({"rule": "standard", **data})
        assert not verify_certificate(g, cert)
        assert not verify_certificate(g, cert, require_all_blue=False)
    # white actors may force under skew but not under standard
    g2 = path(2)
    skew_ok = ForcingCertificate(Rule.SKEW, (), ((0, 1), (1, 0)))
    assert verify_certificate(g2, skew_ok)
    assert not verify_certificate(g2, ForcingCertificate(Rule.STANDARD, (), ((0, 1),)),
                                  require_all_blue=False)


def test_solver_witness_replays_for_every_rule():
    rng = random.Random(211)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8))
        for rule in ALL_RULES:
            result = zero_forcing_number(g, rule)
            assert verify_certificate(g, result.witness)
            assert len(result.witness.initial) == result.value


def test_zf_join_formula_examples():
    assert zero_forcing_number(join(path(3), path(3)), Rule.STANDARD).value == 4
    assert zf_join_formula_check(path(3), path(3), Rule.STANDARD)
    assert zero_forcing_number(join(complete(2), complete(2)), Rule.STANDARD).value == 3
    assert zf_join_formula_check(complete(2), complete(2), Rule.STANDARD)
    with pytest.raises(ValueError):
        zf_join_formula_check(path(3), path(3), Rule.PSD)
    with pytest.raises(ValueError):
        zf_join_formula_check(disjoint_union(path(2), path(2)), path(3), Rule.STANDARD)


def test_zf_join_formula_random_pairs():
    rng = random.Random(223)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 6))
        h = random_connected_graph(rng, rng.randint(2, 6))
        for rule in (Rule.STANDARD, Rule.SKEW):
            assert zf_join_formula_check(g, h, rule)


def test_closure_monotone_idempotent_extensive():
    rng = random.Random(227)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9))
        rule = rng.choice(ALL_RULES)
        s = random_subset_mask(rng, g.n)
        t = s | random_subset_mask(rng, g.n)
        close_s, _ = closure(g, rule, s)
        close_t, _ = closure(g, rule, t)
        assert close_s & ~close_t == 0  # monotone
        assert s & ~close_s == 0  # extensive
        again, _ = closure(g, rule, close_s)
        assert again == close_s  # idempotent
        full, _ = closure(g, rule, g.full_mask)
        assert full == g.full_mask  # the whole vertex set always closes


def test_rule_dominance():
    rng = random.Random(229)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        z = zero_forcing_number(g, Rule.STANDARD).value
        assert zero_forcing_number(g, Rule.PSD).value <= z
        assert zero_forcing_number(g, Rule.SKEW).value <= z


def test_component_additivity_against_whole_graph_search():
    # the solver searches per component; the oracle enumerates subsets of
    # the whole disjoint union
    rng = random.Random(233)
    for _ in range(10):
        g = disjoint_union(random_graph(rng, rng.randint(1, 6)),
                           random_graph(rng, rng.randint(1, 6)))
        for rule in ALL_RULES:
            assert zero_forcing_number(g, rule).value == gosper_minimum(g, rule)


def test_budget_is_the_only_limit():
    with pytest.raises(BudgetExceededError) as info:
        zero_forcing_number(fig1_left(), Rule.STANDARD, budget=5)
    message = str(info.value)
    assert "order 10" in message and "standard" in message and "6 steps" in message
    # no component is refused for its order: C5 x C5 has 25 vertices and
    # solves in a few thousand steps with the default budget
    torus = cartesian(cycle(5), cycle(5))
    result = zero_forcing_number(torus, Rule.STANDARD)
    assert result.value == 9
    assert verify_certificate(torus, result.witness)
    with pytest.raises(BudgetExceededError) as info:
        zero_forcing_number(cartesian(cycle(6), cycle(6)), Rule.STANDARD, budget=1_000)
    assert "order 36" in str(info.value)


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_a_caller_error(budget):
    # a caller error, raised before any search, not a search out of budget
    with pytest.raises(ValueError, match="budget must be at least 1"):
        zero_forcing_number(path(2), Rule.STANDARD, budget=budget)


def test_budget_error_names_the_component_that_ran_out():
    # the components share one budget: path(3) is solved first, then
    # fig1_left runs out with the budget's eleventh step
    g = disjoint_union(path(3), fig1_left())
    with pytest.raises(BudgetExceededError) as info:
        zero_forcing_number(g, Rule.STANDARD, budget=10)
    message = str(info.value)
    assert "order 10" in message and "11 steps" in message
    with pytest.raises(BudgetExceededError) as info:
        zero_forcing_number(g, Rule.STANDARD, budget=6)
    assert "order 3" in str(info.value)


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda rule: rule.value)
def test_budget_boundary_is_exact(rule):
    # a budget of exactly the steps a solve takes gives the same solve; one
    # step less, or any smaller budget k, raises at step k + 1, naming the
    # component whose search took that step
    rng = random.Random(277)
    for g in (PETERSEN, fig1_left(), cycle(8), disjoint_union(path(3), fig1_left())):
        result = zero_forcing_number(g, rule)
        exact = zero_forcing_number(g, rule, budget=result.explored)
        assert (exact.value, exact.witness, exact.explored) == \
            (result.value, result.witness, result.explored)
        ends = []  # (steps spent when the component's search ends, its order)
        for comp in components(g):
            sub, _verts = induced_subgraph(g, comp)
            ends.append(((ends[-1][0] if ends else 0)
                         + zero_forcing_number(sub, rule).explored, sub.n))
        assert ends[-1][0] == result.explored
        limits = range(1, result.explored)
        for k in {result.explored - 1, *rng.sample(limits, min(12, len(limits)))}:
            with pytest.raises(BudgetExceededError) as info:
                zero_forcing_number(g, rule, budget=k)
            order = next(order for end, order in ends if k < end)
            assert str(info.value) == (f"{rule.value} search on a component of order "
                                       f"{order} exhausted its budget after {k + 1} steps")


def test_deterministic_witness():
    a = zero_forcing_number(cycle(8), Rule.STANDARD, budget=10 ** 8)
    b = zero_forcing_number(cycle(8), Rule.STANDARD, budget=10 ** 8)
    assert a.witness == b.witness and a.value == b.value == 2
    assert a.explored == b.explored > 0
    # the default budget solves from scratch too: equal results, no shared object
    a = zero_forcing_number(cycle(8), Rule.STANDARD)
    b = zero_forcing_number(cycle(8), Rule.STANDARD)
    assert (a.value, a.witness, a.explored) == (b.value, b.witness, b.explored)
    assert a is not b


def test_certificate_json_roundtrip():
    g = fig1_right()
    result = zero_forcing_number(g, Rule.PSD)
    data = result.witness.to_json()
    assert ForcingCertificate.from_json(data) == result.witness
    assert data["rule"] == "psd"


def test_lowest_pair_tie_break():
    # both endpoints of a path could force; the lower-indexed actor fires first
    g = path(4)
    final, cert = closure(g, Rule.STANDARD, [0, 3])
    assert final == g.full_mask
    assert cert.forces[0] == (0, 1)
    # under psd blue 0 has one white neighbour in each white component: 3 in
    # {1, 3}, the component of the least white vertex, and 2 in {2}; the
    # least target fires first
    g = from_edges(4, [(0, 2), (0, 3), (1, 3)])
    final, cert = closure(g, Rule.PSD, [0])
    assert final == g.full_mask
    assert cert.forces == ((0, 2), (0, 3), (3, 1))
    assert verify_certificate(g, cert)


def test_initial_accepts_masks_and_iterables():
    g = path(3)
    final_mask, _ = closure(g, Rule.STANDARD, mask_from([0]))
    final_iter, _ = closure(g, Rule.STANDARD, [0])
    assert final_mask == final_iter
    with pytest.raises(ValueError):
        closure(g, Rule.STANDARD, [5])


def _reference_minimum(g, rule):
    # deliberately independent solver: set-based closure, itertools subsets,
    # no bitmasks, no shared code with the package engine
    import itertools

    adj = [sorted(w for w in range(g.n) if g.has_edge(v, w)) for v in range(g.n)]

    def close(blue):
        blue = set(blue)
        while True:
            fired = False
            white = set(range(g.n)) - blue
            if rule is Rule.PSD:
                comps = []
                left = set(white)
                while left:
                    comp = {left.pop()}
                    grow = list(comp)
                    while grow:
                        v = grow.pop()
                        for w in adj[v]:
                            if w in white and w not in comp:
                                comp.add(w)
                                grow.append(w)
                    left -= comp
                    comps.append(comp)
            for u in range(g.n):
                if rule is not Rule.SKEW and u not in blue:
                    continue
                if rule is Rule.PSD:
                    for comp in comps:
                        wn = [w for w in adj[u] if w in comp]
                        if len(wn) == 1 and wn[0] in white:
                            blue.add(wn[0])
                            white.discard(wn[0])
                            fired = True
                else:
                    wn = [w for w in adj[u] if w in white]
                    if len(wn) == 1:
                        blue.add(wn[0])
                        white.discard(wn[0])
                        fired = True
            if not fired:
                return blue

    for k in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if len(close(subset)) == g.n:
                return k
    return g.n


def test_solver_matches_independent_reference():
    rng = random.Random(241)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 7))
        for rule in ALL_RULES:
            assert zero_forcing_number(g, rule).value == _reference_minimum(g, rule)


def _check_closures_agree(g, rule, s):
    # the fort search's batch passes and the certificate stepper share
    # forcing._close, so each is checked against the set-based oracle,
    # the stepper force by force
    expected, forces = set_closure(g, rule, bits(s))
    batch = _close(_chunk_tables(g.adj), g.full_mask, s, rule is Rule.SKEW, rule is Rule.PSD)
    stepped, cert = closure(g, rule, s)
    assert batch == stepped == mask_from(expected)
    assert cert.forces == tuple(forces)
    assert verify_certificate(g, cert, require_all_blue=False)
    return stepped


def test_batch_and_stepper_closures_agree():
    rng = random.Random(239)
    cases = []
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 9))
        cases.append((g, rng.choice(ALL_RULES), random_subset_mask(rng, g.n)))
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 12), rng.choice((0.2, 0.35, 0.5)))
        s = random_subset_mask(rng, g.n)
        cases.extend((g, rule, s) for rule in ALL_RULES)
    split_psd = beyond_standard = 0
    for g, rule, s in cases:
        stepped = _check_closures_agree(g, rule, s)
        if rule is Rule.PSD and len(mask_components(g.adj, g.full_mask & ~s)) > 1:
            split_psd += 1
            beyond_standard += stepped != closure(g, Rule.STANDARD, s)[0]
    assert split_psd >= 50 and beyond_standard >= 10


def test_closures_agree_at_chunk_boundaries():
    # _close reads its rows from tables over runs of 8 vertices: orders on
    # both sides of a run's end, sparse enough that psd's white set splits,
    # with blue sets from a few vertices to most of them
    rng = random.Random(271)
    split_psd = beyond_standard = 0
    for n in (8, 9, 16, 17, 24, 33, 63, 64):
        for p in (2.5 / n, 4 / n, 0.3):
            g = random_graph(rng, n, p)
            for share in (0.1, 0.5, 0.8):
                s = sum(1 << v for v in range(n) if rng.random() < share)
                for rule in ALL_RULES:
                    stepped = _check_closures_agree(g, rule, s)
                    if rule is Rule.PSD and len(mask_components(g.adj, g.full_mask & ~s)) > 1:
                        split_psd += 1
                        beyond_standard += stepped != closure(g, Rule.STANDARD, s)[0]
    assert split_psd >= 30 and beyond_standard >= 10


def test_close_stops_at_a_vertex_that_closes_everything():
    # minimal_fort's closures: C is closed, E the vertices whose addition to
    # C closes everything, and a closure of C plus one vertex that turns a
    # vertex of E blue may return the full set at once; the result must
    # still be the closure.  Under psd the cases that go beyond the standard
    # closure need a pass over white components after the pass over the
    # whole white set stalls
    rng = random.Random(281)
    beyond_standard = 0
    for n in range(8, 25, 4):
        for p in (2.5 / n, 4 / n):
            g = random_graph(rng, n, p)
            tables = _chunk_tables(g.adj)
            s = sum(1 << v for v in range(n) if rng.random() < 0.2)
            for rule in ALL_RULES:
                closed = mask_from(set_closure(g, rule, bits(s))[0])
                grown = {v: mask_from(set_closure(g, rule, bits(closed | 1 << v))[0])
                         for v in bits(g.full_mask & ~closed)}
                stop = mask_from(v for v, m in grown.items() if m == g.full_mask)
                for v, expected in grown.items():
                    assert _close(tables, g.full_mask, closed | 1 << v, rule is Rule.SKEW,
                                  rule is Rule.PSD, stop=stop) == expected, (g, rule, v)
                    if rule is Rule.PSD:
                        standard = set_closure(g, Rule.STANDARD, bits(closed | 1 << v))[0]
                        beyond_standard += expected != mask_from(standard)
    assert beyond_standard >= 20


def _starting_bound(g, rule):
    # Z >= delta, Z_plus >= tw >= delta, Z_minus >= delta - 1
    delta = min((row.bit_count() for row in g.adj), default=0)
    return max(delta - 1, 0) if rule is Rule.SKEW else delta


def _random_tree(rng, n):
    return from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def test_fort_search_matches_gosper_oracle():
    rng = random.Random(251)
    fixtures = [empty(0), empty(1), empty(3), disjoint_union(path(4), empty(2))]
    fixtures += [complete(n) for n in range(1, 11)]
    while len(fixtures) < 220:
        n = rng.randint(1, 10)
        fixtures.append(random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.7, 0.9))))
    # dense and sparse graphs at n = 11..13, whose values lie well above the
    # starting bound and where the first forcing set the branch and bound
    # finds is often larger than the optimum
    fixtures += [random_graph(rng, n, p) for n in (11, 12, 13) for p in (0.2, 0.3, 0.7, 0.85)]
    # leaf-heavy graphs, with many disjoint two-vertex forts: a star,
    # K2,11, a spider with legs of length 2, a caterpillar and random trees
    fixtures += [complete_bipartite(1, 12), complete_bipartite(2, 11),
                 from_edges(13, [(0, 1 + 2 * i) for i in range(6)]
                            + [(1 + 2 * i, 2 + 2 * i) for i in range(6)]),
                 from_edges(12, [(i, i + 1) for i in range(3)]
                            + [(v % 4, v) for v in range(4, 12)])]
    fixtures += [_random_tree(rng, n) for n in (10, 11, 12, 13)]
    disconnected = isolated = 0
    for g in fixtures:
        comps = components(g)
        disconnected += len(comps) > 1
        isolated += any(not g.adj[v] for v in range(g.n))
        for rule in ALL_RULES:
            result = zero_forcing_number(g, rule, budget=10 ** 6)
            value = gosper_minimum(g, rule)
            assert result.value == value
            assert verify_certificate(g, result.witness)
            assert len(result.witness.initial) == value
            for comp in comps:
                sub, _verts = induced_subgraph(g, comp)
                assert gosper_minimum(sub, rule) >= _starting_bound(sub, rule)
    assert disconnected >= 50 and isolated >= 30


def test_branch_and_bound_spends_no_more_steps_than_deepening():
    # steps the deepening search (every cardinality from the starting bound)
    # spent, as (standard, skew, psd).  A value at its bound stops the search
    # at the first forcing set of that size (C20 under skew sits one above
    # delta - 1); a value above it is proved once, by exploring only sets
    # smaller than the incumbent, which a search that also explored sets as
    # large as the incumbent would exceed.
    petersen = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)])
    parent_steps = {"C20": (cycle(20), (2, 2, 2), (45, 38, 45)),
                    "P20": (path(20), (1, 0, 1), (24, 2, 24)),
                    "K12": (complete(12), (11, 10, 11), (101, 97, 101)),
                    "fig1_left": (fig1_left(), (6, 4, 5), (376, 452, 356)),
                    "petersen": (petersen, (5, 4, 4), (280, 194, 473))}
    for name, (g, values, steps) in parent_steps.items():
        for rule, value, most in zip(ALL_RULES, values, steps):
            result = zero_forcing_number(g, rule)
            assert result.value == value, (name, rule)
            assert result.explored <= most, (name, rule, result.explored)


def _blow_up(rng, k):
    # a random graph on k vertices with each vertex replaced by one to three
    # twins: an independent set (false twins) or a clique (true twins)
    base = random_graph(rng, k, 0.5)
    parts, edges = [], []
    for v in range(k):
        first = sum(len(p) for p in parts)
        parts.append(range(first, first + rng.randint(1, 3)))
        if rng.random() < 0.5:
            edges += [(a, b) for a in parts[v] for b in parts[v] if a < b]
    for u, v in base.edges():
        edges += [(a, b) for a in parts[u] for b in parts[v]]
    return from_edges(sum(len(p) for p in parts), edges)


def _symmetric_fixtures():
    # vertex-transitive graphs, joins and twin-rich graphs, small enough for
    # the Gosper oracle, and the Frucht graph, whose refinement cell is not
    # an orbit
    rng = random.Random(257)
    fixtures = [cycle(n) for n in range(3, 13)] + [complete(n) for n in range(2, 8)]
    fixtures += [PETERSEN, FRUCHT, complement(cycle(7)), complement(cycle(8)),
                 cartesian(complete(2), cartesian(complete(2), complete(2))),
                 cartesian(cycle(3), cycle(3)), cartesian(cycle(3), cycle(4))]
    fixtures += [cartesian(cycle(n), complete(2)) for n in (3, 4, 5, 6)]
    fixtures += [circulant(n, offsets) for n, offsets in
                 ((8, (1, 4)), (9, (1, 3)), (10, (1, 3)), (11, (1, 2)), (12, (1, 5)),
                  (13, (1, 5)), (12, (1, 3, 6)))]
    fixtures += [join(path(3), path(3)), join(complete(2), cycle(4)), join(cycle(4), cycle(5)),
                 join(empty(1), cycle(6)), join(empty(2), cycle(5)), join(path(4), empty(3)),
                 iterated_join(path(3), 2), iterated_join(cycle(4), 1), join(PETERSEN, empty(2))]
    fixtures += [complete_bipartite(m, n) for m, n in ((1, 6), (2, 3), (2, 5), (3, 4), (4, 4))]
    fixtures += [join(empty(2), join(empty(2), empty(2))), join(empty(3), join(empty(3), empty(2)))]
    fixtures += [_blow_up(rng, rng.randint(3, 6)) for _ in range(12)]
    return [g for g in fixtures if g.n <= 13]


def test_orbital_branching_matches_gosper_oracle():
    symmetric = 0
    for g in _symmetric_fixtures():
        symmetric += len(automorphism_group(g)) > 1
        for rule in ALL_RULES:
            result = zero_forcing_number(g, rule)
            assert result.value == gosper_minimum(g, rule), (g, rule)
            assert verify_certificate(g, result.witness)
            assert len(result.witness.initial) == result.value
    assert symmetric >= 55


def test_symmetry_fallbacks_give_the_same_values(monkeypatch):
    # a generator search out of budget and a group over the cap both leave
    # the search with the identity alone: the plain branch and bound
    fixtures = _symmetric_fixtures()[::3] + [grid_lattice(3), PETERSEN]
    values = {(i, rule): zero_forcing_number(g, rule).value
              for i, g in enumerate(fixtures) for rule in ALL_RULES}
    for setting in ("ISO_NODE_CAP", "AUT_GROUP_CAP"):
        with monkeypatch.context() as patch:
            patch.setattr(graphs, setting, 0 if setting == "ISO_NODE_CAP" else 1)
            assert automorphism_group(PETERSEN) == [bytes(range(10))]
            for i, g in enumerate(fixtures):
                for rule in ALL_RULES:
                    result = zero_forcing_number(g, rule)
                    assert result.value == values[i, rule], (setting, g, rule)
                    assert verify_certificate(g, result.witness)


def test_orbital_branching_keeps_its_pruning():
    # steps spent with orbital branching and the last-pick rule; the search
    # without the last-pick rule took 3,136, 3,685, 5,272 and 38,907, and
    # the branch and bound without orbits 41,371, 20,418, 24,197 and 266,891.
    # The last three solves end early by the wavefront's proof of the
    # minimum: the search alone took 250,120, 319,940 and 49,966
    pins = {"r4": (grid_lattice(4), Rule.PSD, 10, 3_088),
            "shrikhande": (shrikhande(), Rule.PSD, 9, 3_335),
            "join.iterated.fig1": (iterated_join(fig1_left(), 1), Rule.STANDARD, 16, 5_012),
            "C4xC9": (cartesian(cycle(4), cycle(9)), Rule.STANDARD, 8, 16_993),
            "regular6k.k5.G": (regular_construction(5).g, Rule.STANDARD, 18, 20_000),
            "regular6k.k5.Gprime": (regular_construction(5).g_prime, Rule.STANDARD, 17, 20_000),
            "C5xC6": (cartesian(cycle(5), cycle(6)), Rule.STANDARD, 10, 25_000)}
    for name, (g, rule, value, most) in pins.items():
        result = zero_forcing_number(g, rule)
        assert result.value == value, name
        assert verify_certificate(g, result.witness)
        assert result.explored <= most, (name, result.explored)


def test_standard_values_match_the_wavefront_oracle():
    # the fort search, stopped early by its own wavefront, against a
    # wavefront that shares no code with it: every graph a catalog claim
    # solves or joins, the random_zf graphs of seeds 0 and 1009 (orders and
    # densities as in bench/workloads.py) and C4 x C9; about 1 s in all
    fixtures = [g for prefix in ("fig1", "ex32", "tensor", "cartesian", "join.family",
                                 "thm51", "regular6k.k2", "regular6k.k3")
                for g in claims._pair(prefix)]
    fixtures += [iterated_join(fig1_left(), 1), join(fig1_left(), fig1_right()),
                 grid_lattice(2), grid_lattice(3), circulant_h(2), circulant_h(3),
                 cartesian(cycle(3), cycle(3)), cartesian(cycle(3), cycle(4)),
                 cartesian(cycle(4), cycle(4)), cartesian(cycle(4), cycle(9))]
    for seed in (0, 1009):
        rng = random.Random(seed)
        fixtures += [random_connected_graph(rng, n, p) for n in (12, 14, 16, 18)
                     for p in (0.15, 0.3, 0.5, 0.7, 0.85)]
    for g in fixtures:
        result = zero_forcing_number(g, Rule.STANDARD)
        assert result.value == wavefront_minimum(g), g
        assert verify_certificate(g, result.witness)


def test_group_is_listed_only_when_a_ban_needs_it(monkeypatch):
    # a solve lists its component's automorphism group once, and only when
    # a node must ban an orbit before it tries another child: C8 and K6
    # meet their bounds on the first dive and never ban
    listed = []

    def counted(g):
        listed.append(g.n)
        return automorphism_group(g)

    monkeypatch.setattr(forcing, "automorphism_group", counted)
    cases = [(cycle(8), (Rule.STANDARD,), []), (complete(6), ALL_RULES, []),
             (PETERSEN, ALL_RULES, [10]), (fig1_left(), ALL_RULES, [10]),
             (disjoint_union(PETERSEN, PETERSEN), ALL_RULES, [10, 10])]
    for g, rules, expected in cases:
        for rule in rules:
            listed.clear()
            zero_forcing_number(g, rule)
            assert listed == expected, (g, rule)


def test_a_connected_graph_is_solved_as_itself(monkeypatch):
    # the search gets a connected graph itself, and a copy of each component
    # of a graph with two or more
    solved, search = [], forcing._component_minimum

    def recorded(g, *args):
        solved.append(g)
        return search(g, *args)

    monkeypatch.setattr(forcing, "_component_minimum", recorded)
    g = fig1_left()
    parts = disjoint_union(path(3), cycle(4))
    for rule, value in zip(ALL_RULES, (6, 4, 5)):
        solved.clear()
        assert zero_forcing_number(g, rule).value == value
        assert len(solved) == 1 and solved[0] is g
        solved.clear()
        zero_forcing_number(parts, rule)
        assert solved == [path(3), cycle(4)]
        assert all(sub is not parts for sub in solved)


def test_a_solve_builds_each_components_chunk_tables_once(monkeypatch):
    # the witness replay of a connected graph reads the tables its search
    # built; a graph of k components builds one per component and one for
    # the replay
    built = []

    def counted(adj):
        built.append(len(adj))
        return _chunk_tables(adj)

    monkeypatch.setattr(forcing, "_chunk_tables", counted)
    cases = [(fig1_left(), [10]), (PETERSEN, [10]),
             (disjoint_union(path(3), cycle(4)), [3, 4, 7]),
             (disjoint_union(PETERSEN, empty(2)), [10, 1, 1, 12])]
    for g, expected in cases:
        for rule in ALL_RULES:
            built.clear()
            result = zero_forcing_number(g, rule)
            assert verify_certificate(g, result.witness)
            assert built == expected, (g, rule)


def test_search_witnesses_are_pinned():
    # one digest over every rule's value and witness on seeded random graphs
    # and the symmetric fixtures: a pruning that must not change the search's
    # answers, such as the early exit at an essential vertex or the
    # last-pick rule, keeps every witness byte for byte
    rng = random.Random(263)
    fixtures = [random_graph(rng, rng.randint(1, 14), rng.choice((0.2, 0.35, 0.5, 0.7)))
                for _ in range(30)]
    digest = hashlib.sha256()
    for g in fixtures + _symmetric_fixtures():
        for rule in ALL_RULES:
            result = zero_forcing_number(g, rule)
            digest.update(json.dumps([result.value, result.witness.to_json()]).encode())
    assert digest.hexdigest() == \
        "0f0794a6724ee072d81909d66231e9a6a2f8bc0d3e6c063c62cfec244b5aacd9"


def _certified_solves():
    # (graph, rule, matrix, pinned steps): the nine catalog solves that get
    # a lower-bound matrix; the pin is None where the plain solve already
    # stops at its first incumbent
    k3 = complete(3)
    skew = [MatrixCertificate.from_witness(max_nullity_witness_search(g, seed=0))
            for g in (ex32_g(), ex32_gprime())]
    hollow = [hollow_matrix(ex32_g(), (1, 1, 1, 1, 1, -1)), hollow_matrix(ex32_gprime())]
    mate = shrikhande()
    return [
        (graphs.tensor(ex32_g(), k3), Rule.STANDARD, tensor_bound(skew[0], 3), 112),
        (graphs.tensor(ex32_g(), k3), Rule.SKEW, tensor_bound(hollow[0], 3), 110),
        (graphs.tensor(ex32_gprime(), k3), Rule.STANDARD, tensor_bound(skew[1], 3), 119),
        (graphs.tensor(ex32_gprime(), k3), Rule.SKEW, tensor_bound(hollow[1], 3), 89),
        (mate, Rule.PSD, shifted_adjacency(mate, 2), 123),
        (cartesian(cycle(3), cycle(3)), Rule.STANDARD, torus_bound(3), 45),
        (cartesian(cycle(4), cycle(4)), Rule.STANDARD, torus_bound(4), 86),
        (ex32_g(), Rule.SKEW, skew[0], None),
        (ex32_gprime(), Rule.SKEW, skew[1], None),
    ]


def test_a_certified_solve_returns_the_plain_value_and_witness():
    fell = 0
    for g, rule, matrix, pinned in _certified_solves():
        plain = zero_forcing_number(g, rule)
        bounded = zero_forcing_number(g, rule, lower_bound=matrix)
        assert (bounded.value, bounded.witness) == (plain.value, plain.witness), (g, rule)
        assert bounded.explored <= plain.explored
        if pinned is not None:
            assert bounded.explored <= pinned < plain.explored, (g, rule, bounded.explored)
            fell += 1
    assert fell == 7


def test_a_weak_matrix_bound_leaves_the_search_to_prove_the_rest():
    # the rook's grid is cospectral with its switched mate, so A + 2I is psd
    # with nullity 9 on it too, below Z_plus = 10: the search proves the rest
    grid = grid_lattice(4)
    weak = shifted_adjacency(grid, 2)
    assert forcing.matrix_nullity(grid, weak, Rule.PSD) == 9
    plain = zero_forcing_number(grid, Rule.PSD)
    bounded = zero_forcing_number(grid, Rule.PSD, lower_bound=weak)
    assert (bounded.value, bounded.witness) == (plain.value, plain.witness)
    assert plain.value == 10
    # the all-zero matrix would claim nullity 16: it fails the pattern
    zero = MatrixCertificate("psd", [[0] * 16 for _ in range(16)])
    with pytest.raises(ValueError, match="on an edge"):
        zero_forcing_number(grid, Rule.PSD, lower_bound=zero)
