import hashlib
import random
import re
import tracemalloc

import pytest

from zfforge.graphs import (AUT_GROUP_CAP, Graph, GraphError, OrderCapError,
                            UnknownGraphError, automorphism_group,
                            bits, build_named, cartesian, circulant, complement, complete,
                            complete_bipartite, components, cycle,
                            disjoint_union, emit_edgelist, emit_graph6, empty,
                            ex32_g, ex32_gprime, fig1_left, fig1_right,
                            from_edges, grid_lattice, induced_subgraph,
                            is_connected, is_isomorphic, iterated_join, join,
                            line_graph, mask_from, parse_edgelist, parse_graph6,
                            path, relabel, tensor)
from zfforge import claims, graphs
from zfforge.constructions import (gm_switch, planted_switching_instance,
                                   regular_construction, shrikhande)
from zfforge.forcing import BudgetExceededError
from zfforge.randgraphs import random_graph, random_regular_graph

from oracles import FRUCHT, PETERSEN, brute_force_automorphisms


def test_build_named_complete_triangle():
    g = build_named("complete", 3)
    assert g.n == 3 and g.m == 3


def test_build_named_fig1_fixtures():
    left = build_named("fig1_left")
    right = build_named("fig1_right")
    for g in (left, right):
        assert g.n == 10 and g.m == 20
        assert g.is_regular() == 4
    assert left != right


def test_build_named_ex32_fixtures():
    g = build_named("ex32_G")
    assert g.n == 7 and g.m == 6
    assert g.degree(6) == 0
    gp = build_named("ex32_Gprime")
    assert gp.n == 7 and gp.m == 6
    assert gp.degree(0) == 3 and is_connected(gp)


def test_build_named_circulant():
    g = build_named("circulant", 5, 2, 3)
    assert g.is_regular() == 2
    iso, _ = is_isomorphic(g, cycle(5))
    assert iso


def test_build_named_errors():
    with pytest.raises(UnknownGraphError):
        build_named("petersen")
    with pytest.raises(GraphError):
        build_named("cycle", 2)
    with pytest.raises(GraphError):
        build_named("complete_bipartite", 3)
    with pytest.raises(GraphError):
        build_named("circulant", 8)
    # rejected before anything of that size is built
    with pytest.raises(GraphError):
        build_named("circulant", 0, 1)
    with pytest.raises(GraphError):
        build_named("path", 10 ** 12)


def test_grid_lattice_rook():
    g = grid_lattice(4)
    assert g.n == 16 and g.is_regular() == 6 and g.m == 48


def test_generator_argument_errors():
    with pytest.raises(GraphError, match="offset 5 is 0 mod 5"):
        circulant(5, [5])
    with pytest.raises(GraphError, match="s >= 1"):
        grid_lattice(0)
    with pytest.raises(GraphError, match="k >= 0"):
        iterated_join(path(2), -1)
    rng = random.Random(23)
    state = rng.getstate()
    with pytest.raises(ValueError, match="no 3-regular graph on 5 vertices"):
        random_regular_graph(rng, 5, 3)  # odd degree sum
    assert rng.getstate() == state


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(GraphError):
        Graph(1, (0b1,))  # self loop
    with pytest.raises(OrderCapError):
        empty(65)
    with pytest.raises(GraphError):
        from_edges(2, [(0, 2)])


def test_tensor_k2_k2_two_disjoint_edges():
    g = tensor(complete(2), complete(2))
    assert g.n == 4 and g.m == 2
    assert len(components(g)) == 2


def test_tensor_edge_count_identity():
    g, h = cycle(6), complete(3)
    assert tensor(g, h).m == 2 * g.m * h.m == 36
    rng = random.Random(7)
    for _ in range(10):
        a = random_graph(rng, rng.randint(1, 6))
        b = random_graph(rng, rng.randint(1, 6))
        assert tensor(a, b).m == 2 * a.m * b.m


def test_tensor_matches_direct_definition():
    # independent expansion of the definition for the 21-vertex fixture product
    g, h = ex32_g(), complete(3)
    product = tensor(g, h)
    assert product.n == 21
    expected = set()
    for u in range(g.n):
        for up in range(h.n):
            for v in range(g.n):
                for vp in range(h.n):
                    if g.has_edge(u, v) and h.has_edge(up, vp):
                        a, b = u * 3 + up, v * 3 + vp
                        if a < b:
                            expected.add((a, b))
    assert set(product.edges()) == expected
    isolated = [v for v in range(21) if product.degree(v) == 0]
    assert len(isolated) == 3  # the isolated factor vertex times K3


def test_cartesian_k2_k2_is_c4():
    iso, _ = is_isomorphic(cartesian(complete(2), complete(2)), cycle(4))
    assert iso


def test_cartesian_rook_is_line_graph_of_k44():
    rook = cartesian(complete(4), complete(4))
    assert rook.n == 16 and rook.is_regular() == 6
    iso, _ = is_isomorphic(rook, line_graph(complete_bipartite(4, 4)))
    assert iso


def test_cartesian_edge_count_identity():
    g = cartesian(cycle(3), cycle(3))
    assert g.n == 9 and g.m == 18 and g.is_regular() == 4
    rng = random.Random(11)
    for _ in range(10):
        a = random_graph(rng, rng.randint(1, 6))
        b = random_graph(rng, rng.randint(1, 6))
        assert cartesian(a, b).m == b.n * a.m + a.n * b.m


def test_join_basics():
    iso, _ = is_isomorphic(join(complete(1), complete(1)), complete(2))
    assert iso
    iso, _ = is_isomorphic(join(empty(3), empty(3)), complete_bipartite(3, 3))
    assert iso
    assert join(fig1_left(), path(10)).m == 20 + 9 + 100


def test_join_edge_count_identity_random():
    rng = random.Random(13)
    for _ in range(10):
        a = random_graph(rng, rng.randint(0, 6))
        b = random_graph(rng, rng.randint(0, 6))
        assert join(a, b).m == a.m + b.m + a.n * b.n


def test_iterated_join():
    iso, _ = is_isomorphic(iterated_join(complete(1), 2), complete(3))
    assert iso
    g = iterated_join(path(3), 1)
    assert g.n == 6 and g.m == 2 + 2 + 9
    for k in range(4):
        assert iterated_join(path(3), k).n == (k + 1) * 3
    assert iterated_join(path(3), 0) == path(3)


def test_complement():
    iso, _ = is_isomorphic(complement(cycle(5)), cycle(5))
    assert iso
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 10))
        assert complement(complement(g)) == g


def test_line_graph_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(71)
    cases = [empty(0), empty(3), complete(2), path(5), complete(5), PETERSEN,
             *(random_graph(rng, rng.randint(2, 14), rng.random()) for _ in range(60))]
    cases = [g for g in cases if g.m <= 64]  # the line graph's order cap
    assert len(cases) >= 60
    for g in cases:
        index = {e: i for i, e in enumerate(g.edges())}
        other = nx.Graph(g.edges())
        other.add_nodes_from(range(g.n))
        expected = from_edges(g.m, [(index[tuple(sorted(a))], index[tuple(sorted(b))])
                                    for a, b in nx.line_graph(other).edges])
        assert line_graph(g) == expected


def test_line_graph_k22_is_c4():
    iso, _ = is_isomorphic(line_graph(complete_bipartite(2, 2)), cycle(4))
    assert iso


def test_disjoint_union_degrees():
    g, h = cycle(4), path(3)
    u = disjoint_union(g, h)
    assert u.degree_sequence() == tuple(sorted(g.degree_sequence() + h.degree_sequence()))
    assert len(components(u)) == 2


def test_components():
    comps = components(ex32_g())
    assert sorted(c.bit_count() for c in comps) == [1, 6]
    assert len(components(complete(5))) == 1
    assert len(components(empty(4))) == 4


def test_components_partition_and_induced():
    rng = random.Random(19)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 10), p=0.25)
        comps = components(g)
        assert sum(c.bit_count() for c in comps) == g.n
        union = 0
        edge_total = 0
        for c in comps:
            assert union & c == 0
            union |= c
            sub, verts = induced_subgraph(g, c)
            assert is_connected(sub)
            edge_total += sub.m
        assert union == g.full_mask
        assert edge_total == g.m  # components cover every edge


def test_induced_subgraph_rejects_a_mask_outside_the_graph():
    for mask in (-1, -2, 1 << 3, 0b1001):
        with pytest.raises(GraphError, match=f"vertex mask {mask} has vertices outside 0..2"):
            induced_subgraph(path(3), mask)
    assert induced_subgraph(path(3), 0b101) == (empty(2), (0, 2))


def test_induced_subgraph_of_every_vertex_is_the_graph_itself():
    for g in (empty(0), empty(1), path(3), disjoint_union(path(3), cycle(4)), PETERSEN):
        sub, verts = induced_subgraph(g, g.full_mask)
        assert sub is g and verts == tuple(range(g.n))


def test_isomorphism_fixture_pair_differs():
    iso, mapping = is_isomorphic(fig1_left(), fig1_right())
    assert not iso and mapping is None


def test_isomorphism_relabel_invariance():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        iso, mapping = is_isomorphic(g, relabel(g, tuple(perm)))
        assert iso
        # mapping witness must preserve adjacency exactly
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert g.has_edge(u, v) == relabel(g, tuple(perm)).has_edge(
                        mapping[u], mapping[v])


def test_relabel_rejects_a_non_permutation():
    with pytest.raises(GraphError, match="permutation"):
        relabel(empty(3), (1, 1, 0))
    with pytest.raises(GraphError, match="permutation"):
        relabel(path(3), (0, 1, 5))
    with pytest.raises(GraphError, match="permutation"):
        relabel(path(3), (0, 0, 1))
    with pytest.raises(GraphError, match="permutation"):
        relabel(path(3), (0, 1))
    assert relabel(path(3), (2, 0, 1)).edges() == [(0, 1), (0, 2)]


def test_isomorphism_c6_vs_two_triangles():
    iso, _ = is_isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3)))
    assert not iso


def _canonical_form(g):
    # independent oracle: minimum edge set over all vertex permutations
    import itertools

    best = None
    for perm in itertools.permutations(range(g.n)):
        edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()))
        if best is None or edges < best:
            best = edges
    return best


def test_isomorphism_matches_canonical_form_oracle():
    rng = random.Random(31)
    for trial in range(80):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        if trial % 2:
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, tuple(perm))
        else:
            h = random_graph(rng, n)
        expected = _canonical_form(g) == _canonical_form(h)
        iso, mapping = is_isomorphic(g, h)
        assert iso == expected
        if iso:
            for u in range(n):
                for v in range(u + 1, n):
                    assert g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])


def _assert_checked(g, h, iso, mapping):
    # a "yes" must come with a mapping that carries g exactly onto h
    if iso:
        assert relabel(g, mapping) == h
    else:
        assert mapping is None


def _to_nx(nx, graph):
    out = nx.Graph()
    out.add_nodes_from(range(graph.n))
    out.add_edges_from(graph.edges())
    return out


def _union(*parts):
    out = parts[0]
    for part in parts[1:]:
        out = disjoint_union(out, part)
    return out


def test_isomorphism_matches_networkx_vf2():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    pairs = []
    for _ in range(40):  # relabelled random graphs, sparse to dense
        g = random_graph(rng, rng.randint(1, 24), rng.choice((0.1, 0.3, 0.5, 0.8)))
        perm = list(range(g.n))
        rng.shuffle(perm)
        pairs.append((g, relabel(g, tuple(perm))))
    for _ in range(30):  # planted switching pairs: cospectral, often non-isomorphic
        g, parts = planted_switching_instance(rng, 6, 24)
        pairs.append((g, gm_switch(g, parts)))
    for _ in range(40):  # same degree sequence: two random k-regular graphs
        n = rng.randint(4, 20)
        k = rng.choice([k for k in range(1, min(n, 6)) if n * k % 2 == 0])
        pairs.append((random_regular_graph(rng, n, k), random_regular_graph(rng, n, k)))
    verdicts = set()
    for g, h in pairs:
        iso, mapping = is_isomorphic(g, h)
        assert iso == nx.is_isomorphic(_to_nx(nx, g), _to_nx(nx, h))
        _assert_checked(g, h, iso, mapping)
        verdicts.add(iso)
    assert verdicts == {True, False}
    # unions of random regular components of one order and degree.  VF2 can
    # take minutes to refute such a union (one of four cubic components on 6
    # vertices each ran past 60 s), so the oracle pairs off the networkx
    # components, each pair decided by VF2
    verdicts = set()
    for _ in range(20):
        n, k, parts = rng.choice(((6, 3, 4), (8, 3, 3), (10, 4, 3), (12, 3, 2)))
        pool = [random_regular_graph(rng, n, k) for _ in range(3)]
        g = _union(*[rng.choice(pool) for _ in range(parts)])
        if rng.random() < 0.5:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, tuple(perm))
        else:
            h = _union(*[rng.choice(pool) for _ in range(parts)])
        iso, mapping = is_isomorphic(g, h)
        assert iso == _vf2_by_components(nx, g, h)
        _assert_checked(g, h, iso, mapping)
        verdicts.add(iso)
    assert verdicts == {True, False}


def _vf2_by_components(nx, g, h):
    # two graphs are isomorphic exactly when their components pair off
    # isomorphically
    gn, hn = _to_nx(nx, g), _to_nx(nx, h)
    left = [gn.subgraph(c) for c in nx.connected_components(gn)]
    right = [hn.subgraph(c) for c in nx.connected_components(hn)]
    for part in left:
        match = next((i for i, other in enumerate(right) if nx.is_isomorphic(part, other)), None)
        if match is None:
            return False
        del right[match]
    return not right


def test_regular_construction_pairs_are_not_isomorphic():
    for k in range(2, 11):
        pair = regular_construction(k)
        assert is_isomorphic(pair.g, pair.g_prime) == (False, None)


def test_isomorphism_hard_symmetric_pairs():
    # strongly regular with equal parameters: refinement alone cannot split them
    assert is_isomorphic(grid_lattice(4), shrikhande()) == (False, None)
    # both halves share one colour class, so the first candidate image of a
    # rook vertex is a Shrikhande vertex and the search must backtrack
    both = disjoint_union(grid_lattice(4), shrikhande())
    swap = tuple((v + 16) % 32 for v in range(32))
    rng = random.Random(43)
    for g, perm in ((both, swap), (complete(24), None), (cycle(24), None),
                    (grid_lattice(5), None), (empty(12), None),
                    (disjoint_union(cycle(5), cycle(5)), None)):
        if perm is None:
            perm = list(range(g.n))
            rng.shuffle(perm)
        h = relabel(g, tuple(perm))
        iso, mapping = is_isomorphic(g, h)
        assert iso
        _assert_checked(g, h, iso, mapping)


def test_isomorphism_order_zero_and_one():
    assert is_isomorphic(empty(0), empty(0)) == (True, ())
    assert is_isomorphic(empty(1), empty(1)) == (True, (0,))


def test_isomorphism_node_cap_raises(monkeypatch):
    monkeypatch.setattr(graphs, "ISO_NODE_CAP", 3)
    g = complete(8)
    with pytest.raises(BudgetExceededError) as info:
        is_isomorphic(g, relabel(g, (7, 6, 5, 4, 3, 2, 1, 0)))
    message = str(info.value)
    assert "order 8" in message and "4 steps" in message
    assert BudgetExceededError is graphs.BudgetExceededError
    report = claims.evaluate_claim("fig1.noniso")
    assert report.status == "skipped-budget"
    assert "order 10" in report.certificates["budget_error"]


def test_isomorphism_rejects_unions_with_different_components(monkeypatch):
    # 5*C6 against 4*C6 + 2*C3 agrees in order, size and degrees; without
    # component matching the search exhausts any cap here (50,000 nodes at order 30)
    monkeypatch.setattr(graphs, "ISO_NODE_CAP", 20)
    five = _union(*[cycle(6)] * 5)
    mixed = _union(*[cycle(6)] * 4, cycle(3), cycle(3))
    assert (five.n, five.m, five.degree_sequence()) == (mixed.n, mixed.m, mixed.degree_sequence())
    assert is_isomorphic(five, mixed) == (False, None)
    perm = list(range(30))
    random.Random(30).shuffle(perm)
    moved = relabel(five, tuple(perm))
    iso, mapping = is_isomorphic(five, moved)
    assert iso and relabel(five, mapping).adj == moved.adj


def test_isomorphism_cap_is_shared_across_components(monkeypatch):
    # each C6 pair takes 2 individualisation nodes, 10 over the whole union;
    # a cap applied per component pair would never raise here
    five = _union(*[cycle(6)] * 5)
    perm = list(range(30))
    random.Random(30).shuffle(perm)
    moved = relabel(five, tuple(perm))
    monkeypatch.setattr(graphs, "ISO_NODE_CAP", 8)
    with pytest.raises(BudgetExceededError) as info:
        is_isomorphic(five, moved)
    assert "order 6" in str(info.value) and "9 steps" in str(info.value)
    monkeypatch.setattr(graphs, "ISO_NODE_CAP", 10)
    iso, mapping = is_isomorphic(five, moved)
    assert iso and relabel(five, mapping) == moved


def test_isomorphism_matches_components_of_the_same_shape(monkeypatch):
    # every component is 4-regular on 10 vertices, so only isomorphism
    # classes tell these unions apart; the search alone needed more than
    # 50,000 nodes on the first pair
    monkeypatch.setattr(graphs, "ISO_NODE_CAP", 100)
    left, right = fig1_left(), fig1_right()
    assert is_isomorphic(_union(left, left, left, left, right),
                         _union(left, left, left, right, right)) == (False, None)
    assert is_isomorphic(_union(left, left, left, right),
                         _union(left, left, right, right)) == (False, None)
    g = _union(left, left, left, right, right)
    perm = list(range(50))
    random.Random(5).shuffle(perm)
    h = relabel(g, tuple(perm))
    iso, mapping = is_isomorphic(g, h)
    assert iso
    _assert_checked(g, h, iso, mapping)


def _pinned_iso_pairs():
    rng = random.Random(73)
    pairs = []
    for _ in range(24):  # relabelled random graphs, sparse to dense
        g = random_graph(rng, rng.randint(1, 30), rng.choice((0.1, 0.3, 0.5, 0.8)))
        perm = list(range(g.n))
        rng.shuffle(perm)
        pairs.append((g, relabel(g, tuple(perm))))
    for n, k in ((12, 3), (16, 4), (20, 3), (18, 5)):
        g = random_regular_graph(rng, n, k)
        pairs.append((g, random_regular_graph(rng, n, k)))
        perm = list(range(n))
        rng.shuffle(perm)
        twice = disjoint_union(g, g)
        pairs.append((twice, relabel(twice, tuple(perm + [v + n for v in range(n)]))))
    pairs += [(pair.g, pair.g_prime) for pair in map(regular_construction, (2, 3, 4))]
    pairs += [(grid_lattice(4), shrikhande()), (fig1_left(), fig1_right())]
    return pairs


def test_isomorphism_results_are_pinned():
    # one digest over the verdicts and mappings of 37 pairs, 28 of them
    # isomorphic: a change to the search that must not change its answers
    # returns the same mapping, not just some isomorphism
    digest = hashlib.sha256()
    for g, h in _pinned_iso_pairs():
        digest.update(repr(is_isomorphic(g, h)).encode())
    assert digest.hexdigest() == \
        "93466f2ee0bb0bc46141c41dcb63e2d844d2d8dbf3ba9ddbfc1dd75bd27dd7f5"


def test_isomorphism_spends_exactly_its_pinned_nodes(monkeypatch):
    # refinement cannot tell the rook's graph from Shrikhande, so the rook's
    # graph is searched against the other side's Shrikhande component to
    # exhaustion before it meets its own copy: 120 nodes in all
    both = disjoint_union(grid_lattice(4), shrikhande())
    swapped = relabel(both, tuple((v + 16) % 32 for v in range(32)))
    monkeypatch.setattr(graphs, "ISO_NODE_CAP", 119)
    with pytest.raises(BudgetExceededError) as info:
        is_isomorphic(both, swapped)
    assert "order 16" in str(info.value) and "120 steps" in str(info.value)
    monkeypatch.setattr(graphs, "ISO_NODE_CAP", 120)
    iso, mapping = is_isomorphic(both, swapped)
    assert iso and relabel(both, mapping) == swapped


Q3 = cartesian(complete(2), cartesian(complete(2), complete(2)))


def _assert_group(g, group, expected=None):
    # a list of distinct permutations, identity first, each carrying every
    # row onto the row of its image, closed under composition; equal to the
    # oracle's group when one is given, or to the identity alone when that
    # group is longer than the cap
    identity = bytes(range(g.n))
    assert group[0] == identity and len(set(group)) == len(group)
    if expected is not None:
        assert set(group) == (expected if len(expected) <= AUT_GROUP_CAP else {identity})
    for p in group:
        assert sorted(p) == list(range(g.n))
        for v in range(g.n):
            assert mask_from(p[u] for u in bits(g.adj[v])) == g.adj[p[v]]
    members = set(group)
    rng = random.Random(g.n)
    # right multiplication by a member permutes a group; for large groups
    # a sample of members stands in for all of them
    for q in group if len(group) <= 200 else rng.sample(group, 8):
        assert {bytes(q[x] for x in p) for p in group} == members


def test_automorphism_group_matches_brute_force():
    rng = random.Random(61)
    fixtures = [empty(0), empty(1), empty(4), complete(7), Q3, complete_bipartite(3, 3),
                complete_bipartite(1, 6), ex32_g(), ex32_gprime()]
    fixtures += [cycle(n) for n in range(3, 9)] + [path(n) for n in range(2, 8)]
    while len(fixtures) < 80:
        fixtures.append(random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.4, 0.6, 0.8))))
    sizes = set()
    for g in fixtures:
        group = automorphism_group(g)
        _assert_group(g, group, brute_force_automorphisms(g))
        sizes.add(len(group))
    assert len(sizes) >= 10


def test_automorphism_group_matches_networkx_vf2():
    nx = pytest.importorskip("networkx")
    matcher = nx.algorithms.isomorphism.GraphMatcher
    rng = random.Random(67)
    fixtures = [PETERSEN, FRUCHT, fig1_left(), fig1_right(), cycle(20),
                disjoint_union(cycle(5), PETERSEN)]
    fixtures += [random_graph(rng, rng.randint(9, 20), rng.choice((0.15, 0.3, 0.5)))
                 for _ in range(16)]
    fixtures += [random_regular_graph(rng, n, k) for n, k in ((10, 3), (12, 4), (14, 3), (16, 5))]
    for g in fixtures:
        nxg = _to_nx(nx, g)
        expected = {bytes(m[v] for v in range(g.n)) for m in matcher(nxg, nxg).isomorphisms_iter()}
        _assert_group(g, automorphism_group(g), expected)


def test_automorphism_group_orders():
    # |Aut(K4 x K4 rook graph)| = 2 * 4!^2, |Aut(G v G)| = 2 |Aut(G)|^2 for a
    # connected G whose complement is connected
    orders = {"petersen": (PETERSEN, 120), "Q3": (Q3, 48),
              "K3,3": (complete_bipartite(3, 3), 72), "fig1_left": (fig1_left(), 16),
              "frucht": (FRUCHT, 1), "r4": (grid_lattice(4), 1152),
              "shrikhande": (shrikhande(), 192),
              "join.iterated.fig1": (iterated_join(fig1_left(), 1), 512)}
    orders.update((f"C{n}", (cycle(n), 2 * n)) for n in range(3, 21))
    for name, (g, order) in orders.items():
        group = automorphism_group(g)
        assert len(group) == order, name
        _assert_group(g, group)


def test_automorphism_groups_are_pinned():
    # one digest over the full lists, order included, so the generators and
    # their closure are the same element for element, not just the same group
    rng = random.Random(71)
    fixtures = [empty(0), empty(1), PETERSEN, grid_lattice(4), shrikhande(), fig1_left(),
                iterated_join(fig1_left(), 1), cartesian(cycle(6), cycle(6))]
    fixtures += [random_graph(rng, rng.randint(2, 24), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
                 for _ in range(24)]
    fixtures += [random_regular_graph(rng, n, k) for n, k in ((12, 3), (16, 4), (20, 3), (24, 5))]
    digest = hashlib.sha256()
    for g in fixtures:
        digest.update(repr(automorphism_group(g)).encode())
    assert digest.hexdigest() == \
        "1086df025404167d06c6490cd1c220d5f18e9edc1dd790b48c9b23ed51d48f5b"


def test_automorphism_group_falls_back_to_the_identity(monkeypatch):
    # past the order cap, or past the generator search's budget, the
    # answer is the trivial subgroup: still a group, never a partial list
    assert automorphism_group(complete(8)) == [bytes(range(8))]  # 40,320 elements
    monkeypatch.setattr(graphs, "AUT_GROUP_CAP", 119)
    assert automorphism_group(PETERSEN) == [bytes(range(10))]
    monkeypatch.setattr(graphs, "AUT_GROUP_CAP", 120)
    assert len(automorphism_group(PETERSEN)) == 120
    monkeypatch.setattr(graphs, "ISO_NODE_CAP", 0)
    assert automorphism_group(PETERSEN) == [bytes(range(10))]


def test_random_regular_graph_returns_empty_and_complete_without_drawing():
    # K_n admits no double-edge swap, so no attempt may be spent on it
    rng = random.Random(17)
    state = rng.getstate()
    for n in range(1, 12):
        assert random_regular_graph(rng, n, n - 1) == complete(n)
        assert random_regular_graph(rng, n, 0) == empty(n)
    assert rng.getstate() == state


def test_random_regular_graph_of_degree_n_minus_two():
    # K_n minus a perfect matching, drawn from rng without double-edge swaps
    rng = random.Random(19)
    for n in range(4, 65, 2):
        g = random_regular_graph(rng, n, n - 2)
        assert g.n == n and g.is_regular() == n - 2
    assert len({random_regular_graph(rng, 10, 8).adj for _ in range(5)}) > 1


def test_dense_random_regular_graph_is_the_complement_of_a_sparse_draw():
    # above half the order few double-edge swaps exist, so the complement of
    # the (n - 1 - k)-regular draw from the same rng state is returned
    for n in range(2, 17):
        for k in range(n):
            if 2 * k > n - 1 and n * k % 2 == 0:
                rng = random.Random(n * 100 + k)
                sparse = random_regular_graph(random.Random(n * 100 + k), n, n - 1 - k)
                g = random_regular_graph(rng, n, k)
                assert g == complement(sparse) and g.is_regular() == k


def test_graph6_k2():
    assert emit_graph6(complete(2)) == "A_"


def test_graph6_round_trips():
    for g in (empty(0), empty(1), complete(2), fig1_left(), grid_lattice(4),
              ex32_gprime()):
        assert parse_graph6(emit_graph6(g)) == g
    rng = random.Random(29)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 12))
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_long_form_orders():
    # orders 63 and 64 need the multi-byte size prefix
    for n in (63, 64):
        g = from_edges(n, [(0, n - 1), (1, 2)])
        s = emit_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<A_") == complete(2)
    with pytest.raises(GraphError):
        parse_graph6("A")  # truncated body
    with pytest.raises(OrderCapError, match="order 4096 outside 0..64"):
        parse_graph6("~" + chr(63 + 1) + chr(63) + chr(63))  # order 4096
    with pytest.raises(GraphError, match="unsupported graph6 size encoding"):
        parse_graph6("~~??????" + "?" * 4)  # 6-byte order prefix
    # a body byte outside "?".."~" is named, the first one when there are two
    for text, bad in (("A>", ">"), ("D?\x7f", "\x7f"), ("D>\x7f", ">")):
        with pytest.raises(GraphError, match=re.escape(f"invalid graph6 character {bad!r}")):
            parse_graph6(text)


def _seeded_graphs_of_every_order():
    # one graph of each order 0..64 at a density drawn per order, so the
    # long size form (orders 63 and 64) and every padding length occur
    rng = random.Random(67)
    return [random_graph(rng, n, rng.random()) for n in range(65)]


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in _seeded_graphs_of_every_order():
        other = nx.Graph()
        other.add_nodes_from(range(g.n))
        other.add_edges_from(g.edges())
        text = nx.to_graph6_bytes(other, nodes=range(g.n), header=False).strip()
        assert emit_graph6(g).encode() == text
        back = nx.from_graph6_bytes(emit_graph6(g).encode())
        assert sorted(back.nodes) == list(range(g.n))
        assert parse_graph6(text.decode()) == from_edges(g.n, back.edges) == g


def test_edgelist():
    assert parse_edgelist("0 1\n1 2") == path(3)
    g = fig1_left()
    assert parse_edgelist(emit_edgelist(g)) == g
    assert parse_edgelist("", n=3) == empty(3)
    with pytest.raises(GraphError):
        parse_edgelist("0 1 2")
    with pytest.raises(OrderCapError):
        parse_edgelist("0 " + "9" * 20)


def test_mask_helpers():
    assert mask_from([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]


@pytest.mark.parametrize("name, args, order", [
    ("path", (10 ** 9,), 10 ** 9), ("cycle", (10 ** 9,), 10 ** 9),
    ("complete", (10 ** 6,), 10 ** 6), ("complete_bipartite", (10 ** 5, 10 ** 5), 2 * 10 ** 5),
    ("empty", (10 ** 9,), 10 ** 9), ("circulant", (10 ** 9, [1]), 10 ** 9),
    ("circulant", (10 ** 6, range(1, 10 ** 6)), 10 ** 6),
    # the operators hand Graph their rows lazily, and Graph checks the order first
    ("tensor", (complete(64), complete(64)), 4096), ("cartesian", (complete(64), complete(64)), 4096),
    ("join", (complete(64), complete(1)), 65), ("disjoint_union", (complete(64), complete(1)), 65),
    ("line_graph", (complete(13),), 78), ("line_graph", (complete(64),), 2016),
    # just past the cap, from operands inside it
    ("tensor", (complete(9), complete(9)), 81), ("join", (empty(40), empty(40)), 80)])
def test_builders_check_the_order_before_building_any_edge(name, args, order):
    build = getattr(graphs, name)
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapError, match=f"order {order} outside 0..64"):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_builder_parameters_outside_the_cap():
    # circulant offsets count modulo the order, so any offset not 0 mod n is valid
    assert build_named("circulant", 8, 100) == circulant(8, [4])
    assert build_named("circulant", 8, -3) == circulant(8, [5])
    # the order is checked before any offset is read
    with pytest.raises(OrderCapError, match="order 100 outside 0..64"):
        circulant(100, [0])
    with pytest.raises(OrderCapError, match="order 65 outside 0..64"):
        build_named("path", 65)
    with pytest.raises(OrderCapError, match="order -1 outside 0..64"):
        build_named("complete", -1)
    with pytest.raises(GraphError, match="parts need order >= 0, got -1 and 3"):
        build_named("complete_bipartite", -1, 3)
