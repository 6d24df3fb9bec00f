import random
import tracemalloc

import pytest

from zfforge import constructions
from zfforge.constructions import (ConstructionPair, Expected,
                                   PreconditionError, circulant_h,
                                   corollary52_family, gm_switch,
                                   grid_diagonal_part, grid_shrikhande_report,
                                   h_witness_set, join_family,
                                   planted_switching_instance,
                                   regular_construction, shrikhande,
                                   switching_partition, tensor_family,
                                   theorem51_build, torus_zero_forcing)
from zfforge.forcing import Rule, closure, verify_certificate, zero_forcing_number
from zfforge.graphs import (ORDER_CAP, OrderCapError, cartesian, circulant,
                            complement, complete, components, cycle,
                            disjoint_union, ex32_g, fig1_left, fig1_right,
                            from_edges, grid_lattice, is_isomorphic, join,
                            mask_from, path)
from zfforge.spectra import MatrixKind, cospectral

from oracles import zf_h_check


def test_switching_partition_validation():
    g = grid_lattice(4)
    part = switching_partition(g, [grid_diagonal_part(4)])
    assert part.ok
    assert part.part_counts == ((0,),)  # the diagonal is a coclique
    assert all(c == (2,) for _v, c in part.outside_counts)


def test_switching_partition_invalid_names_offender():
    g = path(5)  # vertex 1 sees two vertices of the 3-coclique {0, 2, 4}
    part = switching_partition(g, [mask_from([0, 2, 4])])
    assert not part.ok
    assert any("vertex 1 has 2 neighbours in part 0" in issue
               for issue in part.issues)
    with pytest.raises(PreconditionError):
        gm_switch(g, [mask_from([0, 2, 4])])
    # an empty part is reported as empty, not as disagreeing with itself
    part = switching_partition(g, [0])
    assert part.issues == ("part 0 is empty",)
    assert part.part_counts == ((None,),)
    part = switching_partition(g, [mask_from([0, 2]), mask_from([2, 4])])
    assert "part 1 overlaps an earlier part" in part.issues
    # a vertex beyond the graph is reported, not indexed
    part = switching_partition(g, [mask_from([0, 99])])
    assert "part 0 has vertices outside the graph" in part.issues
    with pytest.raises(PreconditionError, match="part 0 has vertices outside the graph"):
        gm_switch(g, [mask_from([0, 99])])


def test_switching_partition_rejects_uneven_part_degrees():
    # {0,1,2} induces a path inside C4's... use P3 inside P4: internal degrees differ
    g = path(4)
    part = switching_partition(g, [mask_from([0, 1, 2])])
    assert not part.ok
    assert any("disagree" in issue for issue in part.issues)


def test_gm_switch_checks_the_graph_it_switches():
    # a partition checked on the rook's graph says nothing about the rook's
    # graph minus an edge: there vertex 1 sees one diagonal vertex of four
    grid = grid_lattice(4)
    parts = [grid_diagonal_part(4)]
    assert switching_partition(grid, parts).ok
    g = from_edges(16, [e for e in grid.edges() if e != (0, 1)])
    with pytest.raises(PreconditionError, match="vertex 1 has 1 neighbours in part 0"):
        gm_switch(g, parts)


def test_gm_switch_identity_without_half_neighbourhoods():
    # every outside vertex of K4's triangle part sees all of it
    g = complete(4)
    switched = gm_switch(g, [mask_from([0, 1, 2])])
    assert switched == g


def test_gm_switch_rook_gives_cospectral_nonisomorphic_mate():
    grid = grid_lattice(4)
    mate = shrikhande()
    assert mate.is_regular() == 6 and mate.n == 16
    assert cospectral(grid, mate, MatrixKind.ADJACENCY)
    assert cospectral(complement(grid), complement(mate), MatrixKind.ADJACENCY)
    iso, _ = is_isomorphic(grid, mate)
    assert not iso


def test_gm_switch_involution_on_planted_instances():
    rng = random.Random(401)
    for _ in range(25):
        g, parts = planted_switching_instance(rng)
        assert switching_partition(g, parts).ok
        switched = gm_switch(g, parts)
        assert gm_switch(switched, parts) == g
        assert cospectral(g, switched, MatrixKind.ADJACENCY)
        assert cospectral(complement(g), complement(switched), MatrixKind.ADJACENCY)


def test_every_shipped_switch_pair_is_cospectral_with_complements():
    pairs = [regular_construction(2), regular_construction(3), theorem51_build()]
    for pair in pairs:
        assert cospectral(pair.g, pair.g_prime, MatrixKind.ADJACENCY)
        assert cospectral(complement(pair.g), complement(pair.g_prime),
                          MatrixKind.ADJACENCY)
        assert gm_switch(pair.g, pair.parts) == pair.g_prime
        assert gm_switch(pair.g_prime, pair.parts) == pair.g
    grid = grid_lattice(4)
    assert cospectral(complement(grid), complement(shrikhande()),
                      MatrixKind.ADJACENCY)


def test_theorem51_default_build():
    pair = theorem51_build()
    assert pair.g.n == 30 and pair.g_prime.n == 30
    assert switching_partition(pair.g, pair.parts).ok
    assert sorted(c.bit_count() for c in components(pair.g)) == [10, 20]
    assert cospectral(pair.g, pair.g_prime, MatrixKind.ADJACENCY)


def test_theorem51_switch_matches_direct_swap():
    pair = theorem51_build()
    direct = disjoint_union(join(fig1_right(), path(10)), fig1_left())
    iso, _ = is_isomorphic(pair.g_prime, direct)
    assert iso


def test_theorem51_preconditions_reported_individually():
    with pytest.raises(PreconditionError) as err:
        theorem51_build(path(4), cycle(4), 4)
    assert any("not regular" in p for p in err.value.problems)
    with pytest.raises(PreconditionError) as err:
        theorem51_build(cycle(4), cycle(4), 3)
    assert any("smaller than" in p for p in err.value.problems)
    with pytest.raises(PreconditionError) as err:
        theorem51_build(cycle(4), cycle(6), 6)
    assert any("orders differ" in p for p in err.value.problems)
    with pytest.raises(PreconditionError) as err:
        theorem51_build(fig1_left(), circulant(10, [1, 2]), 10)
    assert any("cospectral" in p for p in err.value.problems)
    with pytest.raises(PreconditionError) as err:
        theorem51_build(disjoint_union(cycle(3), cycle(3)), cycle(6), 6)
    assert any("connected" in p for p in err.value.problems)
    with pytest.raises(PreconditionError) as err:
        theorem51_build(cycle(6), disjoint_union(cycle(3), cycle(3)), 6)
    assert "g2 is not connected" in err.value.problems
    with pytest.raises(PreconditionError) as err:
        theorem51_build(cycle(4), path(4), 4)
    assert "g2 is not regular" in err.value.problems
    with pytest.raises(PreconditionError) as err:
        theorem51_build(cycle(4), complete(4), 4)
    assert "degrees differ (2 vs 3)" in err.value.problems


def test_theorem51_self_pair_is_isomorphic():
    pair = theorem51_build(cycle(4), cycle(4), 4)
    iso, _ = is_isomorphic(pair.g, pair.g_prime)
    assert iso
    z_g = zero_forcing_number(pair.g, Rule.STANDARD).value
    z_gp = zero_forcing_number(pair.g_prime, Rule.STANDARD).value
    assert z_g == z_gp


def test_torus_formula_against_solver():
    for s, t in ((3, 3), (3, 4), (4, 4)):
        g = cartesian(cycle(s), cycle(t))
        assert zero_forcing_number(g, Rule.STANDARD).value == torus_zero_forcing(s, t)
    assert torus_zero_forcing(3, 3) == 5
    assert torus_zero_forcing(3, 4) == 6
    assert torus_zero_forcing(4, 4) == 8
    assert torus_zero_forcing(5, 5) == 9
    with pytest.raises(ValueError):
        torus_zero_forcing(2, 5)
    with pytest.raises(ValueError):
        torus_zero_forcing(5, 4)


def test_corollary52_c3_report():
    report = corollary52_family(3)
    assert report.order == 36 and report.gap == 4
    assert report.z_first == 8 and report.z_second == 12
    assert report.g1 is not None and report.g1.is_regular() == 4
    assert report.g2 is not None and report.g2.is_regular() == 4
    assert report.to_json()["assembled"] is None
    assert "cap" in report.skipped
    with pytest.raises(ValueError):
        corollary52_family(2)


def test_corollary52_large_c_params_only():
    report = corollary52_family(5)
    assert report.order == 100 and report.gap == 12
    assert report.g1 is None and report.g2 is None


def test_regular_construction_structure():
    for k in (2, 3, 4, 5):
        pair = regular_construction(k)
        assert pair.g.n == 6 * k
        assert pair.g.is_regular() == 2 * k
        assert pair.g_prime.is_regular() == 2 * k
        assert switching_partition(pair.g, pair.parts).ok
        assert cospectral(pair.g, pair.g_prime, MatrixKind.ADJACENCY)
    with pytest.raises(ValueError, match="k >= 2"):
        regular_construction(1)
    with pytest.raises(OrderCapError, match="order 66 outside 0..64"):
        regular_construction(ORDER_CAP // 6 + 1)
    # the edges are lazy, so an order past the cap is refused before any edge exists
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapError, match="order 6000000000 outside 0..64"):
            regular_construction(10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_regular_construction_k2_values():
    pair = regular_construction(2)
    iso, _ = is_isomorphic(pair.g, pair.g_prime)
    assert not iso
    assert zero_forcing_number(pair.g, Rule.STANDARD).value == 6
    assert zero_forcing_number(pair.g_prime, Rule.STANDARD).value == 5
    expected = {e.name: e.value for e in pair.expected}
    assert expected == {"Z(g)": 6, "Z(g_prime)_upper_bound": 5, "Z(core)": 2}
    assert all(e.tag == "paper" for e in pair.expected)


def test_circulant_core():
    iso, _ = is_isomorphic(circulant_h(2), cycle(5))
    assert iso
    h3 = circulant_h(3)
    assert h3.n == 8 and h3.is_regular() == 3
    assert h_witness_set(3) == (0, 2, 3, 4)
    for k in (2, 3, 5):
        assert zf_h_check(k)
    with pytest.raises(ValueError, match="k >= 2"):
        circulant_h(1)


def test_tensor_family_fixture_values():
    fam = tensor_family(ex32_g(), 3)
    assert fam.graph.n == 21
    values = {e.name: e.value for e in fam.expected}
    assert values == {"Z(product)": 13, "Z_minus(product)": 13}
    assert fam.z_minus_base == 3
    assert fam.witness.achieved_nullity == 3


def test_tensor_family_preconditions():
    with pytest.raises(PreconditionError):
        tensor_family(cycle(4), 2)
    # a base whose best witness falls short of Z_minus cannot establish the equality
    with pytest.raises(PreconditionError, match="best witness nullity 2 != Z_minus 4"):
        tensor_family(fig1_left(), 3)


def test_join_family_fixture_pair():
    pair = join_family(fig1_left(), fig1_right(), 2)
    assert pair.g.n == 12 and pair.g_prime.n == 12
    values = {e.name: e.value for e in pair.expected}
    assert values == {"Z(g1_join)": 8, "Z(g2_join)": 6,
                      "Z_minus(g1_join)": 6, "Z_minus(g2_join)": 6}
    assert zero_forcing_number(pair.g, Rule.STANDARD).value == 8
    assert zero_forcing_number(pair.g_prime, Rule.STANDARD).value == 6


def test_families_check_their_order_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the order cap was checked")

    monkeypatch.setattr(constructions, "zero_forcing_number", no_solve)
    with pytest.raises(OrderCapError, match="order 65 outside 0..64"):
        join_family(fig1_left(), fig1_right(), 55)
    with pytest.raises(OrderCapError, match="order 70 outside 0..64"):
        tensor_family(ex32_g(), 10)


def test_join_family_preconditions():
    with pytest.raises(PreconditionError):
        join_family(path(3), complete(3), 2)  # not Laplacian-cospectral
    with pytest.raises(PreconditionError):
        join_family(cycle(4), cycle(4), 2)  # no forcing difference
    with pytest.raises(PreconditionError) as err:
        join_family(fig1_left(), fig1_right(), 0)
    assert err.value.problems == ["join family needs r >= 1"]
    with pytest.raises(PreconditionError) as err:
        join_family(disjoint_union(cycle(3), cycle(3)), cycle(6), 2)
    assert "g1 is not connected" in err.value.problems
    with pytest.raises(PreconditionError) as err:
        join_family(cycle(6), disjoint_union(cycle(3), cycle(3)), 2)
    assert "g2 is not connected" in err.value.problems
    with pytest.raises(ValueError, match="equal order"):
        ConstructionPair(path(3), path(4), "test", ())


def test_grid_shrikhande_report():
    zplus_grid = zero_forcing_number(grid_lattice(4), Rule.PSD).value
    zplus_switched = zero_forcing_number(shrikhande(), Rule.PSD).value
    report = grid_shrikhande_report(11, zplus_grid, zplus_switched)
    assert report.zplus_grid == 10 and report.zplus_switched == 9
    assert report.product_upper_bound == 99
    assert report.product_lower_bound == 100
    assert report.separation_holds
    # the report is bound arithmetic only: that the pair is cospectral and not
    # isomorphic is test_gm_switch_rook_gives_cospectral_nonisomorphic_mate's
    assert report.to_json() == {"r": 11, "zplus_grid": 10, "zplus_switched": 9,
                                "product_upper_bound": 99, "product_lower_bound": 100,
                                "separation_holds": True}
    with pytest.raises(ValueError):
        grid_shrikhande_report(10, zplus_grid, zplus_switched)


def test_construction_pair_json():
    pair = regular_construction(2)
    data = pair.to_json()
    assert data["provenance"] == "regular6k"
    assert data["params"] == {"k": 2}
    assert {e["name"] for e in data["expected"]} == {"Z(g)", "Z(g_prime)_upper_bound",
                                                     "Z(core)"}
    assert isinstance(data["g"], str) and isinstance(data["g_prime"], str)
    assert data["switching_parts"] == [sorted(list(range(5)) + [5, 6, 7])]


def test_expected_json():
    assert Expected("Z(g)", 6, "paper").to_json() == {"name": "Z(g)", "value": 6,
                                                      "tag": "paper"}


def test_paper_witness_replays_on_core():
    for k in (2, 3):
        h = circulant_h(k)
        final, cert = closure(h, Rule.STANDARD, h_witness_set(k))
        assert final == h.full_mask
        assert verify_certificate(h, cert)


def test_torus_bound_meets_the_formula_on_every_square_torus():
    from zfforge.certify import matrix_nullity
    from zfforge.constructions import torus_bound
    for s in range(3, 8):
        torus = cartesian(cycle(s), cycle(s))
        assert matrix_nullity(torus, torus_bound(s), Rule.STANDARD) == [torus_zero_forcing(s, s)]
    with pytest.raises(ValueError, match="s >= 3"):
        torus_bound(2)
