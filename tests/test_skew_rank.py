import random
from fractions import Fraction

import pytest

from oracles import fraction_rank, gf2_rank_by_lists, unfiltered_witness_search
from zfforge import skew_rank
from zfforge.forcing import Rule, zero_forcing_number
from zfforge.graphs import (complete, cycle, empty, ex32_g, ex32_gprime, fig1_left,
                            fig1_right, from_edges, path)
from zfforge.randgraphs import random_graph
from zfforge.skew_rank import (_ENTRY_CHOICES, SkewWitness, _draw_entries, _gf2_rank,
                               _int_rank, _parity_rows, exact_rank,
                               max_nullity_witness_search)


def _witness(g, entries):
    mapped = tuple(sorted((i, j, Fraction(v)) for (i, j), v in entries.items()))
    nullity = g.n - _rank(g, entries)
    return SkewWitness(g, mapped, nullity, certified=False)


def _rank(g, entries):
    mapped = tuple(sorted((i, j, Fraction(v)) for (i, j), v in entries.items()))
    probe = SkewWitness(g, mapped, 0, certified=False)
    return exact_rank(probe)


def test_c6_pfaffian_cancellation():
    # with the five tree entries at 1, exactly one sign of the closing entry
    # kills the Pfaffian and drops the rank from 6 to 4
    g = cycle(6)
    base = {(i, i + 1): 1 for i in range(5)}
    ranks = set()
    for closing in (1, -1):
        entries = dict(base)
        entries[(0, 5)] = closing
        ranks.add(_rank(g, entries))
    assert ranks == {4, 6}


def test_spider_tree_rank_is_twice_matching_number():
    g = ex32_gprime()
    entries = {e: 1 for e in g.edges()}
    assert _rank(g, entries) == 6  # matching number 3
    witness = max_nullity_witness_search(g)
    assert witness.achieved_nullity == 1
    assert witness.certified


def test_empty_graph_nullity():
    witness = max_nullity_witness_search(empty(5))
    assert witness.achieved_nullity == 5
    assert exact_rank(witness) == 0


def test_k2_nullity_zero():
    witness = max_nullity_witness_search(complete(2))
    assert witness.achieved_nullity == 0
    assert exact_rank(witness) == 2


def test_ex32_certifications():
    for g, expected in ((ex32_g(), 3), (ex32_gprime(), 1)):
        witness = max_nullity_witness_search(g)
        z_minus = zero_forcing_number(g, Rule.SKEW).value
        assert witness.achieved_nullity == expected == z_minus
        assert g.n - exact_rank(witness) == expected
        assert witness.certified


def test_rank_always_even_random():
    rng = random.Random(307)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 7))
        entries = {e: rng.choice((1, -1, 2, -2, 3, -3)) for e in g.edges()}
        assert _rank(g, entries) % 2 == 0


def test_nullity_never_exceeds_skew_forcing_number():
    rng = random.Random(311)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6))
        witness = max_nullity_witness_search(g, budget=2000)
        z_minus = zero_forcing_number(g, Rule.SKEW).value
        assert witness.achieved_nullity <= z_minus


def test_scaling_invariance():
    g = cycle(6)
    entries = {(i, i + 1): 1 for i in range(5)}
    entries[(0, 5)] = -1
    scaled = {e: 7 * v for e, v in entries.items()}
    assert _rank(g, entries) == _rank(g, scaled) == 4


def test_pattern_validation():
    g = path(3)
    with pytest.raises(ValueError):
        _rank(g, {(0, 1): 1})  # missing edge entry
    with pytest.raises(ValueError):
        _rank(g, {(0, 1): 1, (1, 2): 1, (0, 2): 1})  # non-edge entry
    with pytest.raises(ValueError):
        _rank(g, {(0, 1): 0, (1, 2): 1})  # zero on an edge
    with pytest.raises(ValueError):
        _rank(g, {(1, 0): 1, (1, 2): 1})  # lower-triangle key
    # an edge listed twice, which a dict cannot hold: the first bad entry is named
    for first, message in ((0, "must be nonzero"), (2, "listed more than once")):
        twice = [(0, 1, Fraction(first)), (0, 1, Fraction(1)), (1, 2, Fraction(1))]
        with pytest.raises(ValueError, match=message):
            exact_rank(SkewWitness(g, twice, 1, False))


def test_randomized_mode_is_seeded_and_uncertified():
    g = cycle(6)  # one free edge: a grid of 6, above the budget of 5
    seen = max_nullity_witness_search(g, budget=5, seed=5)
    again = max_nullity_witness_search(g, budget=5, seed=5)
    assert not seen.certified
    assert seen.entries == again.entries
    assert seen.achieved_nullity == again.achieved_nullity


def test_budget_truncation_flags_uncertified():
    g = from_edges(8, cycle(4).edges() + [(4 + u, 4 + v) for u, v in cycle(4).edges()])
    witness = max_nullity_witness_search(g, budget=3)
    assert not witness.certified
    assert witness.achieved_nullity >= 0
    with pytest.raises(ValueError):
        max_nullity_witness_search(g, budget=0)


def test_witness_json_roundtrip():
    g = ex32_g()
    witness = max_nullity_witness_search(g, seed=9)
    data = witness.to_json()
    assert data["nullity"] == witness.achieved_nullity
    assert data["seed"] == 9
    back = SkewWitness.from_json(g, data)
    assert back.entries == witness.entries
    assert exact_rank(back) == exact_rank(witness)


def test_int_rank_matches_fraction_elimination():
    rng = random.Random(317)
    for _ in range(240):
        g = random_graph(rng, rng.randint(0, 10), rng.choice((0.2, 0.5, 0.8)))
        entries = {e: rng.choice((1, -1, 2, -2, 3, -3, 7, -12)) for e in g.edges()}
        mat = [[0] * g.n for _ in range(g.n)]
        for (i, j), v in entries.items():
            mat[i][j], mat[j][i] = v, -v
        before = [row[:] for row in mat]
        assert _int_rank(mat) == fraction_rank(g, entries)
        assert mat == before  # the search reuses one matrix across samples


def test_int_rank_rectangular_and_degenerate():
    assert _int_rank([]) == 0
    assert _int_rank([[0, 0], [0, 0]]) == 0
    assert _int_rank([[2, 4, 6], [1, 2, 3]]) == 1
    assert _int_rank([[0, 1, 2], [0, 2, 5], [0, 0, 0]]) == 2


# fig1_left witnesses recorded with Fraction elimination in the search; ranking
# integer matrices must reproduce them byte for byte
_FIG1_LEFT_WITNESS = {
    0: [[0, 1, "1"], [0, 5, "1"], [0, 7, "1"], [0, 9, "1"], [1, 2, "1"], [1, 6, "-2"],
        [1, 7, "3"], [2, 3, "1"], [2, 6, "1"], [2, 8, "1"], [3, 4, "3"], [3, 7, "2"],
        [3, 8, "-2"], [4, 5, "-2"], [4, 8, "3"], [4, 9, "1"], [5, 6, "-3"], [5, 9, "-3"],
        [6, 9, "1"], [7, 8, "-1"]],
    1009: [[0, 1, "1"], [0, 5, "1"], [0, 7, "1"], [0, 9, "1"], [1, 2, "2"], [1, 6, "1"],
           [1, 7, "-1"], [2, 3, "1"], [2, 6, "1"], [2, 8, "1"], [3, 4, "1"], [3, 7, "-2"],
           [3, 8, "2"], [4, 5, "1"], [4, 8, "-1"], [4, 9, "1"], [5, 6, "2"], [5, 9, "-3"],
           [6, 9, "1"], [7, 8, "3"]],
}


def test_fig1_left_witness_is_pinned():
    for seed, edges in _FIG1_LEFT_WITNESS.items():
        witness = max_nullity_witness_search(fig1_left(), seed=seed)
        assert witness.to_json() == {"edges": edges, "nullity": 2,
                                     "certified": False, "seed": seed}


def test_parity_filter_returns_the_unfiltered_witness():
    # a grid of 6^4 is searched whole when a component has at most four free
    # edges; a budget of 40 samples every larger grid
    rng = random.Random(331)
    modes = set()
    for k in range(30):
        g = random_graph(rng, rng.randint(1, 10), rng.choice((0.15, 0.3, 0.5, 0.8)))
        for budget in (6 ** 4, 40):
            seed = 7 * k + budget
            witness = max_nullity_witness_search(g, budget=budget, seed=seed)
            assert witness.to_json() == unfiltered_witness_search(
                g, budget=budget, seed=seed).to_json()
            modes.add(witness.certified)
    assert modes == {True, False}
    for g in (fig1_left(), fig1_right()):
        for seed in (0, 1, 1009):
            assert (max_nullity_witness_search(g, seed=seed).to_json()
                    == unfiltered_witness_search(g, seed=seed).to_json())


def test_entry_draws_match_random_choice():
    # every seeded witness depends on drawing exactly what rng.choice draws
    for seed in range(64):
        ours, ref = random.Random(seed), random.Random(seed)
        for count in (0, 1, 6, 29, 200):
            assert _draw_entries(ours, count) == tuple(
                ref.choice(_ENTRY_CHOICES) for _ in range(count))
        assert ours.getstate() == ref.getstate()


def test_gf2_rank_matches_list_elimination():
    rng = random.Random(337)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
        matrix = [[rng.random() < 0.4 for _ in range(ncols)] for _ in range(nrows)]
        rows = [sum(1 << c for c, x in enumerate(row) if x) for row in matrix]
        rank = gf2_rank_by_lists(matrix)
        for stop in range(ncols + 2):
            assert _gf2_rank(rows, stop) == min(rank, stop)


def test_parity_rank_never_exceeds_rational_rank():
    rng = random.Random(347)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), rng.choice((0.3, 0.6, 0.9)))
        edges = g.edges()
        values = [rng.choice((1, -1, 2, -2, 3, -3, 7, -7)) for _ in edges]
        mat = [[0] * g.n for _ in range(g.n)]
        for (i, j), v in zip(edges, values):
            mat[i][j], mat[j][i] = v, -v
        rows = _parity_rows(g.adj, edges, values)
        assert rows == [sum(1 << c for c, x in enumerate(row) if x % 2) for row in mat]
        assert _gf2_rank(rows, g.n) == gf2_rank_by_lists(mat) <= _int_rank(mat)


def test_fig1_left_ranks_few_samples_exactly(monkeypatch):
    # ranking every sample would take 4,000 exact ranks; only those the
    # parity bound cannot rule out are ranked
    calls = []
    rank = skew_rank._int_rank
    monkeypatch.setattr(skew_rank, "_int_rank", lambda mat: calls.append(1) or rank(mat))
    witness = max_nullity_witness_search(fig1_left(), seed=0)
    assert witness.to_json()["edges"] == _FIG1_LEFT_WITNESS[0]
    assert 1 <= len(calls) <= 200
