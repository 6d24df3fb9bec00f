import ast
import random
import sys
from fractions import Fraction

import pytest

from oracles import fraction_rank
from zfforge import certify, forcing, skew_rank
from zfforge.certify import SkewWitness, exact_rank
from zfforge.constructions import tensor_family
from zfforge.graphs import ex32_g, ex32_gprime, fig1_left, path
from zfforge.randgraphs import random_graph
from zfforge.skew_rank import max_nullity_witness_search

# graphs names that search: a checker that used them would trust a search
_SEARCH_NAMES = {"is_isomorphic", "automorphism_group", "_search_mapping"}


def test_certify_imports_only_graphs():
    tree = ast.parse(open(certify.__file__, encoding="utf-8").read())
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
                imported += 1
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert (node.level, node.module) == (1, "graphs"), ast.unparse(node)
                names = {alias.name for alias in node.names}
                assert "*" not in names and not names & _SEARCH_NAMES, names
            else:
                assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
            imported += 1
    assert imported  # the walk saw the imports at all


def test_certificate_names_resolve_from_their_old_modules():
    assert forcing.verify_certificate is certify.verify_certificate
    assert forcing.Rule is certify.Rule
    assert forcing.ForcingCertificate is certify.ForcingCertificate
    assert skew_rank.exact_rank is certify.exact_rank
    assert skew_rank.SkewWitness is certify.SkewWitness


def test_exact_rank_matches_fraction_oracle():
    # the witnesses the catalog and the pair audit replay
    for build in (fig1_left, ex32_g, ex32_gprime):
        for seed in (0, 1009):
            g = build()
            witness = max_nullity_witness_search(g, seed=seed)
            entries = {(i, j): v for i, j, v in witness.entries}
            rank = exact_rank(witness)
            assert rank == fraction_rank(g, entries) == g.n - witness.achieved_nullity
    # seeded patterns with integer entries; the same values as Fractions rank
    # alike, and one entry off the integers is refused
    rng = random.Random(331)
    choices = [sign * v for v in (1, 2, 3, 7) for sign in (1, -1)]
    refused = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 9), rng.choice((0.2, 0.5, 0.8)))
        entries = {e: rng.choice(choices) for e in g.edges()}
        rank = fraction_rank(g, entries)
        for convert in (int, Fraction):
            listed = [(i, j, convert(v)) for (i, j), v in entries.items()]
            assert exact_rank(SkewWitness(g, listed, 0, False)) == rank
        if entries:
            first, *rest = [[i, j, v] for (i, j), v in entries.items()]
            first[2] += Fraction(1, 2)
            with pytest.raises(ValueError, match="must be an integer"):
                exact_rank(SkewWitness(g, [first, *rest], 0, False))
            refused += 1
    assert refused > 100


def test_package_witnesses_have_int_entries_and_round_trip():
    witnesses = [max_nullity_witness_search(build(), seed=seed)
                 for build in (fig1_left, ex32_g, ex32_gprime) for seed in (0, 1009)]
    witnesses.append(tensor_family(ex32_g(), 3).witness)
    for witness in witnesses:
        assert all(type(v) is int for _i, _j, v in witness.entries)
        back = SkewWitness.from_json(witness.graph, witness.to_json())
        assert back == witness
        assert all(type(v) is int for _i, _j, v in back.entries)
        assert exact_rank(back) == exact_rank(witness)


def test_rational_entries_are_refused():
    g = path(3)
    for value in (Fraction(1, 2), Fraction(7, 3), 0.5):
        with pytest.raises(ValueError, match="must be an integer"):
            exact_rank(SkewWitness(g, [(0, 1, 1), (1, 2, value)], 1, False))
    # a number equal to an int ranks as that int
    assert exact_rank(SkewWitness(g, [(0, 1, Fraction(3)), (1, 2, 2.0)], 1, False)) == 2
    # from_json reads the strings to_json writes, and JSON integers, as ints
    for value in ("1/2", 1.5, True):
        data = {"edges": [[0, 1, "1"], [1, 2, value]], "nullity": 1, "certified": False}
        with pytest.raises(ValueError):
            SkewWitness.from_json(g, data)
    data = {"edges": [[0, 1, "-3"], [1, 2, 2]], "nullity": 1, "certified": False}
    assert SkewWitness.from_json(g, data).entries == ((0, 1, -3), (1, 2, 2))


# (0.0, 1), ("0", 1) and (True, 2) name no vertex: 0.0 and "0" are not ints,
# and True, though equal to 1, is a bool
@pytest.mark.parametrize("first", [(-1, 1), (1, 3), (3, 4), (0.0, 1), ("0", 1), (True, 2)])
def test_exact_rank_rejects_vertices_outside_the_graph(first):
    # (-1, 1) would read row -1, the last row, where 2 ~ 1 is an edge
    entries = [(*first, Fraction(1)), (0, 1, Fraction(1)), (1, 2, Fraction(1))]
    with pytest.raises(ValueError, match="not an edge"):
        exact_rank(SkewWitness(path(3), entries, 1, False))
