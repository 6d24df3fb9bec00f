import ast
import random
import sys
from fractions import Fraction

import pytest

from oracles import fraction_rank
from zfforge import certify, forcing, skew_rank
from zfforge.certify import SkewWitness, exact_rank
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
    # seeded patterns with fractional entries, which exact_rank scales to integers
    rng = random.Random(331)
    choices = [sign * Fraction(v) for v in (1, 2, 3, Fraction(1, 2), Fraction(7, 3))
               for sign in (1, -1)]
    fractional = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 9), rng.choice((0.2, 0.5, 0.8)))
        entries = {e: rng.choice(choices) for e in g.edges()}
        fractional += any(v.denominator > 1 for v in entries.values())
        witness = SkewWitness(g, [(i, j, v) for (i, j), v in entries.items()], 0, False)
        assert exact_rank(witness) == fraction_rank(g, entries)
    assert fractional > 100


@pytest.mark.parametrize("first", [(-1, 1), (1, 3), (3, 4)])
def test_exact_rank_rejects_vertices_outside_the_graph(first):
    # (-1, 1) would read row -1, the last row, where 2 ~ 1 is an edge
    entries = [(*first, Fraction(1)), (0, 1, Fraction(1)), (1, 2, Fraction(1))]
    with pytest.raises(ValueError, match="not an edge"):
        exact_rank(SkewWitness(path(3), entries, 1, False))
