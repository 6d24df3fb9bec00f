import ast
import random
import sys
from fractions import Fraction

import pytest

from oracles import fraction_rank, principal_minors_psd
from zfforge import certify, forcing, skew_rank
from zfforge.certify import (ForcingCertificate, MatrixCertificate, Rule, SkewWitness,
                             _int_rank, exact_rank, matrix_nullity)
from zfforge.constructions import (hollow_matrix, shifted_adjacency, shrikhande, tensor_bound,
                                   tensor_family, torus_bound)
from zfforge.forcing import zero_forcing_number
from zfforge.graphs import (cartesian, complete, cycle, ex32_g, ex32_gprime, fig1_left,
                            from_edges, grid_lattice, path, tensor)
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


@pytest.mark.parametrize("data, field", [
    ({"rule": "standard", "initial": 0, "forces": []}, "initial"),
    ({"rule": "standard", "initial": "01", "forces": []}, "initial"),
    ({"rule": "standard", "initial": [0], "forces": [[0]]}, "forces"),
    ({"rule": "standard", "initial": [0], "forces": [[0, 1, 2]]}, "forces"),
    ({"rule": "standard", "initial": [0], "forces": 5}, "forces"),
    ({"rule": "standard", "initial": [0], "forces": [5]}, "forces"),
])
def test_forcing_certificate_from_json_names_the_malformed_field(data, field):
    with pytest.raises(ValueError, match=field):
        ForcingCertificate.from_json(data)


def test_forcing_certificate_from_json_round_trips():
    cert = ForcingCertificate(Rule.PSD, [0, 2], [(0, 1), (2, 3)])
    assert ForcingCertificate.from_json(cert.to_json()) == cert
    assert ForcingCertificate.from_json({"rule": "psd", "initial": (0, 2),
                                         "forces": ((0, 1), (2, 3))}) == cert


def test_matrix_certificate_from_json_reads_integers_only():
    cert = torus_bound(3)
    assert MatrixCertificate.from_json(cert.to_json()) == cert
    as_strings = {"kind": "psd", "rows": [["2", "-1"], ["-1", "2"]]}
    assert MatrixCertificate.from_json(as_strings).rows == ((2, -1), (-1, 2))
    for value in (1.5, True, "1/2", None):
        with pytest.raises(ValueError):
            MatrixCertificate.from_json({"kind": "psd", "rows": [[2, value], [value, 2]]})
    for rows in (0, [1, 2], "12"):
        with pytest.raises(ValueError, match="rows"):
            MatrixCertificate.from_json({"kind": "psd", "rows": rows})


def _ex32_tensor():
    # the tensor.Z.G graph and its B (x) C, B the seed-0 skew witness of ex32_g
    witness = max_nullity_witness_search(ex32_g(), seed=0)
    return tensor(ex32_g(), complete(3)), tensor_bound(MatrixCertificate.from_witness(witness), 3)


def _changed(cert, *changes, kind=None):
    rows = [list(row) for row in cert.rows]
    for i, j, value in changes:
        rows[i][j] = value
    return MatrixCertificate(kind or cert.kind, rows)


def _mutations():
    g, cert = _ex32_tensor()
    (i, j), (u, v) = g.edges()[0], next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                                        if not g.has_edge(u, v))
    w = cert.rows[i][j]
    skew_g = ex32_g()
    skew = MatrixCertificate.from_witness(max_nullity_witness_search(skew_g, seed=0))
    mate = shrikhande()
    return [
        ("a weight set to 0", g, _changed(cert, (i, j, 0), (j, i, 0)), Rule.STANDARD, "on an edge"),
        ("a weight on a non-edge", g, _changed(cert, (u, v, 1), (v, u, 1)), Rule.STANDARD,
         "on a non-edge"),
        ("an asymmetric pair", g, _changed(cert, (i, j, w + 1)), Rule.STANDARD, "symmetric"),
        ("a skew pair that is symmetric", skew_g, _changed(skew, (1, 0, skew.rows[0][1])),
         Rule.SKEW, "skew-symmetric"),
        ("a nonzero skew diagonal", skew_g, _changed(skew, (6, 6, 1)), Rule.SKEW,
         "nonzero diagonal"),
        ("A + I on the switched rook's graph", mate, shifted_adjacency(mate, 1), Rule.PSD,
         "not positive semidefinite"),
        ("A - I, a negative diagonal", mate, shifted_adjacency(mate, -1), Rule.PSD,
         "not positive semidefinite"),
        ("a zero diagonal under psd", path(2), shifted_adjacency(path(2), 0), Rule.PSD,
         "not positive semidefinite"),
        ("a matrix for the cospectral rook's graph", grid_lattice(4),
         shifted_adjacency(mate, 2), Rule.PSD, "edge of the pattern"),
        ("a matrix for a smaller torus", cartesian(cycle(4), cycle(4)), torus_bound(3),
         Rule.STANDARD, "not 16 by 16"),
        ("a symmetric matrix under psd", g, cert, Rule.PSD, "does not bound"),
        ("a symmetric matrix under skew", g, cert, Rule.SKEW, "does not bound"),
        ("a skew matrix under the standard rule", skew_g, skew, Rule.STANDARD, "does not bound"),
        ("a psd matrix under skew", mate, shifted_adjacency(mate, 2), Rule.SKEW, "does not bound"),
        ("an unknown kind", g, _changed(cert, kind="hermitian"), Rule.STANDARD, "does not bound"),
        ("a bool entry", g, _changed(cert, (i, j, True), (j, i, True)), Rule.STANDARD,
         "not an integer"),
    ]


@pytest.mark.parametrize("case", _mutations(), ids=lambda case: case[0])
def test_matrix_mutations_raise_in_the_checker_and_the_solver(case):
    _name, g, cert, rule, message = case
    with pytest.raises(ValueError, match=message):
        matrix_nullity(g, cert, rule)
    with pytest.raises(ValueError, match=message):
        zero_forcing_number(g, rule, lower_bound=cert)


def test_unmutated_matrices_pass_the_checker():
    g, cert = _ex32_tensor()
    assert matrix_nullity(g, cert, Rule.STANDARD) == 13
    mate = shrikhande()
    for rule in (Rule.STANDARD, Rule.PSD):
        assert matrix_nullity(mate, shifted_adjacency(mate, 2), rule) == 9
    skew = MatrixCertificate.from_witness(max_nullity_witness_search(ex32_g(), seed=0))
    assert matrix_nullity(ex32_g(), skew, Rule.SKEW) == 3
    # a principal block: the isolated vertex of C6 u K1, and the cycle
    assert matrix_nullity(ex32_g(), skew, Rule.SKEW, 1 << 6) == 1
    assert matrix_nullity(ex32_g(), skew, Rule.SKEW, (1 << 6) - 1) == 2


def _random_pattern_matrix(rng, n, density):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-3, 3)
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return rows


def _pattern_of(rows):
    n = len(rows)
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]])


def test_matrix_nullity_matches_sympy_rank_on_seeded_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(34)
    for _ in range(150):
        n = rng.randint(1, 8)
        rows = _random_pattern_matrix(rng, n, rng.choice((0.2, 0.5, 0.9)))
        g = _pattern_of(rows)
        want = n - sympy.Matrix(rows).rank()
        assert matrix_nullity(g, MatrixCertificate("symmetric", rows), Rule.STANDARD) == want
        skew = [[rows[i][j] if i < j else -rows[j][i] if i > j else 0 for j in range(n)]
                for i in range(n)]
        want = n - sympy.Matrix(skew).rank()
        assert matrix_nullity(g, MatrixCertificate("skew", skew), Rule.SKEW) == want


def test_psd_check_matches_the_principal_minor_oracle_on_seeded_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3434)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:  # X^T X: psd, of rank at most k
            k = rng.randint(1, n)
            x = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            rows = [[sum(x[t][i] * x[t][j] for t in range(k)) for j in range(n)]
                    for i in range(n)]
        else:  # diagonally shifted: psd or not, near the boundary
            rows = _random_pattern_matrix(rng, n, 0.6)
            for i in range(n):
                rows[i][i] = sum(abs(v) for v in rows[i]) - abs(rows[i][i]) - rng.randint(0, 2)
        psd = principal_minors_psd(rows)
        verdicts[psd] += 1
        cert = MatrixCertificate("psd", rows)
        g = _pattern_of(rows)
        if psd:
            assert matrix_nullity(g, cert, Rule.PSD) == n - sympy.Matrix(rows).rank()
            assert _int_rank(rows, psd=True) == _int_rank(rows)
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                matrix_nullity(g, cert, Rule.PSD)
    assert min(verdicts.values()) > 30


def test_hollow_and_tensor_matrices_reach_the_tensor_values():
    # the base A of tensor.Zminus: weights in g.edges() order, nullity Z_minus
    for g, weights, z_minus in ((ex32_g(), (1, 1, 1, 1, 1, -1), 3), (ex32_gprime(), None, 1)):
        base = hollow_matrix(g, weights)
        witness = MatrixCertificate.from_witness(max_nullity_witness_search(g, seed=0))
        assert matrix_nullity(g, base, Rule.STANDARD) == z_minus
        assert matrix_nullity(g, witness, Rule.SKEW) == z_minus
        for r in (3, 4, 5):
            product = tensor(g, complete(r))
            value = (r - 2) * g.n + 2 * z_minus
            assert matrix_nullity(product, tensor_bound(witness, r), Rule.STANDARD) == value
            assert matrix_nullity(product, tensor_bound(base, r), Rule.SKEW) == value
    with pytest.raises(ValueError, match="6 weights for 5 edges"):
        hollow_matrix(path(6), (1,) * 6)
