import hashlib
import random
from itertools import chain

import pytest

from zfforge.constructions import (planted_switching_instance, regular_construction,
                                   shrikhande)
from zfforge import spectra
from zfforge.graphs import (complete, complete_bipartite, cycle, disjoint_union,
                            empty, ex32_g, ex32_gprime, fig1_left, fig1_right,
                            grid_lattice, path, relabel, tensor)
from zfforge.randgraphs import random_graph, random_regular_graph
from zfforge.spectra import (CharPoly, MatrixKind, char_poly, cospectral,
                             laplacian_join_identity_check,
                             regular_cospectral_report, regular_join_adjacency_check)

from oracles import dense_berkowitz, det_exact, integer_roots, matrix_of

ALL_KINDS = (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN, MatrixKind.SIGNLESS_LAPLACIAN)


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pshift(p, c):
    """Coefficients of p(x + c), by Horner over (x + c)."""
    out = [p[0]]
    for a in p[1:]:
        nxt = [0] * (len(out) + 1)
        for idx, b in enumerate(out):
            nxt[idx] += b
            nxt[idx + 1] += b * c
        nxt[-1] += a
        out = nxt
    return out


def test_charpoly_k2():
    assert char_poly(complete(2)).coeffs == (1, 0, -1)


def test_charpoly_c6_from_roots():
    # oracle: expand (x-2)(x+2)(x-1)^2(x+1)^2 independently
    expected = [1]
    for root in (2, -2, 1, 1, -1, -1):
        expected = _pmul(expected, [1, -root])
    assert list(char_poly(cycle(6)).coeffs) == expected == [1, 0, -6, 0, 9, 0, -4]


def test_charpoly_triangle():
    assert char_poly(complete(3)).coeffs == (1, 0, -3, -2)


def test_charpoly_trace_and_edge_coefficients():
    corpus = [fig1_left(), fig1_right(), ex32_g(), ex32_gprime(), grid_lattice(4),
              cycle(7), path(5), complete_bipartite(2, 3)]
    for g in corpus:
        assert char_poly(g).degree == g.n
        adj = char_poly(g, MatrixKind.ADJACENCY).coeffs
        assert adj[1] == 0
        assert adj[2] == -g.m
        for kind in (MatrixKind.LAPLACIAN, MatrixKind.SIGNLESS_LAPLACIAN):
            assert char_poly(g, kind).coeffs[1] == -2 * g.m


def test_charpoly_at_zero_matches_independent_determinant():
    rng = random.Random(101)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        for kind in ALL_KINDS:
            m = matrix_of(g, kind)
            p = char_poly(g, kind)
            assert p(0) == (-1) ** g.n * det_exact(m)


def test_charpoly_matches_dense_berkowitz_oracle():
    rng = random.Random(113)
    graphs = [random_graph(rng, rng.randint(0, 24), p)
              for p in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95) for _ in range(10)]
    graphs += [complete(12), cycle(17), grid_lattice(4)]
    # past n = 24: dense, complete, empty, isolated vertices, disconnected
    graphs += [random_graph(rng, 36, 0.9), complete(33), empty(30),
               disjoint_union(random_graph(rng, 25, 0.5), empty(4)),
               disjoint_union(random_graph(rng, 14, 0.4), cycle(13))]
    for g in graphs:
        for kind in ALL_KINDS:
            m = matrix_of(g, kind)
            assert list(char_poly(g, kind).coeffs) == dense_berkowitz(m, g.n)


def test_charpoly_edge_cases_match_dense_berkowitz_oracle():
    # the kernel reads vertex s at index s + 1 through one itemgetter per
    # vertex: orders 0-2, an isolated vertex and a star's hub at either end,
    # one lower neighbour per vertex (a path), and every getter rebuilt at
    # every bordering, up to the padded 20-position one (K20)
    rng = random.Random(137)
    star = complete_bipartite(1, 6)
    graphs = [empty(0), empty(1), empty(2), complete(2),
              disjoint_union(empty(1), random_graph(rng, 9, 0.5)),
              disjoint_union(random_graph(rng, 9, 0.5), empty(1)),
              star, relabel(star, (6, 0, 1, 2, 3, 4, 5)), path(12), complete(20)]
    for g in graphs:
        for kind in ALL_KINDS:
            m = matrix_of(g, kind)
            assert list(char_poly(g, kind).coeffs) == dense_berkowitz(m, g.n)


# sha256 of the A, L and Q coefficient tuples of _pinned_corpus(), recorded
# with the sparse trailing-block Berkowitz loop that preceded the symmetric
# kernel
_PINNED_CHARPOLY_SHA256 = "ec65d221b56769332862fc9375deb8e6798de4a000491a0f0e7d10a94c46f06d"


def _pinned_corpus():
    pair = regular_construction(7)
    rng = random.Random(0)
    return [pair.g, pair.g_prime, grid_lattice(4), shrikhande(),
            *(planted_switching_instance(rng, n, n)[0] for n in (32, 48, 64))]


def test_charpoly_is_pinned():
    polys = [char_poly(g, kind).coeffs for g in _pinned_corpus() for kind in ALL_KINDS]
    assert hashlib.sha256(repr(polys).encode()).hexdigest() == _PINNED_CHARPOLY_SHA256


def test_regular_charpoly_shift_identities_at_large_order():
    # for a d-regular graph Q = A + dI and L = dI - A, so with no oracle:
    #   charQ(x) = charA(x - d)  and  charL(x) = (-1)^n charA(d - x)
    rng = random.Random(131)
    for n, d in ((48, 5), (64, 6)):
        g = random_regular_graph(rng, n, d)
        a = list(char_poly(g, MatrixKind.ADJACENCY).coeffs)
        assert list(char_poly(g, MatrixKind.SIGNLESS_LAPLACIAN).coeffs) == _pshift(a, -d)
        # (-1)^n charA(-y) has coefficients (-1)^j a_j, degree-descending
        reflected = [(-1) ** j * c for j, c in enumerate(a)]
        assert list(char_poly(g, MatrixKind.LAPLACIAN).coeffs) == _pshift(reflected, -d)


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(127)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 20), rng.choice((0.15, 0.5, 0.85)))
        for kind in ALL_KINDS:
            expected = sympy.Matrix(matrix_of(g, kind)).charpoly(x).all_coeffs()
            assert list(char_poly(g, kind).coeffs) == [int(c) for c in expected]


def test_ex32_pair_cospectral():
    assert cospectral(ex32_g(), ex32_gprime(), MatrixKind.ADJACENCY)


def test_cospectral_examples():
    assert cospectral(fig1_left(), fig1_right(), MatrixKind.ADJACENCY)
    assert not cospectral(complete(3), path(3), MatrixKind.ADJACENCY)
    # regular adjacency-cospectral pair, recomputed directly from L char polys
    left = char_poly(fig1_left(), MatrixKind.LAPLACIAN)
    right = char_poly(fig1_right(), MatrixKind.LAPLACIAN)
    assert left == right


def test_cospectral_different_orders():
    assert not cospectral(path(3), path(4), MatrixKind.ADJACENCY)


def test_cospectral_relabel_invariance():
    rng = random.Random(103)
    small = (random_graph(rng, rng.randint(1, 8)) for _ in range(10))
    # at the benchmark's order no oracle is cheap, but a relabelling still
    # borders the vertices in another order
    planted = planted_switching_instance(random.Random(139), 64, 64)[0]
    for g in chain(small, [planted]):
        perm = list(range(g.n))
        rng.shuffle(perm)
        for kind in ALL_KINDS:
            assert cospectral(g, relabel(g, tuple(perm)), kind)


def test_regular_cospectral_report_fixture_pair():
    rep = regular_cospectral_report(fig1_left(), fig1_right())
    assert rep.regular and rep.degree == 4
    assert rep.adjacency_cospectral
    assert rep.laplacian_verified and rep.signless_verified
    assert rep.normalized_laplacian_derived


def test_regular_cospectral_report_inapplicable():
    rep = regular_cospectral_report(ex32_g(), ex32_gprime())
    assert not rep.regular
    assert rep.adjacency_cospectral is None
    assert not rep.normalized_laplacian_derived


def test_regular_cospectral_report_degree_mismatch():
    rep = regular_cospectral_report(cycle(6), cycle(6))
    assert rep.regular and rep.adjacency_cospectral
    rep = regular_cospectral_report(cycle(4), complete(4))
    assert not rep.regular  # degrees differ
    rep = regular_cospectral_report(cycle(4), cycle(6))
    assert rep.regular and rep.adjacency_cospectral is False
    assert rep.laplacian_verified is None


def test_laplacian_join_identity_examples():
    assert laplacian_join_identity_check(path(3), path(2))
    assert laplacian_join_identity_check(complete(1), complete(1))
    # join of two K1 is K2; Laplacian char poly x^2 - 2x has roots {0, 2}
    p = char_poly(complete(2), MatrixKind.LAPLACIAN)
    assert p.coeffs == (1, -2, 0)


def test_laplacian_join_identity_random_sweep():
    rng = random.Random(107)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        h = random_graph(rng, rng.randint(1, 8))
        assert laplacian_join_identity_check(g, h)


def _laplacian_identity_by_expansion(g, h):
    # the slow oracle: both sides of the identity expanded into coefficients,
    # with the join taken from spectra so that a patched join reaches it too
    n, np = g.n, h.n
    cj = list(char_poly(spectra.join(g, h), MatrixKind.LAPLACIAN).coeffs)
    lhs = _pmul(_pmul(cj, [1, -np]), [1, -n])
    cg = _pshift(list(char_poly(g, MatrixKind.LAPLACIAN).coeffs), -np)
    ch = _pshift(list(char_poly(h, MatrixKind.LAPLACIAN).coeffs), -n)
    return lhs == _pmul(_pmul([1, 0], [1, -(n + np)]), _pmul(cg, ch))


def _adjacency_identity_by_expansion(g, h):
    r, rp = g.is_regular(), h.is_regular()
    cj = list(char_poly(spectra.join(g, h)).coeffs)
    lhs = _pmul(_pmul(cj, [1, -r]), [1, -rp])
    quad = [1, -(r + rp), r * rp - g.n * h.n]
    return lhs == _pmul(_pmul(list(char_poly(g).coeffs), list(char_poly(h).coeffs)), quad)


def _identity_pairs():
    # seeded pairs of orders 0..8 with both factors regular, then any pairs
    rng = random.Random(113)
    pairs = [(empty(0), empty(0)), (empty(0), complete(1)), (complete(1), complete(1)),
             (empty(0), cycle(5)), (complete(1), fig1_left())]
    while len(pairs) < 40:
        pair = []
        for _side in range(2):
            n = rng.randint(0, 8)
            if n == 0:
                pair.append(empty(0))
                continue
            k = rng.choice([k for k in range(n) if (n * k) % 2 == 0])
            pair.append(random_regular_graph(rng, n, k))
        pairs.append(tuple(pair))
    pairs += [(random_graph(rng, rng.randint(0, 8)), random_graph(rng, rng.randint(0, 8)))
              for _ in range(30)]
    return pairs


def test_join_identities_agree_with_coefficient_expansion():
    pairs = _identity_pairs()
    regular = [(g, h) for g, h in pairs if g.is_regular() is not None
               and h.is_regular() is not None]
    assert len(pairs) >= 50 and len(regular) >= 40
    assert {g.n for g, _ in pairs} >= {0, 1} and {h.n for _, h in pairs} >= {0, 1}
    for g, h in pairs:
        assert laplacian_join_identity_check(g, h) is _laplacian_identity_by_expansion(g, h)
        assert laplacian_join_identity_check(g, h) is True
    for g, h in regular:
        assert regular_join_adjacency_check(g, h) is _adjacency_identity_by_expansion(g, h)
        assert regular_join_adjacency_check(g, h) is True


def test_join_identities_reject_a_disjoint_union(monkeypatch):
    # a disjoint union has fewer edges than the join of two non-empty
    # factors, so neither identity holds for its char poly
    monkeypatch.setattr(spectra, "join", disjoint_union)
    pairs = [(g, h) for g, h in _identity_pairs() if g.n and h.n]
    assert len(pairs) >= 40
    for g, h in pairs:
        assert laplacian_join_identity_check(g, h) is _laplacian_identity_by_expansion(g, h)
        assert laplacian_join_identity_check(g, h) is False
        if g.is_regular() is not None and h.is_regular() is not None:
            assert regular_join_adjacency_check(g, h) is _adjacency_identity_by_expansion(g, h)
            assert regular_join_adjacency_check(g, h) is False


@pytest.mark.parametrize("identity, g, h, kind, roots", [
    (laplacian_join_identity_check, path(3), complete(2), MatrixKind.LAPLACIAN, (3, 2)),
    (regular_join_adjacency_check, cycle(4), complete(2), MatrixKind.ADJACENCY, (2, 1)),
])
def test_join_identities_read_every_point(monkeypatch, identity, g, h, kind, roots):
    # A false join char poly cj + e, with e of degree below n + n' vanishing
    # at every one of the D = n + n' + 2 points centred on 0 but one, moves
    # the left side by e(x) (x - a)(x - b), where a and b are the two roots
    # the left side multiplies by; so only the one point tells it apart.
    d = g.n + h.n + 2
    points = range(-(d // 2), d - d // 2)
    assert set(roots) <= set(points)
    true_char_poly, joined = spectra.char_poly, spectra.join(g, h)
    for skip in (x for x in points if x not in roots):
        error = [1]
        for x in points:
            if x != skip and x not in roots:
                error = _pmul(error, [1, -x])

        def false_char_poly(graph, which=MatrixKind.ADJACENCY):
            coeffs = true_char_poly(graph, which).coeffs
            if graph != joined or which is not kind:
                return CharPoly(coeffs)
            return CharPoly(map(sum, zip(coeffs, [0] * (len(coeffs) - len(error)) + error)))

        monkeypatch.setattr(spectra, "char_poly", false_char_poly)
        assert identity(g, h) is False
        monkeypatch.setattr(spectra, "char_poly", true_char_poly)
    assert identity(g, h) is True


def test_regular_join_adjacency_examples():
    assert regular_join_adjacency_check(complete(2), complete(2))
    assert regular_join_adjacency_check(cycle(4), cycle(4))
    assert regular_join_adjacency_check(fig1_left(), complete(3))
    for g, h in ((path(3), complete(2)), (complete(2), path(3)), (path(3), path(3))):
        with pytest.raises(ValueError, match="needs regular inputs"):
            regular_join_adjacency_check(g, h)


def test_regular_join_adjacency_random_regular_sweep():
    rng = random.Random(109)
    for _ in range(20):
        pair = []
        for _side in range(2):
            n = rng.randint(2, 8)
            k = rng.choice([k for k in range(n) if (n * k) % 2 == 0])
            pair.append(random_regular_graph(rng, n, k))
        assert regular_join_adjacency_check(pair[0], pair[1])


def test_tensor_integer_roots_are_pairwise_products():
    # complete graphs have integral spectrum {n-1, -1 x (n-1)}
    def spectrum_of_complete(n):
        return [n - 1] + [-1] * (n - 1)

    for n, m in ((2, 3), (3, 4), (2, 5), (4, 5)):
        product = tensor(complete(n), complete(m))
        roots = integer_roots(char_poly(product))
        assert sum(roots.values()) == n * m  # fully integral spectrum
        expected: dict[int, int] = {}
        for a in spectrum_of_complete(n):
            for b in spectrum_of_complete(m):
                expected[a * b] = expected.get(a * b, 0) + 1
        assert roots == expected


def test_charpoly_json_roundtrip_big_coefficients():
    p = char_poly(grid_lattice(4), MatrixKind.SIGNLESS_LAPLACIAN)
    assert CharPoly.from_json(p.to_json()) == p
    assert all(isinstance(c, str) for c in p.to_json())
