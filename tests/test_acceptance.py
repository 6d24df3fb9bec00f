"""Acceptance gate: one test per shipped criterion, each printing a verdict line.

Criteria 1-8 run slices of the built-in claim catalog (the same catalog the
``verify-paper`` CLI runs) and require every claim to pass exactly.
Criterion 9 runs the randomized property suites with fixed seeds and
requires zero violations.  Runtimes are targets, not gates; each line
reports the elapsed wall time for reference.
"""

import random
import time

from zfforge.claims import run_claims, summarize
from zfforge.constructions import (gm_switch, planted_switching_instance,
                                   switching_partition)
from zfforge.forcing import Rule, closure, zero_forcing_number
from zfforge.graphs import complement, disjoint_union
from zfforge.randgraphs import random_graph
from zfforge.skew_rank import SkewWitness, exact_rank
from zfforge.spectra import MatrixKind, char_poly, cospectral

from oracles import det_exact, gosper_minimum, matrix_of, random_subset_mask, skew_matrix

ALL_RULES = (Rule.STANDARD, Rule.SKEW, Rule.PSD)


def _run_prefixes(label: str, prefixes: tuple[str, ...]) -> None:
    start = time.perf_counter()
    reports = []
    for prefix in prefixes:
        reports.extend(run_claims(prefix=prefix))
    elapsed = time.perf_counter() - start
    summary = summarize(reports)
    ok = summary["fail"] == 0 and summary["skipped"] == 0 and reports
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} "
          f"({len(reports)} claims, {elapsed:.1f}s)")
    failed = [r for r in reports if r.status != "pass"]
    assert not failed, [(r.claim_id, r.expected, r.computed) for r in failed]


def test_criterion_1_fixture_pair_suite():
    # 4-regular, cospectral for A/L/Q, non-isomorphic, Z/Z+/Z- = 6/5/4 vs 4/4/4
    _run_prefixes("1 (fixture pair)", ("fig1.", "regcospec.fig1"))


def test_criterion_2_skew_fixture_suite():
    # adjacency-cospectral, skew values 3 vs 1, nullity witnesses certify equality
    _run_prefixes("2 (skew fixtures)", ("ex32.",))


def test_criterion_3_tensor_family():
    # products with K3 cospectral; exact solver meets (r-2)n + 2*Zminus on 21 vertices
    _run_prefixes("3 (tensor family)", ("tensor.",))


def test_criterion_4_cartesian_psd():
    # rook formula values 2/5/10, switched mate at 9, cospectral + noniso, bound 99 < 100
    _run_prefixes("4 (cartesian psd)", ("cartesian.", "regcospec.grid_shrikhande"))


def test_criterion_5_join_suite():
    # join identities on 50 random pairs, formula sweeps on 30 connected pairs,
    # fixture joins shifted by r, iterated join at 16 on 20 vertices
    _run_prefixes("5 (join suite)", ("join.",))


def test_criterion_6_switched_pair_with_spare_component():
    # 30-vertex pair: cospectral, non-isomorphic, per-component Z of 15 vs 17
    _run_prefixes("6 (switched pair)", ("thm51.",))


def test_criterion_7_torus_formula():
    # torus values 5/6/8 by exact search; c = 3 gap arithmetic
    _run_prefixes("7 (torus formula)", ("cor52.",))


def test_criterion_8_regular_6k_construction():
    # k in {2, 3}: regularity, switching validity, cospectrality, core values,
    # Z(G) = 4k-2, Z(G') <= 4k-3
    _run_prefixes("8 (regular 6k)", ("regular6k.", "regcospec.regular6k"))


def test_criterion_9_property_suites():
    start = time.perf_counter()
    violations = []

    # closure monotonicity, idempotence, extensivity: 500 random triples
    rng = random.Random(9001)
    for i in range(500):
        g = random_graph(rng, rng.randint(1, 10))
        rule = rng.choice(ALL_RULES)
        s = random_subset_mask(rng, g.n)
        t = s | random_subset_mask(rng, g.n)
        cs, _ = closure(g, rule, s)
        ct, _ = closure(g, rule, t)
        cc, _ = closure(g, rule, cs)
        if cs & ~ct or s & ~cs or cc != cs:
            violations.append(("closure", i))

    # rule dominance on 100 random graphs of order <= 8
    rng = random.Random(9002)
    for i in range(100):
        g = random_graph(rng, rng.randint(1, 8))
        z = zero_forcing_number(g, Rule.STANDARD).value
        if zero_forcing_number(g, Rule.PSD).value > z:
            violations.append(("dominance-psd", i))
        if zero_forcing_number(g, Rule.SKEW).value > z:
            violations.append(("dominance-skew", i))

    # component additivity vs brute-force whole-graph search on 50 disconnected fixtures
    rng = random.Random(9003)
    for i in range(50):
        g = disjoint_union(random_graph(rng, rng.randint(1, 6)),
                           random_graph(rng, rng.randint(1, 6)))
        for rule in ALL_RULES:
            if zero_forcing_number(g, rule).value != gosper_minimum(g, rule):
                violations.append(("additivity", i, rule.value))

    # switching involution and cospectrality on 100 planted instances
    rng = random.Random(9004)
    for i in range(100):
        g, parts = planted_switching_instance(rng)
        if not switching_partition(g, parts).ok:
            violations.append(("planted-invalid", i))
            continue
        switched = gm_switch(g, parts)
        if gm_switch(switched, parts) != g:
            violations.append(("involution", i))
        if not cospectral(g, switched, MatrixKind.ADJACENCY):
            violations.append(("switch-cospectral", i))
        if not cospectral(complement(g), complement(switched), MatrixKind.ADJACENCY):
            violations.append(("switch-complement", i))

    # realised skew ranks are always even
    rng = random.Random(9005)
    for i in range(50):
        g = random_graph(rng, rng.randint(1, 7))
        entries = {e: rng.choice((1, -1, 2, -2, 3, -3)) for e in g.edges()}
        witness = SkewWitness(g, skew_matrix(g.n, entries), 0, certified=False)
        if exact_rank(witness) % 2:
            violations.append(("odd-rank", i))

    # char poly at zero against the independent determinant, 50 random graphs
    rng = random.Random(9006)
    for i in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        for kind in (MatrixKind.ADJACENCY, MatrixKind.LAPLACIAN,
                     MatrixKind.SIGNLESS_LAPLACIAN):
            if char_poly(g, kind)(0) != (-1) ** g.n * det_exact(matrix_of(g, kind)):
                violations.append(("det-crosscheck", i, kind.value))

    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 9 (property suites): {'PASS' if not violations else 'FAIL'} "
          f"({elapsed:.1f}s)")
    assert not violations, violations[:10]
