"""The built-in claim catalog and its runner.

Every desk-scale numeric statement the package ships (forcing values of the
fixture pairs, cospectrality of every construction, formula sweeps) lives
here as one claim with a frozen id, a constant expected value carrying its
provenance tag, and an evaluator that recomputes the value from scratch and
attaches replayable certificates.

Every claim is one row of ``_CATALOG``: (id, description, tag, expected,
evaluator, *args).  The evaluator is a module-level function called with the
row's arguments, then the seed, and returns the computed value and the
certificates.  A graph argument is a thunk and a fixture argument an id
prefix, which ``_fixture`` builds on first use, so importing this module
builds no graph.  Every exact forcing value comes from ``_zf_claim``, which
solves, replays the witness independently and attaches it.

``run_claims`` evaluates any id-prefix slice of the catalog, optionally
across processes, and always reports in canonical id order.  The process
pool is imported only when more than one job runs, so a one-job run and a
plain ``import zfforge`` never load ``multiprocessing``.

Claim ids are a public contract; renaming one is a breaking change.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

from . import constructions as cons
from . import graphs
from .forcing import (BudgetExceededError, Rule, closure, verify_certificate,
                      zero_forcing_number, zf_join_formula_check)
from .randgraphs import random_connected_graph, random_graph, random_regular_graph
from .skew_rank import exact_rank, max_nullity_witness_search
from .spectra import (MatrixKind, char_poly, laplacian_join_identity_check,
                      regular_cospectral_report, regular_join_adjacency_check)

VERSION = "0.1.0"


class ClaimReport(graphs.Record):
    # status is "pass", "fail" or "skipped-budget"
    __slots__ = ("claim_id", "description", "expected", "tag", "computed", "status",
                 "certificates", "wall_time")
    to_json = graphs.Record._as_dict


# the one dataclass in the package: the traced benchmark rebuilds each entry
# with dataclasses.replace to wrap its evaluator
@dataclass(frozen=True)
class _Claim:
    description: str
    tag: str
    expected: object
    fn: Callable[[int], tuple[object, dict]]


REGISTRY: dict[str, _Claim] = {}


def _claim(claim_id: str, description: str, tag: str, expected,
           fn: Callable[[int], tuple[object, dict]]) -> None:
    if claim_id in REGISTRY:
        raise ValueError(f"duplicate claim id {claim_id}")
    REGISTRY[claim_id] = _Claim(description, tag, expected, fn)


def claim_ids() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


# ---------------------------------------------------------------------------
# fixtures: one construction per id prefix, built on first use
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fixture(prefix: str):
    """The construction behind the claims under ``prefix``: a pair of graphs,
    or a ``ConstructionPair`` where claims read its params or parts."""
    if prefix == "fig1":
        return graphs.fig1_left(), graphs.fig1_right()
    if prefix == "ex32":
        return graphs.ex32_g(), graphs.ex32_gprime()
    if prefix == "tensor":
        return tuple(graphs.tensor(g, graphs.complete(3)) for g in _fixture("ex32"))
    if prefix == "cartesian":
        return graphs.grid_lattice(4), cons.shrikhande()
    if prefix == "join.family":
        return tuple(graphs.join(g, graphs.complete(2)) for g in _fixture("fig1"))
    if prefix == "thm51":
        return cons.theorem51_build()
    if prefix.startswith("regular6k.k"):
        return cons.regular_construction(int(prefix[len("regular6k.k"):]))
    raise KeyError(f"no fixture for claim prefix {prefix!r}")


def _pair(prefix: str) -> tuple[graphs.Graph, graphs.Graph]:
    fix = _fixture(prefix)
    return fix if isinstance(fix, tuple) else (fix.g, fix.g_prime)


def _member(prefix: str, which: int) -> Callable[[], graphs.Graph]:
    """Thunk for graph ``which`` (0 or 1) of the fixture pair under ``prefix``."""
    return lambda: _pair(prefix)[which]


def _zf_claim(g: graphs.Graph, rule: Rule) -> tuple[object, dict]:
    result = zero_forcing_number(g, rule)
    replay = verify_certificate(g, result.witness)
    certs = {"graph6": graphs.emit_graph6(g),
             "certificate": result.witness.to_json(),
             "independent_replay": replay,
             "closure_evaluations": result.explored}
    return (result.value if replay else "witness-replay-failed"), certs


# ---------------------------------------------------------------------------
# evaluators: each is called with its row's arguments, then the seed
# ---------------------------------------------------------------------------

def _zf(graph: Callable[[], graphs.Graph], rule: Rule, seed: int) -> tuple[object, dict]:
    return _zf_claim(graph(), rule)


def _zf_at_most(graph: Callable[[], graphs.Graph], bound: int, seed: int) -> tuple[object, dict]:
    value, certs = _zf_claim(graph(), Rule.STANDARD)
    return certs["independent_replay"] and value <= bound, {"value": value, **certs}


@lru_cache(maxsize=None)
def _grid_zplus(which: int, seed: int) -> tuple[object, dict]:
    # cached, so that cartesian.bound.r11 reuses both solves
    return _zf_claim(_pair("cartesian")[which], Rule.PSD)


def _grid_bound(r: int, seed: int) -> tuple[object, dict]:
    report = cons.grid_shrikhande_report(r, _grid_zplus(0, seed)[0], _grid_zplus(1, seed)[0])
    return report.separation_holds, {"report": report.to_json()}


def _torus(s: int, t: int, seed: int) -> tuple[object, dict]:
    value, certs = _zf_claim(graphs.cartesian(graphs.cycle(s), graphs.cycle(t)), Rule.STANDARD)
    certs["formula_value"] = cons.torus_zero_forcing(s, t)
    return value, certs


def _cospectral(prefix: str, seed: int) -> tuple[object, dict]:
    g, h = _pair(prefix)
    pg, ph = char_poly(g, MatrixKind.ADJACENCY), char_poly(h, MatrixKind.ADJACENCY)
    return pg == ph, {"char_poly_g": pg.to_json(), "char_poly_h": ph.to_json()}


def _noniso(prefix: str, seed: int) -> tuple[object, dict]:
    iso, _m = graphs.is_isomorphic(*_pair(prefix))
    return not iso, {}


def _noniso_with_degrees(prefix: str, seed: int) -> tuple[object, dict]:
    computed, _certs = _noniso(prefix, seed)
    return computed, {"degree_sequence": list(_pair(prefix)[0].degree_sequence())}


def _regcospec(prefix: str, degree: int, seed: int) -> tuple[object, dict]:
    rep = regular_cospectral_report(*_pair(prefix))
    computed = {"regular": rep.regular and rep.degree == degree,
                "adjacency": rep.adjacency_cospectral,
                "laplacian": rep.laplacian_verified,
                "signless": rep.signless_verified,
                "normalized_derived": rep.normalized_laplacian_derived}
    return computed, {"report": rep.to_json()}


def _regular_pair(prefix: str, order: int, degree: int, seed: int) -> tuple[object, dict]:
    g, g_prime = _pair(prefix)
    return g.n == order and g.is_regular() == degree and g_prime.is_regular() == degree, {}


def _switching_set(prefix: str, seed: int) -> tuple[object, dict]:
    pair = _fixture(prefix)
    partition = cons.switching_partition(pair.g, pair.parts)
    return partition.ok, {"validation": partition.to_json()}


def _core_witness(k: int, seed: int) -> tuple[object, dict]:
    h = cons.circulant_h(k)
    final, cert = closure(h, Rule.STANDARD, cons.h_witness_set(k))
    ok = final == h.full_mask and verify_certificate(h, cert)
    return ok, {"graph6": graphs.emit_graph6(h), "certificate": cert.to_json()}


def _skew_nullity(which: int, seed: int) -> tuple[object, dict]:
    g = _pair("ex32")[which]
    witness = max_nullity_witness_search(g, seed=seed)
    z_minus = _zf_claim(g, Rule.SKEW)[0]
    rank = exact_rank(witness)
    replayed = g.n - rank
    certs = {"witness": witness.to_json(),
             "replayed_rank": rank,
             "z_minus": z_minus}
    computed = {"nullity": replayed,
                "equals_skew_forcing_number": replayed == z_minus}
    return computed, certs


def _joined_with_k2(prefix: str, seed: int) -> tuple[object, dict]:
    k2 = graphs.complete(2)
    return all(laplacian_join_identity_check(g, k2) for g in _pair(prefix)), {}


def _switch_audit(seed: int) -> tuple[object, dict]:
    pair = _fixture("thm51")
    g1, g2 = _pair("fig1")
    m = dict(pair.params)["m"]
    direct = graphs.disjoint_union(graphs.join(g2, graphs.path(m)), g1)
    iso, mapping = graphs.is_isomorphic(pair.g_prime, direct)
    return iso, {"mapping": list(mapping) if iso else None}


def _cor52_params(c: int, seed: int) -> tuple[object, dict]:
    report = cons.corollary52_family(c)
    regular4 = (report.g1 is not None and report.g1.is_regular() == 4
                and report.g2 is not None and report.g2.is_regular() == 4)
    computed = {"order": report.order, "z_first": report.z_first,
                "z_second": report.z_second, "gap": report.gap, "regular_4": regular4}
    return computed, {"report": report.to_json()}


def _sweep(offset: int, pairs: int, draw, check, seed: int) -> tuple[object, dict]:
    rng = random.Random(1_000_003 * seed + offset)
    return sum(1 for _i in range(pairs) if check(draw(rng), draw(rng))), {"pairs": pairs}


def _random_regular(rng: random.Random) -> graphs.Graph:
    n = rng.randint(2, 8)
    return random_regular_graph(rng, n, rng.choice([k for k in range(n) if (n * k) % 2 == 0]))


# ---------------------------------------------------------------------------
# the catalog: one row per claim
# ---------------------------------------------------------------------------

_REGCOSPEC_EXPECTED = {"regular": True, "adjacency": True, "laplacian": True,
                       "signless": True, "normalized_derived": True}

# (id, description, tag, expected, evaluator, *args).  The sweeps' spectra
# checks are lambdas that look the function up at call time, so that a tracer
# rebinding module names (bench/tracing.py) sees the calls.
_CATALOG = (
    ("fig1.Z.left", "standard forcing number of the left fixture", "paper", 6,
     _zf, _member("fig1", 0), Rule.STANDARD),
    ("fig1.Z.right", "standard forcing number of the right fixture", "paper", 4,
     _zf, _member("fig1", 1), Rule.STANDARD),
    ("fig1.Zplus.left", "psd forcing number of the left fixture", "paper", 5,
     _zf, _member("fig1", 0), Rule.PSD),
    ("fig1.Zplus.right", "psd forcing number of the right fixture", "paper", 4,
     _zf, _member("fig1", 1), Rule.PSD),
    ("fig1.Zminus.left", "skew forcing number of the left fixture", "paper", 4,
     _zf, _member("fig1", 0), Rule.SKEW),
    ("fig1.Zminus.right", "skew forcing number of the right fixture", "paper", 4,
     _zf, _member("fig1", 1), Rule.SKEW),
    ("fig1.cospectral.A", "fixture pair shares its adjacency char poly", "paper", True, _cospectral, "fig1"),
    ("fig1.noniso", "fixture pair is non-isomorphic", "paper", True, _noniso_with_degrees, "fig1"),
    ("regcospec.fig1", "fixture pair: regular, so cospectral for A, L, Q (verified) and normalized (derived)",
     "derived", _REGCOSPEC_EXPECTED, _regcospec, "fig1", 4),
    ("ex32.Zminus.G", "skew forcing number of the cycle+isolated fixture", "paper", 3,
     _zf, _member("ex32", 0), Rule.SKEW),
    ("ex32.Zminus.Gprime", "skew forcing number of the spider fixture", "paper", 1,
     _zf, _member("ex32", 1), Rule.SKEW),
    ("ex32.cospectral.A", "cycle+isolated vs spider share the adjacency char poly", "paper", True,
     _cospectral, "ex32"),
    ("ex32.skew_nullity.G", "maximum skew nullity witness meets the skew forcing number (cycle+isolated)",
     "paper", {"nullity": 3, "equals_skew_forcing_number": True}, _skew_nullity, 0),
    ("ex32.skew_nullity.Gprime", "maximum skew nullity witness meets the skew forcing number (spider)",
     "paper", {"nullity": 1, "equals_skew_forcing_number": True}, _skew_nullity, 1),
    ("tensor.Z.G", "standard forcing number of (cycle+isolated) x K3", "paper", 13,
     _zf, _member("tensor", 0), Rule.STANDARD),
    ("tensor.Zminus.G", "skew forcing number of (cycle+isolated) x K3", "paper", 13,
     _zf, _member("tensor", 0), Rule.SKEW),
    ("tensor.Z.Gprime", "standard forcing number of spider x K3", "paper", 9,
     _zf, _member("tensor", 1), Rule.STANDARD),
    ("tensor.Zminus.Gprime", "skew forcing number of spider x K3", "paper", 9,
     _zf, _member("tensor", 1), Rule.SKEW),
    ("tensor.cospectral.A", "tensor products with K3 stay adjacency-cospectral", "paper", True,
     _cospectral, "tensor"),
    ("cartesian.Zplus.r2", "psd forcing number of the 2x2 rook's graph", "paper", 2,
     _zf, partial(graphs.grid_lattice, 2), Rule.PSD),
    ("cartesian.Zplus.r3", "psd forcing number of the 3x3 rook's graph", "paper", 5,
     _zf, partial(graphs.grid_lattice, 3), Rule.PSD),
    ("cartesian.Zplus.r4", "psd forcing number of the 4x4 rook's graph", "paper", 10, _grid_zplus, 0),
    ("cartesian.Zplus.shrikhande", "psd forcing number of the switched mate", "paper", 9, _grid_zplus, 1),
    ("cartesian.bound.r11", "product bound separation at r = 11 (99 < 100)", "paper", True, _grid_bound, 11),
    ("cartesian.cospectral.A", "rook's grid and switched mate are adjacency-cospectral", "paper", True,
     _cospectral, "cartesian"),
    ("cartesian.noniso", "rook's grid and switched mate are non-isomorphic", "paper", True,
     _noniso, "cartesian"),
    ("regcospec.grid_shrikhande", "rook's grid vs its switched mate: all-matrix cospectrality",
     "derived", _REGCOSPEC_EXPECTED, _regcospec, "cartesian", 6),
    ("join.family.fig1.Z.left", "forcing number of left fixture joined with K2 is 2 + 6", "paper", 8,
     _zf, _member("join.family", 0), Rule.STANDARD),
    ("join.family.fig1.Z.right", "forcing number of right fixture joined with K2 is 2 + 4", "paper", 6,
     _zf, _member("join.family", 1), Rule.STANDARD),
    ("join.family.fig1.laplacian_identity", "join family pairs satisfy the Laplacian join identity",
     "derived", True, _joined_with_k2, "fig1"),
    ("join.iterated.fig1", "one self-join of the left fixture has forcing number 10 + 6", "paper", 16,
     _zf, lambda: graphs.iterated_join(_pair("fig1")[0], 1), Rule.STANDARD),
    ("join.laplacian_identity.sweep", "Laplacian join identity on 50 random pairs of order <= 8",
     "derived", 50, _sweep, 11, 50, lambda rng: random_graph(rng, rng.randint(1, 8)),
     lambda g, h: laplacian_join_identity_check(g, h)),
    ("join.regular_adjacency.sweep", "adjacency join identity on 50 random regular pairs of order <= 8",
     "derived", 50, _sweep, 12, 50, _random_regular, lambda g, h: regular_join_adjacency_check(g, h)),
    ("join.zf_formula.standard.sweep", "join formula vs exact solver, standard rule, 30 connected pairs",
     "derived", 30, _sweep, 13, 30, lambda rng: random_connected_graph(rng, rng.randint(2, 6)),
     partial(zf_join_formula_check, rule=Rule.STANDARD)),
    ("join.zf_formula.skew.sweep", "join formula vs exact solver, skew rule, 30 connected pairs",
     "derived", 30, _sweep, 14, 30, lambda rng: random_connected_graph(rng, rng.randint(2, 6)),
     partial(zf_join_formula_check, rule=Rule.SKEW)),
    ("thm51.Z.Gprime", "forcing number of the assembled graph is 10 + 4 + 1", "paper", 15,
     _zf, _member("thm51", 0), Rule.STANDARD),
    ("thm51.Z.Gdoubleprime", "forcing number of the switched graph is 10 + 6 + 1", "paper", 17,
     _zf, _member("thm51", 1), Rule.STANDARD),
    ("thm51.cospectral.A", "assembled pair is adjacency-cospectral", "paper", True, _cospectral, "thm51"),
    ("thm51.noniso", "assembled pair is non-isomorphic", "paper", True, _noniso, "thm51"),
    ("thm51.switch_audit", "switched graph matches the directly built swap", "derived", True, _switch_audit),
    ("cor52.torus.C3C3", "torus C3 box C3 forcing number (equal odd case)", "paper", 5, _torus, 3, 3),
    ("cor52.torus.C3C4", "torus C3 box C4 forcing number", "paper", 6, _torus, 3, 4),
    ("cor52.torus.C4C4", "torus C4 box C4 forcing number", "paper", 8, _torus, 4, 4),
    ("cor52.params.c3", "c = 3 parameters: orders, formula values, gap 4c - 8", "paper",
     {"order": 36, "z_first": 8, "z_second": 12, "gap": 4, "regular_4": True}, _cor52_params, 3),
    # the 6k-vertex regular construction, k in {2, 3}
    *(row for k, p in ((2, "regular6k.k2"), (3, "regular6k.k3")) for row in (
        (f"{p}.regular", f"k={k}: graph is 2k-regular of order 6k", "paper", True,
         _regular_pair, p, 6 * k, 2 * k),
        (f"{p}.switching_set", f"k={k}: core plus clique validates as a switching set", "paper", True,
         _switching_set, p),
        (f"{p}.cospectral.A", f"k={k}: pair is adjacency-cospectral", "paper", True, _cospectral, p),
        (f"{p}.noniso", f"k={k}: pair is non-isomorphic", "paper", True, _noniso, p),
        (f"regcospec.{p}", f"6k-vertex construction, k={k}: all-matrix cospectrality", "derived",
         _REGCOSPEC_EXPECTED, _regcospec, p, 2 * k),
        (f"{p}.ZH", f"k={k}: forcing number of the circulant core is 2k - 2", "paper", 2 * k - 2,
         _zf, partial(cons.circulant_h, k), Rule.STANDARD),
        (f"{p}.ZH.witness", f"k={k}: the canonical core witness set closes", "paper", True, _core_witness, k),
        (f"{p}.Z.G", f"k={k}: forcing number of the construction is 4k - 2", "paper", 4 * k - 2,
         _zf, _member(p, 0), Rule.STANDARD),
        (f"{p}.Zbound.Gprime", f"k={k}: switched graph has forcing number at most 4k - 3", "paper", True,
         _zf_at_most, _member(p, 1), 4 * k - 3),
    )),
)

for _id, _description, _tag, _expected, _evaluator, *_args in _CATALOG:
    _claim(_id, _description, _tag, _expected, partial(_evaluator, *_args))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def evaluate_claim(claim_id: str, seed: int = 0) -> ClaimReport:
    spec = REGISTRY[claim_id]
    start = time.perf_counter()
    try:
        computed, certificates = spec.fn(seed)
        status = "pass" if computed == spec.expected else "fail"
    except BudgetExceededError as exc:
        computed = None
        certificates = {"budget_error": str(exc)}
        status = "skipped-budget"
    except Exception as exc:
        # one broken claim must not cost the report for the others; only this
        # branch needs traceback, so a passing run does not import it
        import traceback
        computed = None
        certificates = {"error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc()}
        status = "fail"
    elapsed = time.perf_counter() - start
    return ClaimReport(claim_id, spec.description, spec.expected, spec.tag,
                       computed, status, certificates, elapsed)


def run_claims(prefix: Optional[str] = None, jobs: int = 1, seed: int = 0) -> list[ClaimReport]:
    """Evaluate all claims whose id starts with ``prefix`` (default: all)."""
    ids = [cid for cid in claim_ids() if prefix is None or cid.startswith(prefix)]
    if jobs > 1 and len(ids) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(evaluate_claim, ids, [seed] * len(ids)))
    else:
        reports = [evaluate_claim(cid, seed) for cid in ids]
    return sorted(reports, key=lambda r: r.claim_id)


def summarize(reports: list[ClaimReport]) -> dict:
    return {"pass": sum(r.status == "pass" for r in reports),
            "fail": sum(r.status == "fail" for r in reports),
            "skipped": sum(r.status == "skipped-budget" for r in reports)}
