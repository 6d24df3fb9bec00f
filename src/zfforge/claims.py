"""The built-in claim catalog and its runner.

Every desk-scale numeric statement the package ships (forcing values of the
fixture pairs, cospectrality of every construction, formula sweeps) lives
here as one claim with a frozen id, a constant expected value carrying its
provenance tag, and an evaluator that recomputes the value from scratch and
attaches replayable certificates.  ``run_claims`` evaluates any id-prefix
slice of the catalog, optionally across processes, and always reports in
canonical id order.

Claim ids are a public contract; renaming one is a breaking change.
"""

from __future__ import annotations

import random
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from . import constructions as cons
from . import graphs
from .forcing import (BudgetExceededError, Rule, closure, verify_certificate,
                      zero_forcing_number, zf_join_formula_check)
from .randgraphs import random_connected_graph, random_graph, random_regular_graph
from .skew_rank import exact_rank, max_nullity_witness_search
from .spectra import (MatrixKind, char_poly, cospectral,
                      laplacian_join_identity_check,
                      regular_cospectral_report, regular_join_adjacency_check)

VERSION = "0.1.0"


@dataclass
class ClaimReport:
    claim_id: str
    description: str
    expected: object
    tag: str
    computed: object
    status: str  # "pass" | "fail" | "skipped-budget"
    certificates: dict
    wall_time: float

    def to_json(self) -> dict:
        return {"claim_id": self.claim_id,
                "description": self.description,
                "expected": self.expected,
                "tag": self.tag,
                "computed": self.computed,
                "status": self.status,
                "certificates": self.certificates,
                "wall_time": self.wall_time}


@dataclass(frozen=True)
class _Claim:
    description: str
    tag: str
    expected: object
    fn: Callable[[int], tuple[object, dict]]


REGISTRY: dict[str, _Claim] = {}


def _claim(claim_id: str, description: str, tag: str, expected):
    def register(fn):
        if claim_id in REGISTRY:
            raise ValueError(f"duplicate claim id {claim_id}")
        REGISTRY[claim_id] = _Claim(description, tag, expected, fn)
        return fn
    return register


def claim_ids() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


# ---------------------------------------------------------------------------
# shared fixtures (cached per process)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fig1():
    return graphs.fig1_left(), graphs.fig1_right()


@lru_cache(maxsize=None)
def _ex32():
    return graphs.ex32_g(), graphs.ex32_gprime()


@lru_cache(maxsize=None)
def _tensor_products():
    g, gp = _ex32()
    return cons.tensor_family(g, 3), cons.tensor_family(gp, 3)


@lru_cache(maxsize=None)
def _grid_pair():
    return graphs.grid_lattice(4), cons.shrikhande()


@lru_cache(maxsize=None)
def _grid_pair_zplus(which: int):
    return _zf_claim(_grid_pair()[which], Rule.PSD)


@lru_cache(maxsize=None)
def _thm51():
    return cons.theorem51_build()


@lru_cache(maxsize=None)
def _reg6k(k: int):
    return cons.regular_construction(k)


def _zf_claim(g: graphs.Graph, rule: Rule) -> tuple[object, dict]:
    result = zero_forcing_number(g, rule)
    replay = verify_certificate(g, result.witness)
    certs = {"graph6": graphs.emit_graph6(g),
             "certificate": result.witness.to_json(),
             "independent_replay": replay,
             "closure_evaluations": result.explored}
    return (result.value if replay else "witness-replay-failed"), certs


def _cospectral_claim(g, h, kind: MatrixKind) -> tuple[object, dict]:
    pg, ph = char_poly(g, kind), char_poly(h, kind)
    return pg == ph, {"char_poly_g": pg.to_json(), "char_poly_h": ph.to_json()}


# ---------------------------------------------------------------------------
# fig1: the smallest regular cospectral pair with a forcing separation
# ---------------------------------------------------------------------------

@_claim("fig1.cospectral.A", "fixture pair shares its adjacency char poly", "paper", True)
def _(seed):
    g, h = _fig1()
    return _cospectral_claim(g, h, MatrixKind.ADJACENCY)


@_claim("fig1.noniso", "fixture pair is non-isomorphic", "paper", True)
def _(seed):
    g, h = _fig1()
    iso, _m = graphs.is_isomorphic(g, h)
    return not iso, {"degree_sequence": list(g.degree_sequence())}


def _fig1_zf(which: int, rule: Rule):
    def fn(seed):
        return _zf_claim(_fig1()[which], rule)
    return fn


_claim("fig1.Z.left", "standard forcing number of the left fixture", "paper", 6)(_fig1_zf(0, Rule.STANDARD))
_claim("fig1.Z.right", "standard forcing number of the right fixture", "paper", 4)(_fig1_zf(1, Rule.STANDARD))
_claim("fig1.Zplus.left", "psd forcing number of the left fixture", "paper", 5)(_fig1_zf(0, Rule.PSD))
_claim("fig1.Zplus.right", "psd forcing number of the right fixture", "paper", 4)(_fig1_zf(1, Rule.PSD))
_claim("fig1.Zminus.left", "skew forcing number of the left fixture", "paper", 4)(_fig1_zf(0, Rule.SKEW))
_claim("fig1.Zminus.right", "skew forcing number of the right fixture", "paper", 4)(_fig1_zf(1, Rule.SKEW))


# ---------------------------------------------------------------------------
# regular cospectrality reports (adjacency implies L, Q, normalized)
# ---------------------------------------------------------------------------

_REGCOSPEC_EXPECTED = {"regular": True, "adjacency": True, "laplacian": True,
                       "signless": True, "normalized_derived": True}


def _regcospec(pair_fn, degree: int):
    def fn(seed):
        g, h = pair_fn()
        rep = regular_cospectral_report(g, h)
        computed = {"regular": rep.regular and rep.degree == degree,
                    "adjacency": rep.adjacency_cospectral,
                    "laplacian": rep.laplacian_verified,
                    "signless": rep.signless_verified,
                    "normalized_derived": rep.normalized_laplacian_derived}
        return computed, {"report": rep.to_json()}
    return fn


_claim("regcospec.fig1", "fixture pair: regular, so cospectral for A, L, Q (verified) and normalized (derived)",
       "derived", _REGCOSPEC_EXPECTED)(_regcospec(_fig1, 4))
_claim("regcospec.grid_shrikhande", "rook's grid vs its switched mate: all-matrix cospectrality",
       "derived", _REGCOSPEC_EXPECTED)(_regcospec(_grid_pair, 6))
_claim("regcospec.regular6k.k2", "6k-vertex construction, k=2: all-matrix cospectrality",
       "derived", _REGCOSPEC_EXPECTED)(_regcospec(lambda: (_reg6k(2).g, _reg6k(2).g_prime), 4))
_claim("regcospec.regular6k.k3", "6k-vertex construction, k=3: all-matrix cospectrality",
       "derived", _REGCOSPEC_EXPECTED)(_regcospec(lambda: (_reg6k(3).g, _reg6k(3).g_prime), 6))


# ---------------------------------------------------------------------------
# ex32: the cycle-plus-isolated-vertex vs spider pair, and its skew nullity
# ---------------------------------------------------------------------------

@_claim("ex32.cospectral.A", "cycle+isolated vs spider share the adjacency char poly", "paper", True)
def _(seed):
    g, h = _ex32()
    return _cospectral_claim(g, h, MatrixKind.ADJACENCY)


_claim("ex32.Zminus.G", "skew forcing number of the cycle+isolated fixture", "paper", 3)(
    lambda seed: _zf_claim(_ex32()[0], Rule.SKEW))
_claim("ex32.Zminus.Gprime", "skew forcing number of the spider fixture", "paper", 1)(
    lambda seed: _zf_claim(_ex32()[1], Rule.SKEW))


def _skew_nullity(which: int):
    def fn(seed):
        g = _ex32()[which]
        witness = max_nullity_witness_search(g, seed=seed)
        z_minus = zero_forcing_number(g, Rule.SKEW).value
        rank = exact_rank(witness)
        replayed = g.n - rank
        certs = {"witness": witness.to_json(),
                 "replayed_rank": rank,
                 "z_minus": z_minus}
        computed = {"nullity": replayed,
                    "equals_skew_forcing_number": replayed == z_minus}
        return computed, certs
    return fn


_claim("ex32.skew_nullity.G", "maximum skew nullity witness meets the skew forcing number (cycle+isolated)",
       "paper", {"nullity": 3, "equals_skew_forcing_number": True})(_skew_nullity(0))
_claim("ex32.skew_nullity.Gprime", "maximum skew nullity witness meets the skew forcing number (spider)",
       "paper", {"nullity": 1, "equals_skew_forcing_number": True})(_skew_nullity(1))


# ---------------------------------------------------------------------------
# tensor family: scale the skew separation by a complete factor
# ---------------------------------------------------------------------------

@_claim("tensor.cospectral.A", "tensor products with K3 stay adjacency-cospectral", "paper", True)
def _(seed):
    left, right = _tensor_products()
    return _cospectral_claim(left.graph, right.graph, MatrixKind.ADJACENCY)


def _tensor_zf(which: int, rule: Rule):
    def fn(seed):
        fam = _tensor_products()[which]
        return _zf_claim(fam.graph, rule)
    return fn


_claim("tensor.Z.G", "standard forcing number of (cycle+isolated) x K3", "paper", 13)(_tensor_zf(0, Rule.STANDARD))
_claim("tensor.Zminus.G", "skew forcing number of (cycle+isolated) x K3", "paper", 13)(_tensor_zf(0, Rule.SKEW))
_claim("tensor.Z.Gprime", "standard forcing number of spider x K3", "paper", 9)(_tensor_zf(1, Rule.STANDARD))
_claim("tensor.Zminus.Gprime", "skew forcing number of spider x K3", "paper", 9)(_tensor_zf(1, Rule.SKEW))


# ---------------------------------------------------------------------------
# cartesian / psd: rook's grids and the switched mate
# ---------------------------------------------------------------------------

_claim("cartesian.Zplus.r2", "psd forcing number of the 2x2 rook's graph", "paper", 2)(
    lambda seed: _zf_claim(graphs.grid_lattice(2), Rule.PSD))
_claim("cartesian.Zplus.r3", "psd forcing number of the 3x3 rook's graph", "paper", 5)(
    lambda seed: _zf_claim(graphs.grid_lattice(3), Rule.PSD))
_claim("cartesian.Zplus.r4", "psd forcing number of the 4x4 rook's graph", "paper", 10)(
    lambda seed: _grid_pair_zplus(0))
_claim("cartesian.Zplus.shrikhande", "psd forcing number of the switched mate", "paper", 9)(
    lambda seed: _grid_pair_zplus(1))


@_claim("cartesian.cospectral.A", "rook's grid and switched mate are adjacency-cospectral", "paper", True)
def _(seed):
    g, h = _grid_pair()
    return _cospectral_claim(g, h, MatrixKind.ADJACENCY)


@_claim("cartesian.noniso", "rook's grid and switched mate are non-isomorphic", "paper", True)
def _(seed):
    g, h = _grid_pair()
    iso, _m = graphs.is_isomorphic(g, h)
    return not iso, {}


@_claim("cartesian.bound.r11", "product bound separation at r = 11 (99 < 100)", "paper", True)
def _(seed):
    report = cons.grid_shrikhande_report(11, _grid_pair_zplus(0)[0], _grid_pair_zplus(1)[0])
    return report.separation_holds, {"report": report.to_json()}


# ---------------------------------------------------------------------------
# join identities and formulas
# ---------------------------------------------------------------------------

@_claim("join.laplacian_identity.sweep", "Laplacian join identity on 50 random pairs of order <= 8",
        "derived", 50)
def _(seed):
    rng = random.Random(1_000_003 * seed + 11)
    passes = 0
    for _i in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        h = random_graph(rng, rng.randint(1, 8))
        if laplacian_join_identity_check(g, h):
            passes += 1
    return passes, {"pairs": 50}


@_claim("join.regular_adjacency.sweep", "adjacency join identity on 50 random regular pairs of order <= 8",
        "derived", 50)
def _(seed):
    rng = random.Random(1_000_003 * seed + 12)
    passes = 0
    for _i in range(50):
        pair = []
        for _side in range(2):
            n = rng.randint(2, 8)
            k = rng.choice([k for k in range(n) if (n * k) % 2 == 0])
            pair.append(random_regular_graph(rng, n, k))
        if regular_join_adjacency_check(pair[0], pair[1]):
            passes += 1
    return passes, {"pairs": 50}


def _zf_formula_sweep(rule: Rule, offset: int):
    def fn(seed):
        rng = random.Random(1_000_003 * seed + offset)
        passes = 0
        for _i in range(30):
            g = random_connected_graph(rng, rng.randint(2, 6))
            h = random_connected_graph(rng, rng.randint(2, 6))
            if zf_join_formula_check(g, h, rule):
                passes += 1
        return passes, {"pairs": 30}
    return fn


_claim("join.zf_formula.standard.sweep", "join formula vs exact solver, standard rule, 30 connected pairs",
       "derived", 30)(_zf_formula_sweep(Rule.STANDARD, 13))
_claim("join.zf_formula.skew.sweep", "join formula vs exact solver, skew rule, 30 connected pairs",
       "derived", 30)(_zf_formula_sweep(Rule.SKEW, 14))


def _join_family_zf(which: int):
    def fn(seed):
        g1, g2 = _fig1()
        pair = cons.join_family(g1, g2, 2)
        target = (pair.g, pair.g_prime)[which]
        return _zf_claim(target, Rule.STANDARD)
    return fn


_claim("join.family.fig1.Z.left", "forcing number of left fixture joined with K2 is 2 + 6", "paper", 8)(
    _join_family_zf(0))
_claim("join.family.fig1.Z.right", "forcing number of right fixture joined with K2 is 2 + 4", "paper", 6)(
    _join_family_zf(1))


@_claim("join.family.fig1.laplacian_identity", "join family pairs satisfy the Laplacian join identity",
        "derived", True)
def _(seed):
    g1, g2 = _fig1()
    k2 = graphs.complete(2)
    return (laplacian_join_identity_check(g1, k2)
            and laplacian_join_identity_check(g2, k2)), {}


@_claim("join.iterated.fig1", "one self-join of the left fixture has forcing number 10 + 6", "paper", 16)
def _(seed):
    g = graphs.iterated_join(_fig1()[0], 1)
    return _zf_claim(g, Rule.STANDARD)


# ---------------------------------------------------------------------------
# the join-plus-spare-component switching pair
# ---------------------------------------------------------------------------

@_claim("thm51.cospectral.A", "assembled pair is adjacency-cospectral", "paper", True)
def _(seed):
    pair = _thm51()
    return _cospectral_claim(pair.g, pair.g_prime, MatrixKind.ADJACENCY)


@_claim("thm51.noniso", "assembled pair is non-isomorphic", "paper", True)
def _(seed):
    pair = _thm51()
    iso, _m = graphs.is_isomorphic(pair.g, pair.g_prime)
    return not iso, {}


@_claim("thm51.Z.Gprime", "forcing number of the assembled graph is 10 + 4 + 1", "paper", 15)
def _(seed):
    return _zf_claim(_thm51().g, Rule.STANDARD)


@_claim("thm51.Z.Gdoubleprime", "forcing number of the switched graph is 10 + 6 + 1", "paper", 17)
def _(seed):
    return _zf_claim(_thm51().g_prime, Rule.STANDARD)


@_claim("thm51.switch_audit", "switched graph matches the directly built swap", "derived", True)
def _(seed):
    pair = _thm51()
    g1, g2 = _fig1()
    m = dict(pair.params)["m"]
    direct = graphs.disjoint_union(graphs.join(g2, graphs.path(m)), g1)
    iso, mapping = graphs.is_isomorphic(pair.g_prime, direct)
    return iso, {"mapping": list(mapping) if iso else None}


# ---------------------------------------------------------------------------
# torus forcing formula and the linear-gap parameters
# ---------------------------------------------------------------------------

def _torus_claim(s: int, t: int):
    def fn(seed):
        g = graphs.cartesian(graphs.cycle(s), graphs.cycle(t))
        value, certs = _zf_claim(g, Rule.STANDARD)
        certs["formula_value"] = cons.torus_zero_forcing(s, t)
        return value, certs
    return fn


_claim("cor52.torus.C3C3", "torus C3 box C3 forcing number (equal odd case)", "paper", 5)(_torus_claim(3, 3))
_claim("cor52.torus.C3C4", "torus C3 box C4 forcing number", "paper", 6)(_torus_claim(3, 4))
_claim("cor52.torus.C4C4", "torus C4 box C4 forcing number", "paper", 8)(_torus_claim(4, 4))


@_claim("cor52.params.c3", "c = 3 parameters: orders, formula values, gap 4c - 8", "paper",
        {"order": 36, "z_first": 8, "z_second": 12, "gap": 4, "regular_4": True})
def _(seed):
    report = cons.corollary52_family(3)
    regular4 = (report.g1 is not None and report.g1.is_regular() == 4
                and report.g2 is not None and report.g2.is_regular() == 4)
    computed = {"order": report.order, "z_first": report.z_first,
                "z_second": report.z_second, "gap": report.gap, "regular_4": regular4}
    return computed, {"report": report.to_json()}


# ---------------------------------------------------------------------------
# the 6k-vertex regular construction, k in {2, 3}
# ---------------------------------------------------------------------------

def _reg6k_claims(k: int):
    prefix = f"regular6k.k{k}"

    @_claim(f"{prefix}.regular", f"k={k}: graph is 2k-regular of order 6k", "paper", True)
    def _(seed):
        pair = _reg6k(k)
        return (pair.g.n == 6 * k and pair.g.is_regular() == 2 * k
                and pair.g_prime.is_regular() == 2 * k), {}

    @_claim(f"{prefix}.switching_set", f"k={k}: core plus clique validates as a switching set",
            "paper", True)
    def _(seed):
        pair = _reg6k(k)
        return pair.partition.validation.ok, {"validation": pair.partition.validation.to_json()}

    @_claim(f"{prefix}.cospectral.A", f"k={k}: pair is adjacency-cospectral", "paper", True)
    def _(seed):
        pair = _reg6k(k)
        return _cospectral_claim(pair.g, pair.g_prime, MatrixKind.ADJACENCY)

    @_claim(f"{prefix}.noniso", f"k={k}: pair is non-isomorphic", "paper", True)
    def _(seed):
        pair = _reg6k(k)
        iso, _m = graphs.is_isomorphic(pair.g, pair.g_prime)
        return not iso, {}

    @_claim(f"{prefix}.ZH", f"k={k}: forcing number of the circulant core is 2k - 2",
            "paper", 2 * k - 2)
    def _(seed):
        return _zf_claim(cons.circulant_h(k), Rule.STANDARD)

    @_claim(f"{prefix}.ZH.witness", f"k={k}: the canonical core witness set closes", "paper", True)
    def _(seed):
        h = cons.circulant_h(k)
        final, cert = closure(h, Rule.STANDARD, cons.h_witness_set(k))
        ok = final == h.full_mask and verify_certificate(h, cert)
        return ok, {"graph6": graphs.emit_graph6(h), "certificate": cert.to_json()}

    @_claim(f"{prefix}.Z.G", f"k={k}: forcing number of the construction is 4k - 2",
            "paper", 4 * k - 2)
    def _(seed):
        return _zf_claim(_reg6k(k).g, Rule.STANDARD)

    @_claim(f"{prefix}.Zbound.Gprime", f"k={k}: switched graph has forcing number at most 4k - 3",
            "paper", True)
    def _(seed):
        switched = _reg6k(k).g_prime
        result = zero_forcing_number(switched, Rule.STANDARD)
        replay = verify_certificate(switched, result.witness)
        certs = {"value": result.value,
                 "graph6": graphs.emit_graph6(switched),
                 "certificate": result.witness.to_json(),
                 "independent_replay": replay}
        return result.value <= 4 * k - 3 and replay, certs


_reg6k_claims(2)
_reg6k_claims(3)


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
        # one broken claim must not cost the report for the others
        computed = None
        certificates = {"error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc()}
        status = "fail"
    elapsed = time.perf_counter() - start
    return ClaimReport(claim_id, spec.description, spec.expected, spec.tag,
                       computed, status, certificates, elapsed)


def _evaluate_for_pool(args: tuple[str, int]) -> ClaimReport:
    return evaluate_claim(*args)


def run_claims(prefix: Optional[str] = None, jobs: int = 1, seed: int = 0) -> list[ClaimReport]:
    """Evaluate all claims whose id starts with ``prefix`` (default: all)."""
    ids = [cid for cid in claim_ids() if prefix is None or cid.startswith(prefix)]
    if jobs > 1 and len(ids) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_evaluate_for_pool, [(cid, seed) for cid in ids]))
    else:
        reports = [evaluate_claim(cid, seed) for cid in ids]
    return sorted(reports, key=lambda r: r.claim_id)


def summarize(reports: list[ClaimReport]) -> dict:
    return {"pass": sum(r.status == "pass" for r in reports),
            "fail": sum(r.status == "fail" for r in reports),
            "skipped": sum(r.status == "skipped-budget" for r in reports)}
