"""The benchmark's workloads: inputs built from a seed, the timed calls, and
the check of every output.

Each workload is a function ``(seed, golden) -> list[Item]``.  Building the
list is the set-up the benchmark times as ``setup_s``; ``Item.run`` is the one
timed call into zfforge; ``Item.check`` judges its output and returns one
``Outcome`` per counted item (the catalog's single CLI call yields one outcome
per claim, timed by a hook around ``claims.evaluate_claim``).

Calls go through module attributes (``forcing.zero_forcing_number``, not a
name imported from it), so the tracer's patches apply to them as well.

Why these workloads:

* ``catalog``    the full ``verify-paper`` run users make; about 95% of it is
                 the exact forcing solver, the rest spectra, isomorphism,
                 skew rank and the claim runner.
* ``random_zf``  the solver alone on seeded graphs nobody hand-picked, in fixed
                 strata of order and density; dense strata have Z near n and
                 sparse strata small Z, so a search strategy that helps one
                 and hurts the other shows here and hides in ``catalog``.
* ``pair_audit`` cospectrality, isomorphism and skew-rank work with no
                 forcing at all: the no-change control for solver changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from zfforge import claims, cli, constructions, forcing, graphs, skew_rank, spectra
from zfforge import randgraphs

ORDERS = (12, 14, 16, 18)
DENSITIES = (0.15, 0.3, 0.5, 0.7, 0.85)
RULES = (forcing.Rule.STANDARD, forcing.Rule.PSD, forcing.Rule.SKEW)
LARGE_ORDERS = (32, 48, 64)
REGULAR6K = (2, 3, 4, 5, 6, 7)
KINDS = (spectra.MatrixKind.ADJACENCY, spectra.MatrixKind.LAPLACIAN,
         spectra.MatrixKind.SIGNLESS_LAPLACIAN)


class Outcome(NamedTuple):
    name: str
    interval: Optional[tuple[float, float]]  # None: the item's own timed call
    ok: bool
    record: object  # JSON-able summary of the output, compared traced vs untraced


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[Outcome]]
    count: int = 1  # outcomes the item stands for when its call raises
    stratum: Optional[str] = None  # "dense" / "sparse" for random_zf solves


def _density_stratum(p: float) -> Optional[str]:
    if p >= 0.7:
        return "dense"
    if p <= 0.3:
        return "sparse"
    return None


# ---------------------------------------------------------------------------
# catalog: verify-paper through the CLI entry point
# ---------------------------------------------------------------------------

def catalog(seed: int, golden: dict) -> list[Item]:
    argv = ["verify-paper", "--jobs", "1", "--seed", str(seed)]
    expected_digest = golden["catalog"]["stdout_sha256"]
    expected_ids = tuple(golden["catalog"]["claim_ids"])
    reports: list = []  # (report, start, end) per claim, in evaluation order
    evaluate = claims.evaluate_claim

    def timed_evaluate(*args, **kwargs):
        start = time.perf_counter()
        report = evaluate(*args, **kwargs)
        reports.append((report, start, time.perf_counter()))
        return report

    claims.evaluate_claim = timed_evaluate

    def run():
        reports.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue(), list(reports)

    def check(output) -> list[Outcome]:
        code, stdout, evaluated = output
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        whole_ok = (code == 0 and digest == expected_digest
                    and tuple(r.claim_id for r, _a, _b in evaluated) == expected_ids)
        if not evaluated:
            return [Outcome(cid, None, False, None) for cid in expected_ids]
        return [Outcome(r.claim_id, (start, end), whole_ok and r.status == "pass",
                        [r.status, digest]) for r, start, end in evaluated]

    return [Item("verify-paper", run, check, count=len(expected_ids))]


# ---------------------------------------------------------------------------
# random_zf: exact Z, Z+ and Z- on fixed strata of seeded connected graphs
# ---------------------------------------------------------------------------

def random_zf(seed: int, golden: dict) -> list[Item]:
    rng = random.Random(seed)
    table = golden["random_zf"].get(str(seed))
    items = []
    for n in ORDERS:
        for p in DENSITIES:
            g = randgraphs.random_connected_graph(rng, n, p)
            min_degree = min(g.degree(v) for v in range(n))
            for rule in RULES:
                name = f"n{n}.p{p}.{rule.value}"
                expected = table[len(items)] if table is not None else None
                items.append(Item(name, _solve(g, rule),
                                  _solve_check(name, g, rule, expected, min_degree),
                                  stratum=_density_stratum(p)))
    return items


def _solve(g, rule):
    return lambda: forcing.zero_forcing_number(g, rule)


def _solve_check(name, g, rule, expected, min_degree):
    def check(result) -> list[Outcome]:
        witness = result.witness
        ok = (witness.rule is rule and len(witness.initial) == result.value
              and forcing.verify_certificate(g, witness))
        if expected is not None:
            ok = ok and result.value == expected
        elif rule is forcing.Rule.STANDARD:
            # off the golden seeds only a bound checks the minimality: Z >= min degree
            ok = ok and result.value >= min_degree
        return [Outcome(name, None, ok, [result.value, witness.to_json()])]
    return check


# ---------------------------------------------------------------------------
# pair_audit: cospectral pairs, isomorphism verdicts and skew nullities
# ---------------------------------------------------------------------------

def pair_audit(seed: int, golden: dict) -> list[Item]:
    rng = random.Random(seed)
    fixed = golden["pair_audit"]["fixed"]
    items = []

    pairs = [(f"regular6k.k{k}", constructions.regular_construction(k)) for k in REGULAR6K]
    pairs.append(("theorem51", constructions.theorem51_build()))
    for name, pair in pairs:
        items.append(_spectral_pair(name, pair.g, pair.g_prime, KINDS, fixed[name]))
    items.append(_spectral_pair("grid_shrikhande", graphs.grid_lattice(4),
                                constructions.shrikhande(), KINDS, fixed["grid_shrikhande"]))

    for n in LARGE_ORDERS:
        g, partition = constructions.planted_switching_instance(rng, n, n)
        items.append(_spectral_pair(f"planted.n{n}", g, constructions.gm_switch(g, partition),
                                    KINDS[:1], {"A": True}))

    for n in LARGE_ORDERS:
        g = randgraphs.random_regular_graph(rng, n, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        items.append(_relabelled(f"relabelled.n{n}", g, graphs.relabel(g, tuple(perm))))

    nullities = golden["pair_audit"]["skew_nullity"]
    by_seed = golden["pair_audit"]["fig1_left_nullity"].get(str(seed))
    for name, g in (("fig1_left", graphs.fig1_left()), ("ex32_G", graphs.ex32_g()),
                    ("ex32_Gprime", graphs.ex32_gprime())):
        expected = nullities.get(name, by_seed)
        items.append(_skew(f"skew.{name}", g, seed, expected))
    return items


def _spectral_pair(name, g, h, kinds, expected):
    def run():
        polys = [(spectra.char_poly(g, kind), spectra.char_poly(h, kind)) for kind in kinds]
        if len(kinds) == 1:
            return polys, None
        return polys, graphs.is_isomorphic(g, h)[0]

    def check(output) -> list[Outcome]:
        polys, iso = output
        verdict = {kind: pg == ph for kind, (pg, ph) in zip("ALQ", polys)}
        if iso is not None:
            verdict["iso"] = iso
        record = [verdict, [pg.to_json() for pg, _ph in polys]]
        return [Outcome(name, None, verdict == expected, record)]

    return Item(name, run, check)


def _relabelled(name, g, h):
    def check(output) -> list[Outcome]:
        iso, mapping = output
        ok = bool(iso) and graphs.relabel(g, mapping).adj == h.adj
        return [Outcome(name, None, ok, [iso, list(mapping or ())])]
    return Item(name, lambda: graphs.is_isomorphic(g, h), check)


def _skew(name, g, seed, expected):
    def check(witness) -> list[Outcome]:
        nullity = g.n - skew_rank.exact_rank(witness)
        ok = nullity == witness.achieved_nullity
        if expected is not None:
            ok = ok and nullity == expected
        else:
            # off the golden seeds: a realised nullity never exceeds Z_minus
            bound = forcing.zero_forcing_number(g, forcing.Rule.SKEW).value
            ok = ok and nullity <= bound
        return [Outcome(name, None, ok, witness.to_json())]
    return Item(name, lambda: skew_rank.max_nullity_witness_search(g, seed=seed), check)


WORKLOADS = {"catalog": catalog, "random_zf": random_zf, "pair_audit": pair_audit}
