import dataclasses
import hashlib
import importlib
import json
import pkgutil

import pytest

import zfforge
from zfforge import claims
from zfforge.claims import claim_ids, evaluate_claim, run_claims, summarize
from zfforge.constructions import join_family, tensor_family
from zfforge.forcing import BudgetExceededError
from zfforge.graphs import ex32_g, ex32_gprime, fig1_left, fig1_right

# claim ids are a frozen public contract; renames must be deliberate
FROZEN_CLAIM_IDS = (
    "cartesian.Zplus.r2",
    "cartesian.Zplus.r3",
    "cartesian.Zplus.r4",
    "cartesian.Zplus.shrikhande",
    "cartesian.bound.r11",
    "cartesian.cospectral.A",
    "cartesian.noniso",
    "cor52.params.c3",
    "cor52.torus.C3C3",
    "cor52.torus.C3C4",
    "cor52.torus.C4C4",
    "ex32.Zminus.G",
    "ex32.Zminus.Gprime",
    "ex32.cospectral.A",
    "ex32.skew_nullity.G",
    "ex32.skew_nullity.Gprime",
    "fig1.Z.left",
    "fig1.Z.right",
    "fig1.Zminus.left",
    "fig1.Zminus.right",
    "fig1.Zplus.left",
    "fig1.Zplus.right",
    "fig1.cospectral.A",
    "fig1.noniso",
    "join.family.fig1.Z.left",
    "join.family.fig1.Z.right",
    "join.family.fig1.laplacian_identity",
    "join.iterated.fig1",
    "join.laplacian_identity.sweep",
    "join.regular_adjacency.sweep",
    "join.zf_formula.skew.sweep",
    "join.zf_formula.standard.sweep",
    "regcospec.fig1",
    "regcospec.grid_shrikhande",
    "regcospec.regular6k.k2",
    "regcospec.regular6k.k3",
    "regular6k.k2.Z.G",
    "regular6k.k2.ZH",
    "regular6k.k2.ZH.witness",
    "regular6k.k2.Zbound.Gprime",
    "regular6k.k2.cospectral.A",
    "regular6k.k2.noniso",
    "regular6k.k2.regular",
    "regular6k.k2.switching_set",
    "regular6k.k3.Z.G",
    "regular6k.k3.ZH",
    "regular6k.k3.ZH.witness",
    "regular6k.k3.Zbound.Gprime",
    "regular6k.k3.cospectral.A",
    "regular6k.k3.noniso",
    "regular6k.k3.regular",
    "regular6k.k3.switching_set",
    "tensor.Z.G",
    "tensor.Z.Gprime",
    "tensor.Zminus.G",
    "tensor.Zminus.Gprime",
    "tensor.cospectral.A",
    "thm51.Z.Gdoubleprime",
    "thm51.Z.Gprime",
    "thm51.cospectral.A",
    "thm51.noniso",
    "thm51.switch_audit",
)


def test_claim_catalog_is_frozen():
    assert claim_ids() == FROZEN_CLAIM_IDS


def test_every_claim_carries_provenance_tag():
    for cid in claim_ids():
        assert claims.REGISTRY[cid].tag in ("paper", "derived")


def test_run_claims_prefix_and_canonical_order():
    reports = run_claims(prefix="cor52")
    assert [r.claim_id for r in reports] == sorted(r.claim_id for r in reports)
    assert all(r.status == "pass" for r in reports)
    assert summarize(reports) == {"pass": 4, "fail": 0, "skipped": 0}


def test_run_claims_parallel_matches_sequential():
    seq = run_claims(prefix="fig1", jobs=1)
    par = run_claims(prefix="fig1", jobs=2)
    assert [(r.claim_id, r.status, r.computed) for r in seq] == \
           [(r.claim_id, r.status, r.computed) for r in par]


def test_budget_exhaustion_reports_skipped(monkeypatch):
    def starved(seed):
        raise BudgetExceededError("cap")

    broken = dict(claims.REGISTRY)
    spec = broken["fig1.Z.left"]
    broken["fig1.Z.left"] = claims._Claim(spec.description, spec.tag, spec.expected,
                                          starved)
    monkeypatch.setattr(claims, "REGISTRY", broken)
    report = evaluate_claim("fig1.Z.left")
    assert report.status == "skipped-budget"
    assert "budget_error" in report.certificates


def test_raising_claim_reports_fail_with_traceback(monkeypatch):
    def broken_claim(seed):
        raise ZeroDivisionError("division by zero in a claim body")

    broken = dict(claims.REGISTRY)
    spec = broken["fig1.Z.left"]
    broken["fig1.Z.left"] = claims._Claim(spec.description, spec.tag, spec.expected,
                                          broken_claim)
    monkeypatch.setattr(claims, "REGISTRY", broken)
    report = evaluate_claim("fig1.Z.left")
    assert report.status == "fail" and report.computed is None
    assert report.certificates["error"] == \
        "ZeroDivisionError: division by zero in a claim body"
    assert "broken_claim" in report.certificates["traceback"]


def test_product_fixtures_are_the_family_graphs():
    # the tensor and join.family claims solve the graphs the families build
    assert claims._fixture("tensor") == (tensor_family(ex32_g(), 3).graph,
                                         tensor_family(ex32_gprime(), 3).graph)
    family = join_family(fig1_left(), fig1_right(), 2)
    assert claims._fixture("join.family") == (family.g, family.g_prime)


def test_sweep_claims_pass_for_any_seed():
    for seed in (0, 1, 17):
        report = evaluate_claim("join.laplacian_identity.sweep", seed=seed)
        assert report.status == "pass" and report.computed == 50


def test_claim_report_json_shape():
    report = evaluate_claim("fig1.Z.left")
    data = report.to_json()
    assert data["claim_id"] == "fig1.Z.left"
    assert data["expected"] == 6 and data["computed"] == 6
    assert data["tag"] == "paper"
    assert data["status"] == "pass"
    assert data["certificates"]["independent_replay"] is True
    assert isinstance(data["wall_time"], float)


# sha256 of the sorted (claim id, sorted certificate keys) pairs: the report
# may gain certificate keys, but only deliberately, with this digest updated
CERTIFICATE_KEYS_SHA256 = "29a9db175425695b1d5f407daf2ede601104c02a7e1dcfc8906ab336d08e1833"


def test_attached_certificates_are_self_contained():
    # a third party holding only the report JSON can replay every forcing
    # certificate: the solved graph travels with it as graph6
    from zfforge.forcing import ForcingCertificate, verify_certificate
    from zfforge.graphs import parse_graph6

    checked = 0
    reports = run_claims(jobs=2)
    keys = sorted((r.claim_id, sorted(r.certificates)) for r in reports)
    assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() == CERTIFICATE_KEYS_SHA256
    for report in reports:
        certs = report.certificates
        if "certificate" in certs and "graph6" in certs:
            g = parse_graph6(certs["graph6"])
            cert = ForcingCertificate.from_json(certs["certificate"])
            assert verify_certificate(g, cert), report.claim_id
            checked += 1
    assert checked == 32


def test_duplicate_claim_id_is_rejected():
    before = dict(claims.REGISTRY)
    with pytest.raises(ValueError, match="duplicate claim id fig1.Z.left"):
        claims._claim("fig1.Z.left", "a second fig1.Z.left", "paper", 6, lambda seed: (6, {}))
    assert claims.REGISTRY == before


def test_claim_is_the_only_dataclass():
    # the value classes are plain slotted classes: decorating a dataclass is
    # most of the cost of importing the package
    found = set()
    for info in pkgutil.iter_modules(zfforge.__path__):
        module = importlib.import_module(f"zfforge.{info.name}")
        found |= {cls for cls in vars(module).values() if isinstance(cls, type)
                  and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)}
    assert found == {claims._Claim}


def test_claim_specs_can_be_replaced_field_by_field():
    # the traced benchmark wraps each claim body with dataclasses.replace
    spec = claims.REGISTRY["fig1.Z.left"]
    swapped = dataclasses.replace(spec, fn=lambda seed: (seed, {}))
    assert (swapped.description, swapped.tag, swapped.expected) == \
        (spec.description, spec.tag, spec.expected)
    assert swapped.fn(5) == (5, {}) and spec.fn is not swapped.fn
