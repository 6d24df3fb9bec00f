import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zfforge import claims
from zfforge.cli import load_graph, main
from zfforge.forcing import ForcingCertificate, verify_certificate
from zfforge.graphs import cartesian, complete, cycle, emit_graph6, fig1_left, parse_graph6, path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_graph6(capsys):
    code, out, _ = run(capsys, "gen", "fig1_left")
    assert code == 0
    assert parse_graph6(out.strip()) == fig1_left()


def test_gen_edgelist(capsys):
    code, out, _ = run(capsys, "gen", "complete", "3", "--format", "edgelist")
    assert code == 0
    assert out.strip().splitlines() == ["0 1", "0 2", "1 2"]


def test_gen_unknown_name_fails(capsys):
    code, _out, err = run(capsys, "gen", "petersen")
    assert code == 1 and "error" in err


def test_zf_value_and_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "zf", "fig1_left", "--rule", "standard",
                       "--certificate", str(cert_path))
    assert code == 0
    assert out.strip() == "6"
    cert = ForcingCertificate.from_json(json.loads(cert_path.read_text()))
    assert verify_certificate(fig1_left(), cert)


def test_zf_accepts_graph6_input(capsys):
    code, out, _ = run(capsys, "zf", emit_graph6(cycle(6)), "--rule", "skew")
    assert code == 0 and out.strip() == "2"


def test_zf_solves_a_component_above_24_vertices(capsys):
    torus = emit_graph6(cartesian(cycle(5), cycle(5)))
    code, out, _ = run(capsys, "zf", torus, "--rule", "standard")
    assert code == 0 and out.strip() == "9"


def test_closure_trace(capsys):
    code, out, _ = run(capsys, "closure", "path:3", "--rule", "standard", "--set", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_blue"] is True
    assert payload["final"] == [0, 1, 2]
    assert payload["certificate"]["forces"] == [[0, 1], [1, 2]]


def test_charpoly(capsys):
    code, out, _ = run(capsys, "charpoly", "cycle:6", "--matrix", "A")
    assert code == 0
    assert json.loads(out) == ["1", "0", "-6", "0", "9", "0", "-4"]


def test_cospectral(capsys):
    code, out, _ = run(capsys, "cospectral", "ex32_G", "ex32_Gprime", "--matrix", "A")
    assert code == 0
    payload = json.loads(out)
    assert payload["cospectral"] is True
    assert payload["char_poly_1"] == payload["char_poly_2"]


def test_iso(capsys):
    code, out, _ = run(capsys, "iso", "fig1_left", "fig1_right")
    assert code == 0
    assert json.loads(out) == {"isomorphic": False, "mapping": None}
    code, out, _ = run(capsys, "iso", "cycle:5", "circulant:5,2")
    payload = json.loads(out)
    assert payload["isomorphic"] is True and len(payload["mapping"]) == 5


def test_iso_order_zero_prints_empty_mapping(capsys):
    # "?" is the graph6 string of the order-0 graph; its mapping is empty, not absent
    code, out, _ = run(capsys, "iso", "?", "?", "--format", "graph6")
    assert code == 0
    assert json.loads(out) == {"isomorphic": True, "mapping": []}


def test_gm_switch(capsys):
    code, out, _ = run(capsys, "gm-switch", "grid_lattice:4", "--parts", "0,5,10,15")
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["ok"] is True
    switched = parse_graph6(payload["graph6"])
    assert switched.is_regular() == 6


def test_gm_switch_invalid_partition(capsys):
    code, out, _ = run(capsys, "gm-switch", "path:5", "--parts", "0,2,4")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid switching partition"
    assert payload["validation"]["issues"]
    code, out, _ = run(capsys, "gm-switch", "grid_lattice:4", "--parts", "0,99")
    assert code == 1
    assert json.loads(out)["validation"]["issues"] == ["part 0 has vertices outside the graph"]
    code, out, _ = run(capsys, "gm-switch", "grid_lattice:4", "--parts", ",")
    assert code == 1
    assert json.loads(out)["validation"]["issues"] == ["part 0 is empty"]


def test_negative_vertex_is_named(capsys):
    code, out, err = run(capsys, "gm-switch", "grid_lattice:4", "--parts=-1,5")
    assert code == 1 and out == ""
    assert err.strip() == "error: vertex -1 is outside the graph"


def test_construct_regular6k(capsys):
    code, out, _ = run(capsys, "construct", "regular6k", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"] == "regular6k"
    g = parse_graph6(payload["g"])
    assert g.n == 12 and g.is_regular() == 4


def test_construct_corollary52(capsys):
    code, out, _ = run(capsys, "construct", "corollary52", "--c", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == 4 and payload["skipped"]


def test_construct_missing_params(capsys):
    code, _out, err = run(capsys, "construct", "regular6k")
    assert code == 1 and "--k" in err


def test_construct_theorem51_with_explicit_seeds(capsys):
    code, out, _ = run(capsys, "construct", "theorem51",
                       "--g1", "cycle:4", "--g2", "cycle:4", "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert parse_graph6(payload["g"]).n == 12
    assert payload["params"] == {"m": 4, "n": 4}


def test_construct_tensor_and_join_families(capsys):
    code, out, _ = run(capsys, "construct", "tensor-family", "--base", "ex32_G", "--r", "3")
    assert code == 0
    payload = json.loads(out)
    assert parse_graph6(payload["graph"]).n == 21
    assert payload["witness"]["nullity"] == 3
    code, out, _ = run(capsys, "construct", "join-family",
                       "--g1", "fig1_left", "--g2", "fig1_right", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert {e["name"]: e["value"] for e in payload["expected"]}["Z(g1_join)"] == 8
    code, _out, err = run(capsys, "construct", "join-family",
                          "--g1", "path:3", "--g2", "complete:3", "--r", "2")
    assert code == 1 and "cospectral" in err


def test_skew_nullity(capsys):
    code, out, _ = run(capsys, "skew-nullity", "ex32_Gprime", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["nullity"] == 1
    assert payload["certified"] is True
    assert payload["seed"] == 3


def test_verify_paper_prefix(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "fig1")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("pass")]
    assert len(lines) == 8
    assert "8 claims: 8 pass, 0 fail, 0 skipped" in out


def test_verify_paper_stdout_is_byte_stable(capsys):
    _code, first, _ = run(capsys, "verify-paper", "--only", "join.laplacian", "--seed", "4")
    _code, second, _ = run(capsys, "verify-paper", "--only", "join.laplacian", "--seed", "4")
    assert first == second


def test_verify_paper_json_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _out, _ = run(capsys, "verify-paper", "--only", "cor52",
                        "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["summary"] == {"pass": 4, "fail": 0, "skipped": 0}
    assert payload["version"] == claims.VERSION
    assert all("wall_time" in c for c in payload["claims"])
    ids = [c["claim_id"] for c in payload["claims"]]
    assert ids == sorted(ids)


# sha256 of the seed-0 --json report with every claim's wall_time removed,
# serialised with sorted keys: every other field, certificates included, is
# a pure function of the seed
REPORT_SEED0_SHA256 = "e5074407e007e52869b93d7b323834de2720188264462053869cbcc9919dee37"


def test_verify_paper_json_report_is_pinned(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _out, _ = run(capsys, "verify-paper", "--seed", "0", "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    for report in payload["claims"]:
        del report["wall_time"]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_SEED0_SHA256


def test_verify_paper_no_match_is_usage_error(capsys):
    code, _out, err = run(capsys, "verify-paper", "--only", "nonexistent")
    assert code == 2 and "no claims match" in err


def test_verify_paper_exit_1_on_failure(capsys, monkeypatch):
    broken = dict(claims.REGISTRY)
    spec = broken["fig1.Z.left"]
    broken["fig1.Z.left"] = claims._Claim(spec.description, spec.tag, 7, spec.fn)
    monkeypatch.setattr(claims, "REGISTRY", broken)
    code, out, _ = run(capsys, "verify-paper", "--only", "fig1.Z.left")
    assert code == 1
    assert "fail" in out.splitlines()[0]


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zf", "fig1_left", "--rule", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_verify_paper_jobs_below_one_is_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--only", "fig1.Z.left", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs: must be an integer of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_skew_nullity_budget_below_one_is_usage_error(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["skew-nullity", "fig1_left", "--budget", budget])
    assert exc.value.code == 2
    assert "--budget: must be an integer of at least 1" in capsys.readouterr().err


def test_import_loads_no_process_pool():
    # the pool machinery is about 40% of a cold start, and only --jobs > 1 needs it
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, zfforge, zfforge.cli\n"
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.strip() == "[]"


def test_passing_run_loads_no_traceback():
    # claims formats a traceback only for a claim that raises
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import contextlib, io, sys\n"
             "from zfforge import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(['verify-paper', '--only', 'fig1'])\n"
             "print(code, sorted({'traceback', 'textwrap'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.strip() == "0 []"


def test_load_graph_formats(tmp_path):
    assert load_graph("fig1_left") == fig1_left()
    assert load_graph("cycle:6") == cycle(6)
    assert load_graph(emit_graph6(complete(4))) == complete(4)
    edge_file = tmp_path / "p3.txt"
    edge_file.write_text("0 1\n1 2\n")
    assert load_graph(str(edge_file)) == path(3)
    g6_file = tmp_path / "g.g6"
    g6_file.write_text(emit_graph6(fig1_left()) + "\n")
    assert load_graph(str(g6_file)) == fig1_left()
    assert load_graph(str(edge_file), fmt="edgelist") == path(3)
    with pytest.raises(ValueError):
        load_graph("fig1_left", fmt="nonsense")


def test_error_json_written(tmp_path, capsys, monkeypatch):
    # an error outside every claim aborts the command with an error record
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(claims, "run_claims", boom)
    out_path = tmp_path / "err.json"
    code = main(["verify-paper", "--only", "fig1.Z.left", "--json", str(out_path)])
    capsys.readouterr()
    assert code == 1
    assert json.loads(out_path.read_text()) == {"error": "boom"}


def test_raising_claim_fails_alone_in_the_report(tmp_path, capsys, monkeypatch):
    def boom(seed):
        raise ValueError("boom")

    broken = dict(claims.REGISTRY)
    spec = broken["fig1.Z.left"]
    broken["fig1.Z.left"] = claims._Claim(spec.description, spec.tag, spec.expected, boom)
    monkeypatch.setattr(claims, "REGISTRY", broken)
    out_path = tmp_path / "report.json"
    code = main(["verify-paper", "--only", "fig1.Z", "--json", str(out_path)])
    capsys.readouterr()
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["summary"] == {"pass": 5, "fail": 1, "skipped": 0}
    left = next(c for c in payload["claims"] if c["claim_id"] == "fig1.Z.left")
    assert left["status"] == "fail"
    assert left["certificates"]["error"] == "ValueError: boom"
