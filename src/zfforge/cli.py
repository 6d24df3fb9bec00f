"""Command-line surface: generators, solvers, constructions, claim suite.

Graph inputs are accepted interchangeably as built-in names ("fig1_left",
"cycle:6", "circulant:8,3,4"), graph6 strings, or file paths holding graph6
or edge-list text; the format is sniffed and can be forced with --format.
Exit codes: 0 success, 1 failed claims or failed operations, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import claims as claims_mod
from . import constructions as cons
from . import graphs
from .forcing import Rule, closure, zero_forcing_number
from .skew_rank import max_nullity_witness_search
from .spectra import MatrixKind, char_poly

_MATRICES = {"A": MatrixKind.ADJACENCY, "L": MatrixKind.LAPLACIAN,
             "Q": MatrixKind.SIGNLESS_LAPLACIAN}


def load_graph(spec: str, fmt: str = "auto") -> graphs.Graph:
    if fmt == "auto":
        if os.path.exists(spec):
            fmt = "file"
        elif spec.split(":", 1)[0] in graphs.named_graphs():
            fmt = "name"
        else:
            fmt = "graph6"
    if fmt == "name":
        name, _, raw = spec.partition(":")
        params = [int(p) for p in raw.split(",") if p] if raw else []
        return graphs.build_named(name, *params)
    if fmt == "graph6":
        return graphs.parse_graph6(spec)
    if fmt == "edgelist":
        with open(spec, encoding="utf-8") as handle:
            return graphs.parse_edgelist(handle.read())
    if fmt == "file":
        with open(spec, encoding="utf-8") as handle:
            content = handle.read()
        lines = [ln for ln in map(str.strip, content.splitlines()) if ln and not ln.startswith("#")]
        if lines and all(len(ln.split()) == 2 and all(tok.isdigit() for tok in ln.split())
                         for ln in lines):
            return graphs.parse_edgelist(content)
        return graphs.parse_graph6(lines[0] if lines else "")
    raise ValueError(f"unknown input format {fmt!r}")


def _parse_vertex_list(raw: str) -> list[int]:
    vertices = [int(tok) for tok in raw.replace(",", " ").split()]
    for v in vertices:
        if v < 0:
            raise ValueError(f"vertex {v} is outside the graph")
    return vertices


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {raw!r}")
    return value


def _add_input_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", default="auto",
                        choices=["auto", "name", "graph6", "edgelist", "file"],
                        help="how to interpret graph inputs (default: sniff)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfforge",
        description="exact zero-forcing solvers, integer spectra, and cospectral constructions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named graph")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--format", default="graph6", choices=["graph6", "edgelist"])

    p = sub.add_parser("zf", help="exact zero forcing number with witness")
    p.set_defaults(run=_cmd_zf)
    p.add_argument("input")
    p.add_argument("--rule", required=True, choices=["standard", "skew", "psd"])
    p.add_argument("--certificate", help="write the witness certificate JSON here")
    _add_input_format(p)

    p = sub.add_parser("closure", help="closure of an initial set with its trace")
    p.set_defaults(run=_cmd_closure)
    p.add_argument("input")
    p.add_argument("--rule", required=True, choices=["standard", "skew", "psd"])
    p.add_argument("--set", required=True, help="comma-separated initial vertices")
    _add_input_format(p)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    p.set_defaults(run=_cmd_charpoly)
    p.add_argument("input")
    p.add_argument("--matrix", default="A", choices=_MATRICES)
    _add_input_format(p)

    p = sub.add_parser("cospectral", help="exact cospectrality of two graphs")
    p.set_defaults(run=_cmd_cospectral)
    p.add_argument("input1")
    p.add_argument("input2")
    p.add_argument("--matrix", default="A", choices=_MATRICES)
    _add_input_format(p)

    p = sub.add_parser("iso", help="isomorphism with mapping witness")
    p.set_defaults(run=_cmd_iso)
    p.add_argument("input1")
    p.add_argument("input2")
    _add_input_format(p)

    p = sub.add_parser("gm-switch", help="partition switching with validation report")
    p.set_defaults(run=_cmd_gm_switch)
    p.add_argument("input")
    p.add_argument("--parts", action="append", required=True,
                   help="comma-separated vertices of one part; repeat for more parts")
    _add_input_format(p)

    p = sub.add_parser("construct", help="build a shipped construction pair")
    p.set_defaults(run=_cmd_construct)
    families = p.add_subparsers(dest="family", required=True)
    f = families.add_parser("theorem51")
    # an empty --g1 or --g2 means the default seed, as leaving it out does
    f.set_defaults(build=lambda a: cons.theorem51_build(
        load_graph(a.g1, a.format) if a.g1 else None,
        load_graph(a.g2, a.format) if a.g2 else None, a.m))
    f.add_argument("--g1")
    f.add_argument("--g2")
    f.add_argument("--m", type=int)
    _add_input_format(f)
    f = families.add_parser("regular6k")
    f.set_defaults(build=lambda a: cons.regular_construction(a.k))
    f.add_argument("--k", type=int, required=True)
    f = families.add_parser("tensor-family")
    f.set_defaults(build=lambda a: cons.tensor_family(load_graph(a.base, a.format), a.r,
                                                      seed=a.seed))
    f.add_argument("--base", required=True)
    f.add_argument("--r", type=int, required=True)
    f.add_argument("--seed", type=int, default=0)
    _add_input_format(f)
    f = families.add_parser("join-family")
    f.set_defaults(build=lambda a: cons.join_family(load_graph(a.g1, a.format),
                                                    load_graph(a.g2, a.format), a.r))
    f.add_argument("--g1", required=True)
    f.add_argument("--g2", required=True)
    f.add_argument("--r", type=int, required=True)
    _add_input_format(f)
    f = families.add_parser("corollary52")
    f.set_defaults(build=lambda a: cons.corollary52_family(a.c))
    f.add_argument("--c", type=int, required=True)

    p = sub.add_parser("skew-nullity", help="maximum-nullity witness search")
    p.set_defaults(run=_cmd_skew_nullity)
    p.add_argument("input")
    p.add_argument("--budget", type=_positive_int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    _add_input_format(p)

    p = sub.add_parser("verify-paper", help="run the built-in claim catalog")
    p.set_defaults(run=_cmd_verify_paper)
    p.add_argument("--only", help="restrict to claim ids with this prefix")
    p.add_argument("--json", help="write the full report JSON here")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes, at least 1 (default: 1, no process pool)")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _write_json(payload, path: Optional[str] = None) -> None:
    """Print ``payload`` as indented JSON, or write it to the file ``path``."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _cmd_gen(args) -> int:
    g = graphs.build_named(args.name, *args.params)
    print(graphs.emit_graph6(g) if args.format == "graph6" else graphs.emit_edgelist(g))
    return 0


def _cmd_zf(args) -> int:
    g = load_graph(args.input, args.format)
    result = zero_forcing_number(g, Rule(args.rule))
    print(result.value)
    if args.certificate:
        _write_json(result.witness.to_json(), args.certificate)
    return 0


def _cmd_closure(args) -> int:
    g = load_graph(args.input, args.format)
    initial = _parse_vertex_list(args.set)
    final, cert = closure(g, Rule(args.rule), initial)
    _write_json({"final": sorted(graphs.bits(final)), "all_blue": final == g.full_mask,
                 "certificate": cert.to_json()})
    return 0


def _cmd_charpoly(args) -> int:
    g = load_graph(args.input, args.format)
    print(json.dumps(char_poly(g, _MATRICES[args.matrix]).to_json()))
    return 0


def _cmd_cospectral(args) -> int:
    kind = _MATRICES[args.matrix]
    g = load_graph(args.input1, args.format)
    h = load_graph(args.input2, args.format)
    pg, ph = char_poly(g, kind), char_poly(h, kind)
    _write_json({"cospectral": pg == ph, "char_poly_1": pg.to_json(),
                 "char_poly_2": ph.to_json()})
    return 0


def _cmd_iso(args) -> int:
    g = load_graph(args.input1, args.format)
    h = load_graph(args.input2, args.format)
    iso, mapping = graphs.is_isomorphic(g, h)
    _write_json({"isomorphic": iso, "mapping": list(mapping) if iso else None})
    return 0


def _cmd_gm_switch(args) -> int:
    g = load_graph(args.input, args.format)
    parts = [graphs.mask_from(_parse_vertex_list(raw)) for raw in args.parts]
    partition = cons.switching_partition(g, parts)
    if not partition.ok:
        _write_json({"error": "invalid switching partition", "validation": partition.to_json()})
        return 1
    switched = cons.gm_switch(g, parts)
    _write_json({"graph6": graphs.emit_graph6(switched), "validation": partition.to_json()})
    return 0


def _cmd_construct(args) -> int:
    _write_json(args.build(args).to_json())
    return 0


def _cmd_skew_nullity(args) -> int:
    g = load_graph(args.input, args.format)
    witness = max_nullity_witness_search(g, budget=args.budget, seed=args.seed)
    _write_json(witness.to_json())
    return 0


def _cmd_verify_paper(args) -> int:
    reports = claims_mod.run_claims(prefix=args.only, jobs=args.jobs, seed=args.seed)
    if not reports:
        print(f"no claims match prefix {args.only!r}", file=sys.stderr)
        return 2
    for report in reports:
        print(f"{report.status:<15} {report.claim_id:<35} "
              f"expected={report.expected!r} computed={report.computed!r}")
    summary = claims_mod.summarize(reports)
    print(f"{len(reports)} claims: {summary['pass']} pass, "
          f"{summary['fail']} fail, {summary['skipped']} skipped")
    if args.json:
        _write_json({"claims": [r.to_json() for r in reports], "summary": summary,
                     "version": claims_mod.VERSION}, args.json)
    return 0 if summary["fail"] == 0 and summary["skipped"] == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, RuntimeError) as exc:
        if getattr(args, "json", None):
            try:
                _write_json({"error": str(exc)}, args.json)
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
