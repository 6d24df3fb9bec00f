"""Spans around zfforge's public functions, recorded from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every name
that refers to it in every loaded ``zfforge`` module: ``claims``,
``constructions`` and ``cli`` import solver and spectra functions by name, so
patching only the defining module would miss their calls.  A span records
its layer, start, end and parent; a layer's self time is its spans' time
minus the time of their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict

# (module, function, layer)
TARGETS = (
    ("zfforge.forcing", "zero_forcing_number", "forcing.zf"),
    ("zfforge.forcing", "closure", "forcing.closure"),
    ("zfforge.forcing", "verify_certificate", "forcing.verify_certificate"),
    ("zfforge.spectra", "char_poly", "spectra.char_poly"),
    ("zfforge.spectra", "laplacian_join_identity_check", "spectra.identity"),
    ("zfforge.spectra", "regular_join_adjacency_check", "spectra.identity"),
    ("zfforge.graphs", "is_isomorphic", "graphs.is_isomorphic"),
    ("zfforge.graphs", "emit_graph6", "graphs.io"),
    ("zfforge.graphs", "parse_graph6", "graphs.io"),
    ("zfforge.constructions", "theorem51_build", "constructions.build"),
    ("zfforge.constructions", "corollary52_family", "constructions.build"),
    ("zfforge.constructions", "regular_construction", "constructions.build"),
    ("zfforge.constructions", "tensor_family", "constructions.build"),
    ("zfforge.constructions", "join_family", "constructions.build"),
    ("zfforge.constructions", "grid_shrikhande_report", "constructions.build"),
    ("zfforge.constructions", "switching_partition", "constructions.switch"),
    ("zfforge.constructions", "gm_switch", "constructions.switch"),
    ("zfforge.skew_rank", "max_nullity_witness_search", "skew_rank.witness_search"),
    ("zfforge.skew_rank", "exact_rank", "skew_rank.exact_rank"),
    ("zfforge.claims", "run_claims", "claims.run"),
    ("zfforge.claims", "evaluate_claim", "claims.evaluate"),
    ("zfforge.cli", "main", "cli"),
)

# Layers each workload must reach; the traced run fails its check otherwise.
EXERCISED = {
    "catalog": ("forcing.zf", "forcing.closure", "forcing.verify_certificate",
                "spectra.char_poly", "spectra.identity", "graphs.is_isomorphic",
                "graphs.io", "constructions.build", "constructions.switch",
                "skew_rank.witness_search", "skew_rank.exact_rank",
                "claims.evaluate", "cli"),
    "random_zf": ("forcing.zf", "forcing.closure"),
    "pair_audit": ("spectra.char_poly", "graphs.is_isomorphic", "constructions.build",
                   "constructions.switch", "skew_rank.witness_search",
                   "skew_rank.exact_rank"),
}

# Claims taking 50 ms or more at the seed commit; reported as claims.<id>.s.
SLOW_CLAIMS = (
    "join.iterated.fig1", "tensor.Z.Gprime", "tensor.Zminus.Gprime",
    "thm51.Z.Gdoubleprime", "thm51.Z.Gprime", "tensor.Z.G", "tensor.Zminus.G",
    "regular6k.k3.Z.G", "cartesian.Zplus.r4", "regular6k.k3.Zbound.Gprime",
    "join.regular_adjacency.sweep", "cartesian.Zplus.shrikhande",
)

CHAR_POLY_ORDERS = (("n_le16", 16), ("n17_32", 32), ("n33_64", 64))


class Tracer:
    def __init__(self):
        # span: [layer, start, end, parent index, detail]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = True
        self.stratum = None  # set per item by the pass runner
        self._results: dict[int, object] = {}  # id -> solver result, for memo hits

    def wrap(self, layer, fn):
        detail_of = _DETAILS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if detail_of is not None:
                span[4] = detail_of(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "zfforge" or name.startswith("zfforge.")]
        for module_name, func_name, layer in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapped = self.wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        # claim bodies get a span of their own so that claims.evaluate's self
        # time is the runner's overhead, not the claims' glue code
        registry = sys.modules["zfforge.claims"].REGISTRY
        for claim_id, spec in registry.items():
            registry[claim_id] = dataclasses.replace(spec, fn=self.wrap("claims.claim", spec.fn))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    def metrics(self, scale: float, paused) -> dict:
        """Per-layer metrics.  Times leave out ``paused(start, end)``, the
        clock's sampling inside a span, and are multiplied by ``scale``."""
        length = [end - start - paused(start, end) for _l, start, end, _p, _d in self.spans]
        child = [0.0] * len(self.spans)
        for index, (_layer, _start, _end, parent, _detail) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += length[index]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for index, (layer, _start, _end, _parent, detail) in enumerate(self.spans):
            own = length[index] - child[index]
            keys = [layer] + [f"{layer}.{tag}" for tag in (detail or {}).get("tags", ())]
            for key in keys:
                calls[key] += 1
                self_s[key] += own
        out = {}

        def put(key, value, unit):
            out[key] = {"value": value * scale if unit in ("s", "ms", "us") else value,
                        "unit": unit}

        def details(layer):
            return [(length[i], span[4] or {}) for i, span in enumerate(self.spans)
                    if span[0] == layer]

        # forcing
        zf = details("forcing.zf")
        evals = sum(d.get("explored", 0) for _t, d in zf)
        solves = sum(1 for _t, d in zf if "explored" in d)
        put("forcing.zf.calls", calls["forcing.zf"], "count")
        put("forcing.zf.self_s", self_s["forcing.zf"], "s")
        for tag in ("standard", "skew", "psd", "dense", "sparse"):
            put(f"forcing.zf.{tag}.self_s", self_s[f"forcing.zf.{tag}"], "s")
        put("forcing.closure_evals", evals, "count")
        put("forcing.us_per_eval", 1e6 * self_s["forcing.zf"] / evals if evals else 0.0, "us")
        put("forcing.solve_yield", solves / evals if evals else 0.0, "ratio")
        put("forcing.zf.memo_hits", sum(1 for _t, d in zf if d.get("memo_hit")), "count")
        for layer in ("forcing.closure", "forcing.verify_certificate"):
            put(f"{layer}.calls", calls[layer], "count")
            put(f"{layer}.self_s", self_s[layer], "s")
        put("forcing.budget_errors",
            sum(1 for span in self.spans
                if (span[4] or {}).get("error") == "BudgetExceededError"), "count")
        # spectra
        put("spectra.char_poly.calls", calls["spectra.char_poly"], "count")
        put("spectra.char_poly.self_s", self_s["spectra.char_poly"], "s")
        for tag, _top in CHAR_POLY_ORDERS:
            key = f"spectra.char_poly.{tag}"
            put(f"{key}.mean_ms", 1e3 * self_s[key] / calls[key] if calls[key] else 0.0, "ms")
        put("spectra.identity.calls", calls["spectra.identity"], "count")
        put("spectra.identity.self_s", self_s["spectra.identity"], "s")
        # graphs
        iso = details("graphs.is_isomorphic")
        put("graphs.is_isomorphic.calls", len(iso), "count")
        put("graphs.is_isomorphic.max_ms", 1e3 * max((t for t, _d in iso), default=0.0), "ms")
        for tag in ("yes", "no"):
            put(f"graphs.is_isomorphic.{tag}.self_s", self_s[f"graphs.is_isomorphic.{tag}"], "s")
        put("graphs.io.calls", calls["graphs.io"], "count")
        put("graphs.io.self_s", self_s["graphs.io"], "s")
        # constructions
        for layer in ("constructions.build", "constructions.switch"):
            put(f"{layer}.calls", calls[layer], "count")
            put(f"{layer}.self_s", self_s[layer], "s")
        # skew_rank
        for layer in ("skew_rank.witness_search", "skew_rank.exact_rank"):
            put(f"{layer}.calls", calls[layer], "count")
            put(f"{layer}.self_s", self_s[layer], "s")
        searches = calls["skew_rank.witness_search"]
        put("skew_rank.certified_ratio",
            calls["skew_rank.witness_search.certified"] / searches if searches else 0.0, "ratio")
        # claims and cli
        put("claims.evaluate.calls", calls["claims.evaluate"], "count")
        put("claims.evaluate.self_s", self_s["claims.evaluate"], "s")
        put("cli.calls", calls["cli"], "count")
        put("cli.self_s", self_s["cli"], "s")
        return out


def _zf_detail(tracer, args, kwargs, result):
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    tags = [rule.value] + ([tracer.stratum] if tracer.stratum else [])
    seen = tracer._results.get(id(result))
    if seen is result:
        return {"tags": tags, "memo_hit": True}
    tracer._results[id(result)] = result  # holding it keeps its id unique
    return {"tags": tags, "explored": result.explored}


def _char_poly_detail(tracer, args, kwargs, result):
    n = result.degree
    return {"tags": [next(tag for tag, top in CHAR_POLY_ORDERS if n <= top)]}


def _iso_detail(tracer, args, kwargs, result):
    return {"tags": ["yes" if result[0] else "no"]}


def _witness_detail(tracer, args, kwargs, result):
    return {"tags": ["certified"] if result.certified else []}


_DETAILS = {"forcing.zf": _zf_detail,
            "spectra.char_poly": _char_poly_detail,
            "graphs.is_isomorphic": _iso_detail,
            "skew_rank.witness_search": _witness_detail}
