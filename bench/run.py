"""zfforge benchmark: the command that runs one workload.

    python3 bench/run.py --workload {catalog,random_zf,pair_audit} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it benchmarks the package under ``src/``.
Every pass is a fresh interpreter (``bench/one_pass.py``), so no solver memo
or cached fixture survives from one pass to the next.  Times are reference
seconds (``bench/refclock.py``): raw seconds scaled by the speed of a fixed
kernel timed around them, which takes out the drift of a shared machine.
Passes repeat while another still fits in ``--seconds`` (at least one runs);
each metric is the median over the passes.  ``setup_s`` is the median of the
passes' set-ups and of ``SETUP_RUNS`` extra set-up-only interpreters.

``--trace 0`` reports the end-to-end metrics, with no tracing installed.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, the per-claim times of the untraced ones,
``trace.overhead_s`` (the difference of their median wall times), the raw
median ``raw.wall_s`` and the kernel's time ``ref.kernel_ms``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` needs every
item's output check to pass, identical outputs in every pass (traced or not),
identical ``forcing.closure_evals`` in every traced pass, and, when traced,
nonzero calls in every layer the workload is meant to exercise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing  # layer tables only; importing it loads no zfforge code

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 7
PASS_TIMEOUT_S = 170  # a run must end within 180 s
BUILD_DIR = ".bench_build"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("ZFFORGE_BUDGET", "PYTHONPATH", "PYTHONSTARTUP",
                        "PYTHONDONTWRITEBYTECODE")}
    env.update(PYTHONPATH="src", PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.abspath(os.path.join(BUILD_DIR, "pycache")))
    return env


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "one_pass.py"),
                           workload, str(seed), mode],
                          capture_output=True, text=True, env=child_env(), timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.monotonic()
    modes = ("plain", "traced") if trace else ("plain",)
    runs = {mode: [] for mode in modes}
    longest = 0.0
    while True:
        for mode in modes:
            t0 = time.monotonic()
            runs[mode].append(run_pass(workload, seed, mode, PASS_TIMEOUT_S))
            longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - began
        if elapsed + len(modes) * longest > seconds:
            break

    plain, traced = runs["plain"], runs.get("traced", [])
    with open(os.path.join(BUILD_DIR, f"passes-{workload}-{seed}-{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(runs, handle)
    digests = {p["outputs_sha256"] for p in plain + traced}
    problems = [f"{p['failed']} failed items" for p in plain + traced if p["failed"]]
    if len(digests) != 1:
        problems.append(f"outputs differ between passes: {sorted(digests)}")
    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)

    if not trace:
        setups = [p["setup_s"] for p in plain]
        setups += [run_pass(workload, seed, "setup", 60)["setup_s"] for _ in range(SETUP_RUNS)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (median_of(plain, "wall_s"), "s"),
            "max_item_s": (median_of(plain, "max_item_s"), "s"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (median_of(plain, "peak_rss_mb"), "MB"),
        }
    else:
        evals = {p["layers"]["forcing.closure_evals"]["value"] for p in traced}
        if len(evals) != 1:
            problems.append(f"forcing.closure_evals differs between passes: {sorted(evals)}")
        for p in traced:
            if p["unexercised"]:
                problems.append(f"layers with no calls: {p['unexercised']}")
        metrics = {name: (statistics.median(p["layers"][name]["value"] for p in traced), m["unit"])
                   for name, m in traced[0]["layers"].items()}
        for claim_id in tracing.SLOW_CLAIMS:
            metrics[f"claims.{claim_id}.s"] = (
                statistics.median(p["item_s"].get(claim_id, 0.0) for p in plain), "s")
        metrics["trace.overhead_s"] = (median_of(traced, "wall_s") - median_of(plain, "wall_s"),
                                       "s")
        metrics["raw.wall_s"] = (median_of(plain, "raw_wall_s"), "s")
        metrics["ref.kernel_ms"] = (median_of(plain + traced, "kernel_ms"), "ms")

    for problem in problems:
        print(f"{workload} seed {seed}: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "passes": len(plain)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["catalog", "random_zf", "pair_audit"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "zfforge", "__init__.py")):
        print("error: run from the repository root; src/zfforge is missing", file=sys.stderr)
        return 2
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Compile the package's bytecode once, untimed, so every timed set-up
    # imports from the same warm cache.
    try:
        run_pass(args.workload, args.seed, "setup", 120)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = result.pop("passes")
    print(f"{args.workload} seed {args.seed}: {passes} pass(es)", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
