"""One cold pass of a workload, in the interpreter that runs this file.

    python3 bench/one_pass.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build inputs only), ``plain`` (untraced pass)
or ``traced``.  Prints one JSON object.  ``bench/run.py`` starts a fresh
interpreter for every pass, because ``forcing``'s solver memo and the
``lru_cache`` fixtures in ``claims`` persist within a process.  Times are in
reference seconds (see ``refclock``); the ``raw_`` fields are plain seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

from refclock import REF_SECONDS, RefClock

HERE = os.path.dirname(os.path.abspath(__file__))


def main(workload: str, seed: int, mode: str) -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    clock = RefClock()

    clock.sample()
    start = time.perf_counter()
    import workloads  # imports zfforge
    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    items = workloads.WORKLOADS[workload](seed, golden)
    end = time.perf_counter()
    clock.sample()
    setup = {"setup_s": clock.scaled(start, end), "raw_setup_s": end - start}
    if mode == "setup":
        return setup

    timed = []  # (start, end, outcomes)
    clock.start()
    for item in items:
        if tracer is not None:
            tracer.stratum = item.stratum
        start = time.perf_counter()
        try:
            output = item.run()
        except Exception:
            traceback.print_exc()
            output = None
        end = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        try:
            checked = (item.check(output) if output is not None else
                       [workloads.Outcome(f"{item.name}#{i}", None, False, None)
                        for i in range(item.count)])
        except Exception:
            traceback.print_exc()
            checked = [workloads.Outcome(item.name, None, False, None)]
        if tracer is not None:
            tracer.enabled = True
        timed.append((start, end, checked))
    clock.stop()

    item_s = {}
    for start, end, checked in timed:
        for o in checked:
            item_s[o.name] = clock.scaled(*(o.interval or (start, end)))
            if not o.ok:
                print(f"check failed: {workload} seed {seed}: {o.name}", file=sys.stderr)
    outcomes = [o for _s, _e, checked in timed for o in checked]
    records = json.dumps([[o.name, o.record] for o in outcomes], sort_keys=True)
    result = dict(
        setup,
        wall_s=sum(clock.scaled(start, end) for start, end, _c in timed),
        raw_wall_s=sum(end - start for start, end, _c in timed),
        max_item_s=max(item_s.values()),
        kernel_ms=1e3 * clock.kernel_s(),
        attempted=len(outcomes),
        failed=sum(not o.ok for o in outcomes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        outputs_sha256=hashlib.sha256(records.encode()).hexdigest(),
        item_s=item_s,
    )
    if tracer is not None:
        os.makedirs(".bench_build", exist_ok=True)
        tracer.dump(os.path.join(".bench_build", f"spans-{workload}-{seed}.json"))
        result["layers"] = tracer.metrics(REF_SECONDS / clock.kernel_s(), clock.paused)
        result["unexercised"] = [layer for layer in tracing.EXERCISED[workload]
                                 if not any(s[0] == layer for s in tracer.spans)]
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
