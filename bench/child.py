"""One repetition of one workload, in this (fresh) interpreter.

The runner spawns ``python -m bench child ...`` once per repetition: the
term, simplify and compile memos in ``repro.smt`` are process-wide, so a
second "cold" run in the same interpreter is a warm one.  Everything the
repetition measured goes to stdout as one JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

CHILD_STARTED = time.perf_counter()


def run_child(workload: str, seed: int, tiny: bool, traced: bool, repetition: int,
              trace_dir: str, setup_only: bool = False) -> dict:
    # Imported here so that setup_s covers loading the program under test.
    from bench.catalog import sizes_for
    from bench.trace import NullTracer, Tracer
    from bench.workloads import REGISTRY

    tracer = Tracer() if traced else NullTracer()
    sizes = sizes_for(workload, tiny)
    instance = REGISTRY[workload](sizes, seed, tracer)

    with tracer.span("bench.setup"):
        instance.setup()
    setup_s = time.perf_counter() - CHILD_STARTED
    if setup_only:
        return {"workload": workload, "seed": seed, "metrics": {"setup_s": setup_s}}

    cpu_start = time.process_time()
    window_start = time.perf_counter()
    with tracer.span("bench.window"):
        instance.run()
    verdict_s = time.perf_counter() - window_start
    cpu_s = time.process_time() - cpu_start
    # Linux reports ru_maxrss in KiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with tracer.span("bench.finish"):
        outcome = instance.finish()

    metrics = dict(outcome.metrics)
    metrics.update(
        {
            "verdict_s": verdict_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "proc.cpu_s": cpu_s,
            "proc.cpu_share": cpu_s / verdict_s,
        }
    )
    span_check = None
    if traced:
        summary = tracer.summary()
        for span_name, metric in _SPAN_TOTALS.items():
            metrics[metric] = summary.get(span_name, {}).get("total_s", 0.0)
        metrics["trace.spans"] = len(tracer.spans)
        span_check = tracer.self_times_fit()
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(f"{trace_dir}/trace_{workload}.json", workload, repetition)

    return {
        "workload": workload,
        "seed": seed,
        "repetition": repetition,
        "traced": traced,
        "sizes": sizes,
        "metrics": metrics,
        "digests": outcome.digests,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "detail": outcome.detail,
        "span_self_times_fit": span_check,
    }


# Span name -> the layer metric that is its inclusive time.
_SPAN_TOTALS = {
    "p4.build": "p4.build_s",
    "workloads.entries": "workloads.entries_s",
    "bmv2.decode": "bmv2.decode_s",
    "switch.preload": "switch.preload_s",
    "fuzzer.oracle_resync": "fuzzer.oracle_resync_s",
    "bmv2.index_build": "bmv2.index_build_s",
    "switch.install": "switch.install_s",
    "fuzzer.batching": "fuzzer.batching_s",
    "symbolic.cache_key": "symbolic.cache_key_s",
    "symbolic.walk": "symbolic.walk_s",
    "symbolic.solve": "symbolic.solve_s",
    "smt.simplify": "smt.simplify_s",
    "smt.check": "smt.check_s",
    "bmv2.deparse": "bmv2.deparse_s",
    "bmv2.simulate": "bmv2.simulate_s",
}


def main(args) -> int:
    result = run_child(
        args.workload, args.seed, args.tiny, bool(args.trace), args.repetition,
        args.trace_dir, args.setup_only,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
