"""Spawns repetitions, checks them against each other, aggregates.

Process hygiene: every repetition is a fresh interpreter with a pinned
non-zero ``PYTHONHASHSEED``, spawned only after the previous one has been
reaped — never two children at once, so the load always comes from one
process with one thread.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from bench import REPO_ROOT
from bench import catalog

RESULTS_DIR = REPO_ROOT / "bench" / "results"
HASH_SEED = "1"
CHILD_TIMEOUT_S = 170
MAX_REPETITIONS = 12


class BenchError(RuntimeError):
    """A repetition failed to run, or repetitions disagree with each other."""


def spawn_child(workload: str, seed: int, tiny: bool, traced: bool, repetition: int,
                trace_dir: Path, setup_only: bool = False) -> dict:
    command = [
        sys.executable, "-m", "bench", "child",
        "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--repetition", str(repetition), "--trace-dir", str(trace_dir),
    ]
    if tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    # subprocess.run waits for the child and kills it on timeout, so no
    # process outlives this call.
    done = subprocess.run(
        command, cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise BenchError(
            f"{workload} repetition {repetition} exited {done.returncode}:\n"
            + done.stderr[-4000:]
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact_repeat_values(child: dict) -> Dict[str, object]:
    """What must be identical across repetitions of one (workload, seed)."""
    values: Dict[str, object] = dict(child["digests"])
    for name, value in child["metrics"].items():
        if name.startswith(catalog.EXACT_REPEAT_PREFIXES) and not name.endswith("_s"):
            values[name] = value
    values["attempted"] = child["attempted"]
    values["failed"] = child["failed"]
    return values


def check_exact_repeat(children: List[dict]) -> None:
    first = exact_repeat_values(children[0])
    for child in children[1:]:
        other = exact_repeat_values(child)
        shared = first.keys() & other.keys()
        diff = sorted(k for k in shared if first[k] != other[k])
        if diff:
            raise BenchError(
                f"{child['workload']}: exact-repeat values differ between repetitions "
                f"{children[0]['repetition']} and {child['repetition']}: "
                + ", ".join(f"{k} {first[k]!r} != {other[k]!r}" for k in diff)
            )


def check_trace(untraced: dict, traced: dict) -> None:
    """The traced pass is only evidence if it did the untraced pass's work."""
    name = traced["workload"]
    if traced["digests"] != untraced["digests"]:
        raise BenchError(f"{name}: traced digests differ from the untraced run, "
                         "trace rejected")
    if traced["attempted"] != untraced["attempted"]:
        raise BenchError(f"{name}: traced run attempted {traced['attempted']} "
                         f"operations, untraced {untraced['attempted']}")
    if not traced["span_self_times_fit"]:
        raise BenchError(f"{name}: child spans exceed their parent's duration")


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool,
                 repetitions: Optional[int] = None) -> List[dict]:
    """Fresh-interpreter repetitions until ``seconds`` of window time have
    been measured (and at least MIN_REPETITIONS), or exactly
    ``repetitions`` when given."""
    children: List[dict] = []
    measured = 0.0
    while True:
        child = spawn_child(workload, seed, tiny, False, len(children), RESULTS_DIR)
        children.append(child)
        measured += child["metrics"]["verdict_s"]
        if repetitions is not None:
            if len(children) >= repetitions:
                break
        elif len(children) >= MAX_REPETITIONS or (
            len(children) >= catalog.MIN_REPETITIONS and measured >= seconds
        ):
            break
    check_exact_repeat(children)
    return children


def extra_setup_samples(children: List[dict], tiny: bool) -> List[float]:
    """setup_s from children that exit when set-up is done, topping the
    run's samples up to SETUP_SAMPLES.

    Only where set-up is short (import-dominated, so relatively noisy, and
    cheap to repeat); a multi-second set-up is steady enough at one sample
    per repetition and too dear to repeat within the driver's time cap."""
    first = children[0]
    if statistics.median(c["metrics"]["setup_s"] for c in children) >= catalog.SHORT_SETUP_S:
        return []
    return [
        spawn_child(first["workload"], first["seed"], tiny, False, index, RESULTS_DIR,
                    setup_only=True)["metrics"]["setup_s"]
        for index in range(len(children), catalog.SETUP_SAMPLES)
    ]


def measure_untraced(workload: str, seed: int, seconds: float, tiny: bool,
                     repetitions: Optional[int] = None):
    """The untraced pass of one workload: (children, raw values per
    end-to-end metric).  A fixed ``repetitions`` count means exactly that
    many processes, so no extra set-up samples either."""
    children = run_untraced(workload, seed, seconds, tiny, repetitions)
    extra_setup_s = extra_setup_samples(children, tiny) if repetitions is None else []
    names = [m.name for m in catalog.END_TO_END]
    names += [m.name for m in catalog.PHASE if workload in m.workloads]
    values = {name: [child["metrics"][name] for child in children] for name in names}
    values["setup_s"] += extra_setup_s
    return children, values


def run_traced(workload: str, seed: int, tiny: bool, untraced: Optional[dict] = None,
               trace_dir: Path = RESULTS_DIR):
    """One traced repetition, checked against an untraced one of the same
    inputs (spawned here unless the caller already has one).

    Returns (untraced child, traced child); the traced child's metrics gain
    ``trace.overhead_share``."""
    if untraced is None:
        untraced = spawn_child(workload, seed, tiny, False, 0, trace_dir)
    traced = spawn_child(workload, seed, tiny, True, 0, trace_dir)
    check_trace(untraced, traced)
    traced["metrics"]["trace.overhead_share"] = (
        traced["metrics"]["verdict_s"] / untraced["metrics"]["verdict_s"] - 1.0
    )
    return untraced, traced


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def per_layer_values(untraced: dict, traced: dict) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload does not define it.

    Phase metrics are end-to-end quantities, so they come from the
    untraced repetition; everything else from the traced one."""
    values = {}
    for metric in catalog.PER_LAYER:
        source = untraced if metric in catalog.PHASE else traced
        values[metric.name] = float(source["metrics"].get(metric.name, 0.0))
    return values


def driver_result(children: List[dict], metrics: Dict[str, float]) -> dict:
    """The one-line JSON object the driver reads."""
    failed = sum(child["failed"] for child in children)
    return {
        "correct": failed == 0,
        "attempted": sum(child["attempted"] for child in children),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": catalog.METRIC_BY_NAME[name].unit}
            for name, value in metrics.items()
        },
    }


def summarise(values: List[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def host_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "pythonhashseed": HASH_SEED,
    }


def run_suite(workloads: List[str], seed: int, seconds: float, tiny: bool,
              repetitions: Optional[int] = None, traced: bool = True,
              log=print, trace_dir: Path = RESULTS_DIR) -> dict:
    """Every workload: untraced repetitions, then (optionally) the traced
    pass.  Returns the schema-versioned result document."""
    document = {
        "schema": catalog.SCHEMA,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": host_info(),
        "seed": seed,
        "run_seconds": seconds,
        "tiny": tiny,
        "loop": catalog.LOOP,
        "workloads": {},
    }
    for workload in workloads:
        spec = catalog.WORKLOAD_BY_NAME[workload]
        log(f"== {workload}: {spec.why}")
        children, values = measure_untraced(workload, seed, seconds, tiny, repetitions)
        failed = sum(c["failed"] for c in children)
        attempted = sum(c["attempted"] for c in children)
        entry = {
            "why": spec.why,
            "sizes": children[0]["sizes"],
            "end_to_end": {},
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "failures": sorted({f for c in children for f in c["failures"]}),
            "detail": children[0]["detail"],
            "repetitions": [
                {"repetition": c["repetition"], "metrics": c["metrics"],
                 "digests": c["digests"], "detail": c["detail"]}
                for c in children
            ],
        }
        for name, raw in values.items():
            metric = catalog.METRIC_BY_NAME[name]
            entry["end_to_end"][name] = {
                "unit": metric.unit, "better": metric.better, "bound": metric.bound,
                **summarise(raw),
            }
            log(f"  {name:22s} {statistics.median(raw):12.4f} {metric.unit:5s} "
                f"(min {min(raw):.4f}, max {max(raw):.4f}, n={len(raw)})")
        log(f"  {'failed_share':22s} {entry['failed_share']:12.4f} ratio "
            f"({failed} of {attempted})")
        if traced:
            # Against the median repetition, so one disturbed run does not
            # masquerade as tracing overhead.
            reference = sorted(children, key=lambda c: c["metrics"]["verdict_s"])[
                len(children) // 2
            ]
            _ref, traced_child = run_traced(
                workload, seed, tiny, untraced=reference, trace_dir=trace_dir
            )
            layer = per_layer_values(reference, traced_child)
            entry["per_layer"] = {
                m.name: {"unit": m.unit, "layer": m.layer, "moves": m.moves,
                         "value": layer[m.name]}
                for m in catalog.LAYER
                if workload in m.workloads
            }
            entry["traced_detail"] = traced_child["detail"]
            entry["traced_digests"] = traced_child["digests"]
            entry["failed"] += traced_child["failed"]
            entry["failures"] = sorted(set(entry["failures"]) | set(traced_child["failures"]))
            for m in catalog.LAYER:
                if workload in m.workloads:
                    log(f"  {m.name:32s} {layer[m.name]:14.4f} {m.unit}")
        entry["correct"] = entry["failed"] == 0
        document["workloads"][workload] = entry
    return document


def write_document(document: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
