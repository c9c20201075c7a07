"""``python3 -m bench {run,compare,aa}`` — see bench/README.md."""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads; with --workload and --trace, "
                         "end with the driver's one-line JSON result")
    run.add_argument("--workload", action="append",
                     help="workload name (repeatable; default: all five)")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--seconds", type=float, default=None,
                     help="window time to measure per workload before stopping")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: untraced repetitions only; 1: traced pass only; "
                     "omitted: both, written as one result document")
    run.add_argument("--repetitions", type=int, default=None,
                     help="exactly this many untraced repetitions")
    run.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    run.add_argument("--out", type=Path, default=None,
                     help="result document path (default bench/results/BENCH_local.json)")

    compare = sub.add_parser("compare", help="diff two result documents")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)

    aa = sub.add_parser("aa", help="two back-to-back sets of the same code must agree")
    aa.add_argument("--seed", type=int, default=None)
    aa.add_argument("--seconds", type=float, default=None)
    aa.add_argument("--tiny", action="store_true")

    child = sub.add_parser("child")  # internal: one repetition
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--repetition", type=int, default=0)
    child.add_argument("--trace-dir", required=True)
    child.add_argument("--tiny", action="store_true")
    child.add_argument("--setup-only", action="store_true")
    return parser


def _cmd_run(args) -> int:
    from bench import catalog, runner

    seed = catalog.DEFAULT_SEED if args.seed is None else args.seed
    seconds = catalog.RUN_SECONDS if args.seconds is None else args.seconds
    names = args.workload or [w.name for w in catalog.WORKLOADS]
    unknown = [n for n in names if n not in catalog.WORKLOAD_BY_NAME]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.trace is None:
        document = runner.run_suite(names, seed, seconds, args.tiny, args.repetitions)
        out = args.out or runner.RESULTS_DIR / "BENCH_local.json"
        runner.write_document(document, out)
        print(f"wrote {out}")
        return 0 if all(w["correct"] for w in document["workloads"].values()) else 1

    # Driver form: one workload, one pass, one JSON object on the last line.
    if len(names) != 1:
        print("--trace needs exactly one --workload", file=sys.stderr)
        return 2
    workload = names[0]
    if args.trace == 0:
        children, values = runner.measure_untraced(
            workload, seed, seconds, args.tiny, args.repetitions
        )
        metrics = {m.name: statistics.median(values[m.name]) for m in catalog.END_TO_END}
    else:
        untraced, traced = runner.run_traced(workload, seed, args.tiny)
        children = [untraced, traced]
        metrics = runner.per_layer_values(untraced, traced)
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {catalog.METRIC_BY_NAME[name].unit}")
    for child in children:
        for failure in child["failures"]:
            print(f"FAILED: {failure}")
    print(json.dumps(runner.driver_result(children, metrics)))
    return 0


def _cmd_compare(args) -> int:
    from bench import compare

    with open(args.a) as fa, open(args.b) as fb:
        rows = compare.compare(json.load(fa), json.load(fb))
    print(compare.render(rows))
    return 1 if any(r.verdict == "regressed" for r in rows) else 0


def _cmd_aa(args) -> int:
    from bench import catalog, compare, runner

    seed = catalog.DEFAULT_SEED if args.seed is None else args.seed
    seconds = catalog.RUN_SECONDS if args.seconds is None else args.seconds
    names = [w.name for w in catalog.WORKLOADS]
    documents = [
        runner.run_suite(names, seed, seconds, args.tiny, traced=False) for _ in range(2)
    ]
    rows = compare.compare(*documents)
    print(compare.render(rows))
    agree = compare.within_bounds(rows)
    print("A/A: every end-to-end metric within its bound" if agree
          else "A/A: DISAGREEMENT beyond the benchmark's own bounds")
    return 0 if agree else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "child":
        from bench import child

        return child.main(args)
    from bench import SRC_DIR

    if not (SRC_DIR / "repro").is_dir():
        print(f"no program to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 3
    return {"run": _cmd_run, "compare": _cmd_compare, "aa": _cmd_aa}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
