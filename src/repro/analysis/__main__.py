"""``python -m repro.analysis`` — lint P4 models from the command line.

Each argument is either the name of a shipped program (``toy``, ``tor``,
``wan``, ``cerberus``) or a path to a ``.p4`` source file in the project
dialect (e.g. an edited copy of ``src/repro/p4/programs/sai_tor.p4``).  With
no arguments, all shipped programs are linted — that is what the CI
``lint-model`` job runs.

``--contract`` switches to cross-program mode: the named programs are
compared pairwise as role instantiations of one controller API
(``python -m repro.analysis --contract tor wan``).  ``--witnesses``
attaches minimal concrete evidence to findings, ``--format json`` emits
the machine-facing report CI archives, and ``--only``/``--skip``/
``--list-passes`` select individual passes by name.

Exit status is non-zero when any linted program has a finding at or above
``--fail-on`` (default: error), so the command slots directly into CI and
pre-commit hooks.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.p4.ast import P4Program
from repro.p4.parser import P4ParseError, parse_program
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)
from repro.switchv.report import diagnostics_to_json, render_diagnostics
from repro.analysis import analyze_contract, analyze_program, list_passes

SHIPPED: Dict[str, Callable[[], P4Program]] = {
    "toy": build_toy_program,
    "tor": build_tor_program,
    "wan": build_wan_program,
    "cerberus": build_cerberus_program,
}


def _load(spec: str) -> P4Program:
    if spec in SHIPPED:
        return SHIPPED[spec]()
    with open(spec, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def _split_names(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(name for name in value.split(",") if name)
    return out


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="statically lint P4 models before they reach a campaign",
    )
    ap.add_argument(
        "specs",
        nargs="*",
        default=list(SHIPPED),
        help="shipped program names (toy/tor/wan/cerberus, loaded from "
        "src/repro/p4/programs/*.p4) or .p4 paths "
        "(default: all shipped programs)",
    )
    ap.add_argument(
        "--contract",
        action="store_true",
        help="cross-program mode: compare the named programs pairwise as "
        "role instantiations of one controller API (needs >= 2 programs)",
    )
    ap.add_argument(
        "--witnesses",
        action="store_true",
        help="attach minimal concrete evidence (packets, entries, unsat "
        "cores) to semantic findings",
    )
    ap.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is what CI archives; deterministic)",
    )
    ap.add_argument(
        "--only",
        action="append",
        metavar="PASS[,PASS...]",
        help="run only these passes (repeatable or comma-separated)",
    )
    ap.add_argument(
        "--skip",
        action="append",
        metavar="PASS[,PASS...]",
        help="run all passes except these (repeatable or comma-separated)",
    )
    ap.add_argument(
        "--list-passes",
        action="store_true",
        help="list every selectable pass name and exit",
    )
    ap.add_argument(
        "--no-semantic",
        action="store_true",
        help="skip the SMT-backed passes (structural lints only)",
    )
    ap.add_argument(
        "--fail-on",
        choices=("error", "warning"),
        default="error",
        help="exit non-zero when a finding at or above this severity "
        "exists (default: error)",
    )
    args = ap.parse_args(argv)

    if args.list_passes:
        for name, layer in list_passes():
            print(f"{name:24s} [{layer}]")
        return 0

    only = _split_names(args.only)
    skip = _split_names(args.skip)

    programs: List[P4Program] = []
    for spec in args.specs:
        try:
            programs.append(_load(spec))
        except FileNotFoundError:
            print(f"error: {spec}: no such shipped program or file")
            return 2
        except P4ParseError as exc:
            print(f"error: {spec}: does not parse: {exc}")
            return 1

    reports = []
    if args.contract:
        if len(programs) < 2:
            print("error: --contract needs at least two programs")
            return 2
        from repro.analysis import CONTRACT_PASS_NAMES

        selected = [n for n in CONTRACT_PASS_NAMES if only is None or n in only]
        if skip:
            selected = [n for n in selected if n not in skip]
        reports.append(analyze_contract(programs, witnesses=True, selected=selected))
    else:
        for program in programs:
            try:
                reports.append(
                    analyze_program(
                        program,
                        semantic=not args.no_semantic,
                        witnesses=args.witnesses,
                        only=only,
                        skip=skip,
                    )
                )
            except ValueError as exc:  # unknown pass name
                print(f"error: {exc}")
                return 2

    failed = False
    for report in reports:
        if report.has_errors or (args.fail_on == "warning" and report.warnings):
            failed = True

    if args.format == "json":
        print(
            json.dumps(
                [diagnostics_to_json(r) for r in reports],
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for report in reports:
            print(render_diagnostics(report))
            print(
                f"  timing: structural {report.structural_seconds * 1e3:.1f}ms, "
                f"semantic {report.semantic_seconds * 1e3:.1f}ms"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
