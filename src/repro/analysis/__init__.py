"""repro.analysis — static lints for P4 models (the spec's own spec check).

SwitchV treats the P4 model as the switch's formal specification; this
package checks the specification itself, in milliseconds at load time,
before a malformed model can crash — or silently skew — a fuzzing or
symbolic-execution campaign hours in.

* :mod:`repro.analysis.structural` — pure AST walks: dangling references,
  undefined fields, width mismatches, duplicate/colliding ids, key-shape
  problems, malformed restrictions, name/field drift.
* :mod:`repro.analysis.semantic` — SMT-backed proofs on the havoc
  abstraction: unsatisfiable restrictions, dead branches/tables, tables no
  packet can hit, actions no entry can fire, reads of unparsed headers.
* :mod:`repro.analysis.contract` — cross-program role-contract alignment:
  same-named tables/actions across role instantiations must agree on key
  shapes, signatures, @refers_to edges, and entry restrictions.
* :mod:`repro.analysis.witness` — minimal concrete evidence (bit-minimized
  packets/entries, minimal unsat cores) attached to findings.
* :mod:`repro.analysis.diagnostics` — the structured findings all layers
  emit, and the report container.

``analyze_program`` / ``analyze_contract`` are the façades everything
(harness gate, CLI, tests, benchmarks) goes through; ``python -m
repro.analysis`` lints the shipped programs or ``.p4`` files.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.p4.ast import P4Program
from repro.analysis.contract import CONTRACT_PASS_NAMES, analyze_contract
from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.semantic import (
    SEMANTIC_PASS_NAMES,
    run_semantic_passes,
)
from repro.analysis.structural import (
    STRUCTURAL_PASS_NAMES,
    STRUCTURAL_PASSES,
    run_structural_passes,
)


def list_passes() -> List[Tuple[str, str]]:
    """Every selectable pass as (name, layer) — the ``--list-passes`` view."""
    return (
        [(name, "structural") for name in STRUCTURAL_PASS_NAMES]
        + [(name, "semantic") for name in SEMANTIC_PASS_NAMES]
        + [(name, "contract") for name in CONTRACT_PASS_NAMES]
    )


def _resolve_selection(
    only: Optional[Sequence[str]], skip: Optional[Sequence[str]]
) -> List[str]:
    """The single-program pass names to run, honoring --only/--skip."""
    known = tuple(STRUCTURAL_PASS_NAMES) + tuple(SEMANTIC_PASS_NAMES)
    for name in list(only or ()) + list(skip or ()):
        if name not in known and name not in CONTRACT_PASS_NAMES:
            raise ValueError(
                f"unknown pass {name!r}; see --list-passes for the registry"
            )
    selected = [n for n in known if n in only] if only else list(known)
    if skip:
        selected = [n for n in selected if n not in skip]
    return selected


def analyze_program(
    program: P4Program,
    semantic: bool = True,
    witnesses: bool = False,
    only: Optional[Sequence[str]] = None,
    skip: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run the lint passes over ``program``.

    Structural passes always gate the semantic layer: even when
    deselected from the *report*, they re-run silently before any SMT
    encoding — encoding a program with dangling fields or unparseable
    restrictions would crash or, worse, prove properties about a different
    program than the one shipped.  ``witnesses=True`` attaches minimal
    concrete evidence to semantic findings.  Diagnostics are sorted
    deterministically regardless of pass execution order.
    """
    selected = _resolve_selection(only, skip)
    structural_selected = [n for n in STRUCTURAL_PASS_NAMES if n in selected]
    semantic_selected = [n for n in SEMANTIC_PASS_NAMES if n in selected]

    report = AnalysisReport(program_name=program.name)
    start = time.perf_counter()
    report.extend(run_structural_passes(program, structural_selected))
    report.structural_seconds = time.perf_counter() - start
    if semantic and semantic_selected:
        gate_clean = (
            not report.has_errors
            if len(structural_selected) == len(STRUCTURAL_PASS_NAMES)
            else not any(d.is_error for d in run_structural_passes(program))
        )
        if gate_clean:
            start = time.perf_counter()
            diagnostics, summary = run_semantic_passes(
                program, semantic_selected, witnesses=witnesses
            )
            report.extend(diagnostics)
            report.summary.update(summary)
            report.semantic_seconds = time.perf_counter() - start
            report.semantic_ran = True
    report.sort()
    return report


__all__ = [
    "AnalysisReport",
    "CONTRACT_PASS_NAMES",
    "Diagnostic",
    "SEMANTIC_PASS_NAMES",
    "STRUCTURAL_PASSES",
    "STRUCTURAL_PASS_NAMES",
    "Severity",
    "analyze_contract",
    "analyze_program",
    "list_passes",
    "run_semantic_passes",
    "run_structural_passes",
]
