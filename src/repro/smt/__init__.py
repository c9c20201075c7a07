"""repro.smt — a from-scratch SMT solver for quantifier-free bitvectors.

This package replaces Z3 in the SwitchV reproduction.  p4-symbolic (§5 of the
paper) only requires the decidable theory of fixed-width bitvectors with
equality, so we implement exactly that — one pipeline, terms → simplify →
bit-blast → SAT, with no alternative encoder or kernel to select:

* :mod:`repro.smt.terms` — an immutable, hash-consed term language (booleans
  and bitvectors) together with a concrete evaluator used for model
  validation and property tests.
* :mod:`repro.smt.simplify` — constant folding and local rewriting.
* :mod:`repro.smt.bitblast` — the CNF encoder, ``StructuralBitBlaster``:
  constant folding at the literal layer, gate-level structural hashing,
  polarity-aware Plaisted–Greenbaum clause emission.
* :mod:`repro.smt.sat` — the CDCL SAT kernel (two-watched literals with
  blocking literals, dedicated binary-clause implication lists, VSIDS,
  first-UIP learning with on-the-fly minimization, LBD-based clause
  retention, Luby restarts) supporting solving under assumptions, which
  p4-symbolic uses to pose many coverage queries against a single
  bit-blasted program encoding.  An optional proof log makes its UNSAT
  answers checkable by an independent forward-RUP checker.
* :mod:`repro.smt.solver` — the user-facing ``Solver`` with model
  extraction.
* :mod:`repro.smt.compile` — postorder bytecode compilation of term DAGs for
  fast repeated concrete evaluation (subsumption, model checks, lint
  prefilters).
* :mod:`repro.smt.minmodel` — lexicographically minimal (canonical) model
  extraction, shared by witness minimization and fuzzer model sampling.
* :mod:`repro.smt.pool` — the cross-state memo of solved formulas'
  canonical witnesses (and of the fuzzer's sampled models) that the
  harness keeps across table states.  Solvers themselves never outlive
  the table state, or the analysis run, they were built for.
"""

import sys as _sys

# Terms over large table states nest deeply (one guarded ite per entry, so a
# 1300-entry table produces ~1300-deep chains); the recursive bit-blaster and
# evaluator need more stack than CPython's default 1000 frames.
_sys.setrecursionlimit(max(_sys.getrecursionlimit(), 200_000))

from repro.smt.terms import (
    BV,
    BoolSort,
    BVSort,
    FALSE,
    TRUE,
    Term,
    bool_var,
    bv_const,
    bv_var,
)
from repro.smt.compile import CompiledTerm, compile_term, evaluate_compiled
from repro.smt.pool import SolverPool
from repro.smt.solver import Model, Result, Solver

__all__ = [
    "BV",
    "BVSort",
    "BoolSort",
    "CompiledTerm",
    "FALSE",
    "Model",
    "Result",
    "Solver",
    "SolverPool",
    "TRUE",
    "Term",
    "bool_var",
    "bv_const",
    "bv_var",
    "compile_term",
    "evaluate_compiled",
]
