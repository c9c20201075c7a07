"""Cross-state memo of solved formulas and of derived artifacts.

The harness validates a *sequence* of table states (fuzzing batches, churn
replays, single-entry edits).  Hash-consing gives the *same term object*
for every goal formula an edit left unchanged, so a :class:`SolverPool`
memoises each solved formula's outcome — its canonical witness, or UNSAT —
by identity, and the next state answers those formulas without any SAT
work.  The fuzzer keeps its sampled per-table constraint models in the
same pool (:attr:`SolverPool.memo`), so a second campaign skips the solve.

The pool keeps answers, never solvers: each table state gets one fresh
solver per parser profile.  A long-lived solver accumulates every earlier
state's encoding, and CDCL re-assigns all of it on every check, so it
saves conflicts but not propagations.  On the benchmark's
``symbolic_churn`` (ToR, 80 entries, seed 1) the cold base state takes
130,461 propagations; with solvers kept across states the four solved
edits took 171,304 / 211,984 / 274,287 / 286,526 — every edit dearer than
validating cold, and rising — and with one solver per state they take
102,770 / 97,604 / 97,107 / 105,870.  Witnesses are canonical (pure
functions of the formula), so which solver answers never reaches the
packets; that is also what makes the memo sound.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.smt import terms as T

# Sentinel distinguishing "never solved" from "solved, unsatisfiable".
MISS = object()


class SolverPool:
    """Solved-formula memo plus a side memo for derived artifacts."""

    def __init__(self) -> None:
        # Solved-formula memo: (program, formula-term) -> canonical witness
        # (or None for UNSAT).  A formula's verdict and its canonical
        # witness are pure functions of the formula itself — never of
        # solver history — so across table states every goal whose solved
        # formula is unchanged (the same hash-consed term) is answered here
        # without touching a solver.  Only the formulas a table edit
        # actually changed reach a solver.
        self._formula_results: Dict[Tuple[str, T.Term], Optional[Dict[str, int]]] = {}
        # General-purpose side memo for derived artifacts whose first
        # (cold) computation is deterministic — e.g. the fuzzer's sampled
        # constraint models.  Reusing the cold result verbatim keeps
        # behaviour independent of memo warmth: anything downstream of
        # those choices (request streams) must not depend on who filled
        # the memo first.
        self.memo: Dict[Tuple, object] = {}

    def lookup_formula(self, key: Tuple[str, T.Term]):
        """The memoised outcome for a solved formula.

        Returns the canonical witness dict, ``None`` for a memoised UNSAT,
        or the :data:`MISS` sentinel when the formula was never solved.
        """
        return self._formula_results.get(key, MISS)

    def store_formula(
        self, key: Tuple[str, T.Term], witness: Optional[Dict[str, int]]
    ) -> None:
        self._formula_results[key] = witness
