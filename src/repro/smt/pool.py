"""Cross-state memo of solved formulas, plus keyed solvers for re-linting.

The harness validates a *sequence* of table states (fuzzing batches, churn
replays, single-entry edits).  Hash-consing gives the *same term object*
for every goal formula an edit left unchanged, so a :class:`SolverPool`
memoises each solved formula's outcome — its canonical witness, or UNSAT —
by identity, and the next state answers those formulas without any SAT
work.  The fuzzer keeps its sampled per-table constraint models in the
same pool (:attr:`SolverPool.memo`), so a second campaign skips the solve.

Packet generation does *not* keep solvers across states: each table state
gets one fresh solver per parser profile.  A long-lived solver accumulates
every earlier state's encoding, and CDCL re-assigns all of it on every
check, so it saves conflicts but not propagations.  On the benchmark's
``symbolic_churn`` (ToR, 80 entries, seed 1) the cold base state takes
130,461 propagations; with solvers kept across states the four solved
edits took 171,304 / 211,984 / 274,287 / 286,526 — every edit dearer than
validating cold, and rising — and with one solver per state they take
102,770 / 97,604 / 97,107 / 105,870.  Witnesses are canonical (pure
functions of the formula), so which solver answers never reaches the
packets; that is also what makes the memo sound.

:meth:`SolverPool.solver` still hands out long-lived keyed solvers with
assert-once constraints, for :mod:`repro.analysis`, which re-lints the same
program's formulas: per-check conditions flow in through
``Solver.check(assumptions)``, whose root gate literals act as activation
literals.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.smt import terms as T
from repro.smt.solver import Solver

PoolKey = Tuple[str, ...]

# Sentinel distinguishing "never solved" from "solved, unsatisfiable".
MISS = object()


class SolverPool:
    """Solved-formula memo, side memo, and keyed long-lived solvers."""

    def __init__(self) -> None:
        self._solvers: Dict[PoolKey, Solver] = {}
        # Terms already permanently asserted per solver.  Identity-keyed:
        # hash-consing makes "same structure" mean "same object", so an
        # unchanged constraint group re-offered for a new table state is
        # recognised without a structural walk.
        self._asserted: Dict[PoolKey, Set[T.Term]] = {}
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
        # behaviour independent of pool warmth: a warm solver might
        # legitimately return *different* models, and anything downstream
        # of those choices (request streams) must not depend on who warmed
        # the pool first.
        self.memo: Dict[Tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def solver(
        self,
        key: PoolKey,
        constraints: Sequence[T.Term] = (),
        simplify_terms: bool = True,
    ) -> Solver:
        """The pooled solver for ``key``, with ``constraints`` asserted once.

        The first request for a key builds the solver; later requests — the
        next fuzzing batch, the next table state — return the warm instance
        and assert only constraint terms it has not seen before.
        """
        solver = self._solvers.get(key)
        if solver is None:
            solver = Solver(simplify_terms=simplify_terms)
            self._solvers[key] = solver
            self._asserted[key] = set()
            self.misses += 1
        else:
            self.hits += 1
        asserted = self._asserted[key]
        for constraint in constraints:
            if constraint not in asserted:
                asserted.add(constraint)
                solver.add(constraint)
        return solver

    # ------------------------------------------------------------------
    # Solved-formula memo
    # ------------------------------------------------------------------
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

    def __len__(self) -> int:
        return len(self._solvers)

    def __contains__(self, key: PoolKey) -> bool:
        return key in self._solvers

    def clear(self) -> None:
        self._solvers.clear()
        self._asserted.clear()
        self._formula_results.clear()
        self.memo.clear()

    @property
    def stats(self) -> Dict[str, int]:
        """Aggregate SAT effort across every pooled solver."""
        out = {"solvers": len(self._solvers), "hits": self.hits, "misses": self.misses,
               "conflicts": 0, "decisions": 0, "propagations": 0,
               "sat_vars": 0, "cnf_clauses": 0, "gates_shared": 0}
        for solver in self._solvers.values():
            s = solver.stats
            out["conflicts"] += s["conflicts"]
            out["decisions"] += s["decisions"]
            out["propagations"] += s["propagations"]
            out["sat_vars"] += s["sat_vars"]
            out["cnf_clauses"] += s["cnf_clauses"]
            out["gates_shared"] += s["gates_shared"]
        return out
