"""User-facing SMT solver for quantifier-free bitvector formulas.

The :class:`Solver` mirrors the slice of the Z3 Python API that p4-symbolic
needs: assert boolean terms, check satisfiability (optionally under
assumptions), and extract models.  Internally the formula is bit-blasted
once; each :meth:`check` call with assumptions reuses the encoding and the
SAT solver's learned clauses, which is what makes iterating over hundreds of
per-entry coverage goals tractable.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.smt import terms as T
from repro.smt.bitblast import POS, StructuralBitBlaster
from repro.smt.compile import evaluate_compiled
from repro.smt.sat import SatSolver
from repro.smt.simplify import simplify


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"


class Model(Mapping[str, int]):
    """A satisfying assignment: variable name -> integer value.

    Bool variables map to 0/1.  Variables never mentioned in the formula are
    absent; evaluation (:mod:`repro.smt.compile`) treats missing names as 0.
    """

    def __init__(self, values: Dict[str, int]) -> None:
        self._values = dict(values)

    def __getitem__(self, name: str) -> int:
        return self._values[name]

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def evaluate(self, term: T.Term) -> int:
        """Evaluate an arbitrary term under this model.

        Uses the compiled evaluator (:mod:`repro.smt.compile`); repeated
        evaluation of the same term across models pays compilation once.
        """
        return evaluate_compiled(term, self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Model({inner})"


class Solver:
    """An incremental QF_BV solver.

    Usage::

        s = Solver()
        x = bv_var("x", 8)
        s.add(x.ult(10))
        assert s.check() is Result.SAT
        assert s.model()["x"] < 10
    """

    def __init__(self, simplify_terms: bool = True) -> None:
        self._sat = SatSolver()
        self._blaster = StructuralBitBlaster(self._sat)
        self._simplify = simplify_terms
        self._assertions: List[T.Term] = []
        self._last_result: Optional[Result] = None
        self._var_sorts: Dict[str, T.Sort] = {}
        self._seen_assumptions: Set[T.Term] = set()
        # After an UNSAT check: the first assumption term that the assertions
        # and the assumptions listed before it refute (None: the assertions
        # alone are UNSAT).
        self.failed_assumption: Optional[T.Term] = None

    @property
    def proof(self):
        """The kernel's proof sink (:attr:`SatSolver.proof`); test-facing."""
        return self._sat.proof

    @proof.setter
    def proof(self, sink) -> None:
        self._sat.proof = sink

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------
    def add(self, *constraints: T.Term) -> None:
        """Assert one or more boolean terms."""
        for c in constraints:
            if not c.is_bool:
                raise TypeError(f"assertions must be boolean, got {c.sort!r}")
            if self._simplify:
                c = simplify(c)
            self._assertions.append(c)
            self._var_sorts.update(T.free_variables(c))
            self._blaster.assert_term(c)
            self._last_result = None

    @property
    def assertions(self) -> List[T.Term]:
        return list(self._assertions)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def check(self, *assumptions: T.Term, prefer: Optional[Mapping[str, int]] = None) -> Result:
        """Check satisfiability of the assertions, under optional assumptions.

        Assumption terms are encoded (and cached) but not permanently
        asserted, so successive checks with different assumptions reuse the
        same encoding.  After UNSAT, :attr:`failed_assumption` names the
        assumption that made it so.  ``prefer`` (name -> value) is tried first
        where the search decides an encoded variable's bits; no verdict moves.
        """
        assumption_lits, terms = [], {}
        for term in assumptions:
            if not term.is_bool:
                raise TypeError(f"assumptions must be boolean, got {term.sort!r}")
            a = simplify(term) if self._simplify else term
            if a is T.FALSE:
                self.failed_assumption = term
                self._last_result = Result.UNSAT
                return self._last_result
            if a is T.TRUE:
                continue
            if a not in self._seen_assumptions:  # sorts are recorded once
                self._seen_assumptions.add(a)
                self._var_sorts.update(T.free_variables(a))
            lit = self._blaster.encode_bool(a, POS)
            assumption_lits.append(lit)
            terms.setdefault(lit, term)
        phases = [
            lit if (value >> i) & 1 else lit ^ 1
            for name, value in (prefer or {}).items()
            for i, lit in enumerate(self._blaster.variable_bits(name) or ())
        ]
        sat = self._sat.solve(assumption_lits, phases)
        failed = self._sat.failed_assumptions
        self.failed_assumption = terms[failed[0]] if failed else None
        self._last_result = Result.SAT if sat else Result.UNSAT
        return self._last_result

    def model(self, names: Optional[Iterable[str]] = None) -> Model:
        """The model from the last successful :meth:`check`.

        ``names`` restricts extraction to those variables (unknown names are
        skipped, matching the "absent from the formula ⇒ absent from the
        model" contract).  A solver accumulates the variables of every
        query it has answered (one profile solver serves hundreds of goals),
        so extracting only the variables a caller actually reads keeps
        model cost proportional to the query, not to the solver's lifetime.
        """
        if self._last_result is not Result.SAT:
            raise RuntimeError("model() requires a preceding SAT check()")
        values: Dict[str, int] = {}
        wanted = (
            self._var_sorts
            if names is None
            else [n for n in names if n in self._var_sorts]
        )
        for name in wanted:
            bits = self._blaster.variable_bits(name)
            if bits is None:
                # Variable was simplified away entirely; any value works.
                values[name] = 0
                continue
            value = 0
            for i, lit in enumerate(bits):
                bit = self._sat.model_value(lit >> 1)
                if lit & 1:
                    bit = not bit
                if bit:
                    value |= 1 << i
            values[name] = value
        return Model(values)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        return {
            "conflicts": self._sat.conflicts,
            "decisions": self._sat.decisions,
            "propagations": self._sat.propagations,
            "restarts": self._sat.restarts,
            "sat_vars": self._sat.num_vars,
            "cnf_clauses": self._sat.clauses_received,
            "gates_shared": self._blaster.gates_shared,
            "db_reductions": self._sat.db_reductions,
            "minimized_literals": self._sat.minimized_literals,
        }
