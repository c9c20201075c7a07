"""An independent forward-RUP checker for ``SatSolver.proof`` logs.

A log is a list of ``(tag, literals)`` steps in the order the kernel took
them: ``"a"`` a clause it was offered, ``"l"`` a clause it learned, ``"u"``
the assumption literals of a ``solve()`` it answered UNSAT.  Literals are
the kernel's integers, of which only one fact is used: ``lit ^ 1`` negates.

The checker trusts the ``"a"`` steps and nothing else.  Every ``"l"`` clause
must have the *reverse unit propagation* property — asserting the negation
of each of its literals and propagating units over all earlier clauses
reaches a conflict — which makes it a logical consequence of them; it then
joins the clause set.  Every ``"u"`` step must have the same property for
the clause "not all of these assumptions", so the refuted assumption set
really is inconsistent with the ``"a"`` clauses.  Lemmas the kernel later
deleted are simply kept: more clauses only ever propagate more.  Shares no
code with the kernel or the encoder, on purpose.
"""

from typing import Dict, Iterable, List, Sequence, Set, Tuple


class ProofError(AssertionError):
    """A step of the log does not follow by unit propagation."""


class RupChecker:
    def __init__(self) -> None:
        # Two watched literals per clause (its first two positions); root
        # assignments sit at the bottom of the trail and are never undone.
        self._watches: Dict[int, List[List[int]]] = {}
        self._true: Set[int] = set()
        self._trail: List[int] = []
        self._head = 0
        self._refuted = False  # the clause set alone is already UNSAT

    def _assign(self, lit: int) -> None:
        self._true.add(lit)
        self._trail.append(lit)

    def _propagate(self) -> bool:
        """Unit propagation to fixpoint; True iff it hits a conflict."""
        true, watches, trail = self._true, self._watches, self._trail
        while self._head < len(trail):
            false_lit = trail[self._head] ^ 1
            self._head += 1
            watching = watches.get(false_lit, ())
            keep: List[List[int]] = []
            for n, clause in enumerate(watching):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if first in true:
                    keep.append(clause)
                    continue
                for k in range(2, len(clause)):
                    if clause[k] ^ 1 not in true:  # a non-false replacement
                        clause[1], clause[k] = clause[k], false_lit
                        watches.setdefault(clause[1], []).append(clause)
                        break
                else:
                    keep.append(clause)
                    if first ^ 1 in true:  # every literal false
                        keep.extend(watching[n + 1:])
                        watches[false_lit] = keep
                        return True
                    self._assign(first)  # unit
            watches[false_lit] = keep
        return False

    def add(self, lits: Iterable[int]) -> None:
        """Adopt a clause (between checks, so only root assignments exist)."""
        true, members = self._true, set(lits)
        if self._refuted or any(x in true or x ^ 1 in members for x in members):
            return  # a tautology, or satisfied for good by a root unit
        clause = [lit for lit in dict.fromkeys(lits) if lit ^ 1 not in true]
        if len(clause) < 2:
            if clause:
                self._assign(clause[0])
            self._refuted = not clause or self._propagate()
            return
        for lit in clause[:2]:
            self._watches.setdefault(lit, []).append(clause)

    def implied(self, lits: Sequence[int]) -> bool:
        """Does the clause follow from the adopted ones by RUP?"""
        if self._refuted:
            return True
        mark = len(self._trail)
        found = False  # a literal already true: a root unit, or a tautology
        for lit in lits:
            if lit in self._true:
                found = True
                break
            if lit ^ 1 not in self._true:
                self._assign(lit ^ 1)
        found = found or self._propagate()
        self._true.difference_update(self._trail[mark:])
        del self._trail[mark:]
        self._head = mark
        return found


def check_proof(log: Iterable[Tuple[str, Sequence[int]]]) -> int:
    """Replay ``log``; returns how many UNSAT answers were certified.

    Raises :class:`ProofError` at the first learned clause or UNSAT claim
    that does not follow by unit propagation from the steps before it.
    """
    checker = RupChecker()
    certified = 0
    for step, (tag, lits) in enumerate(log):
        if tag == "a":
            checker.add(lits)
        elif not checker.implied(lits if tag == "l" else [lit ^ 1 for lit in lits]):
            raise ProofError(f"step {step}: {tag!r} {lits} is not RUP")
        elif tag == "l":
            checker.add(lits)
        else:
            certified += 1
    return certified
