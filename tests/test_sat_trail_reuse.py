"""The SAT kernel keeps its trail between ``solve()`` calls — soundly.

``SatSolver._search`` no longer returns to the root on entry: the decision
levels whose pseudo-decisions are the common prefix of the previous and the
new assumption list stay propagated.  Nothing observable may depend on it.
Every scripted or generated sequence below is judged three ways: the verdict
equals a fresh ``SatSolver`` given the same clauses and assumptions, a SAT
model satisfies every clause and every assumption, and every UNSAT is
replayed by ``tests/rup.py``.  The two seeded bugs at the bottom show the
judge is awake.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.sat import TRUE, SatSolver, neg_lit, pos_lit

from tests.rup import ProofError, check_proof

NUM_VARS = 8


class Judge:
    """Drives one long-lived solver and checks each answer as it is given."""

    def __init__(self, solver_cls=SatSolver, num_vars=NUM_VARS):
        self.solver = solver_cls()
        self.solver.proof = []
        self.num_vars = num_vars
        for _ in range(num_vars):
            self.solver.new_var()
        self.clauses = []
        self.unsats = 0

    def add(self, clause):
        self.clauses.append(list(clause))
        self.solver.add_clause(clause)

    def solve(self, assumptions):
        solver = self.solver
        assumptions = list(assumptions)
        verdict = solver.solve(assumptions)

        fresh = SatSolver()
        for _ in range(self.num_vars):
            fresh.new_var()
        for clause in self.clauses:
            fresh.add_clause(clause)
        assert verdict == fresh.solve(assumptions), (self.clauses, assumptions)

        if verdict:
            def true(lit):
                return solver.model_value(lit >> 1) != bool(lit & 1)

            for clause in self.clauses:
                assert any(true(lit) for lit in clause), (clause, assumptions)
            assert all(true(lit) for lit in assumptions), assumptions
        else:
            self.unsats += 1
        # Level i <= len(assumptions) is the pseudo-decision for
        # assumptions[i - 1]: whatever levels are left say so.
        for i in range(min(len(solver._trail_lim), len(assumptions))):
            lit = assumptions[i]
            assert solver._lit_value(lit) == TRUE and solver._level[lit >> 1] <= i + 1
        return verdict

    def certify(self):
        assert check_proof(self.solver.proof) == self.unsats


def _lit(signed):
    return pos_lit(signed) if signed > 0 else neg_lit(-signed)


_signed = st.integers(1, NUM_VARS).flatmap(lambda v: st.sampled_from([v, -v]))
_clause = st.lists(_signed, min_size=1, max_size=4).map(lambda c: ("clause", c))
# A query is described relative to the previous one: how much of its
# assumption list to keep (more than there is = all of it: an identical or
# extended query; 0 = a diverging one) and what to append.
_query = st.tuples(st.integers(0, 6), st.lists(_signed, max_size=3)).map(
    lambda q: ("solve",) + q
)
_scripts = st.lists(st.one_of(_clause, _query, _query), min_size=2, max_size=30)


def _play(script, solver_cls=SatSolver):
    judge = Judge(solver_cls)
    assumptions = []
    for step in script:
        if step[0] == "clause":
            judge.add([_lit(s) for s in step[1]])
        else:
            _tag, keep, extra = step
            assumptions = assumptions[:keep] + [_lit(s) for s in extra]
            judge.solve(assumptions)
    judge.certify()
    return judge


@settings(max_examples=300, deadline=None)
@given(_scripts)
def test_any_sequence_of_queries_and_clauses_is_answered_like_a_fresh_solver(script):
    _play(script)


def test_shared_diverging_and_shrinking_prefixes_keep_only_what_is_shared():
    judge = Judge()
    a, b, c, d, e = (pos_lit(v) for v in range(1, 6))
    judge.add([a ^ 1, b ^ 1, e])  # a & b -> e
    solver = judge.solver

    def cost(assumptions):
        before = solver.propagations
        assert judge.solve(assumptions)
        return solver.propagations - before

    assert cost([a, b, c]) == NUM_VARS  # from the root: every variable once
    assert cost([a, b, c]) == NUM_VARS - 4  # identical: a, b, e, c stay put
    assert cost([a, b, d]) == NUM_VARS - 3  # diverges at the third: a, b, e stay
    assert cost([b, a, d]) == NUM_VARS  # same literals, other positions: nothing shared
    assert judge.solve([a])  # shrinks
    assert judge.solve([])
    judge.certify()


def test_unsat_then_extend_then_retract():
    judge = Judge()
    a, b, c = (pos_lit(v) for v in range(1, 4))
    judge.add([a ^ 1, b ^ 1])  # not both
    assert not judge.solve([a, b])
    assert judge.solver.failed_assumptions == [b]
    assert not judge.solve([a, b, c])  # the failed query, extended
    assert not judge.solve([a, b])  # and repeated
    assert judge.solve([a, c])
    assert not judge.solve([a, c, b])
    assert judge.solve([a])
    judge.certify()


def test_a_learned_unit_lands_at_the_root_under_a_kept_prefix():
    judge = Judge()
    a, b, c, d = (pos_lit(v) for v in range(1, 5))
    judge.add([a, b])
    judge.add([a, b ^ 1])  # together: a
    judge.solver._polarity[1] = False  # decide ~a first: conflict, learn (a)
    assert judge.solve([c])
    assert judge.solver._level[1] == 0 and judge.solver._lit_value(a) == TRUE
    assert judge.solve([c, d])
    assert not judge.solve([c, a ^ 1])
    assert judge.solve([c, d])
    judge.certify()


def test_clauses_added_between_queries_are_seen_by_the_next_one():
    judge = Judge()
    a, b, c = (pos_lit(v) for v in range(1, 4))
    assert judge.solve([a, b])
    assert judge.solver._trail_lim
    judge.add([a ^ 1, c])  # a -> c, added while a's level was on the trail
    assert not judge.solver._trail_lim  # clause addition returns to the root
    assert judge.solve([a, b])
    assert judge.solver.model_value(3)
    judge.add([b ^ 1, c ^ 1])  # b -> ~c
    assert not judge.solve([a, b])
    assert judge.solve([a])
    judge.certify()


def _guarded_pigeonhole(judge, guard, pigeons, holes, first_var):
    """PHP(pigeons, holes), every clause disabled unless ``guard`` holds."""
    var = {
        (p, h): first_var + p * holes + h for p in range(pigeons) for h in range(holes)
    }
    for p in range(pigeons):
        judge.add([guard ^ 1] + [pos_lit(var[p, h]) for h in range(holes)])
    for h in range(holes):
        for p, q in itertools.combinations(range(pigeons), 2):
            judge.add([guard ^ 1, neg_lit(var[p, h]), neg_lit(var[q, h])])


def test_restarts_and_db_reductions_happen_above_a_kept_prefix():
    pigeons, holes = 7, 6
    judge = Judge(num_vars=3 + pigeons * holes)
    x, y, guard = pos_lit(1), pos_lit(2), pos_lit(3)
    _guarded_pigeonhole(judge, guard, pigeons, holes, first_var=4)
    judge.add([x ^ 1, y])
    solver = judge.solver
    solver._reduce_cap = 50.0  # a reduction within this test's conflicts

    assert judge.solve([x])
    assert judge.solve([x, guard ^ 1])
    assert not judge.solve([x, guard])  # the hard one, with [x] kept
    assert solver.restarts > 0 and solver.db_reductions > 0
    # What survived the restarts is still the prefix, fully propagated.
    assert solver._trail_lim and solver._lit_value(y) == TRUE
    assert judge.solve([x, guard ^ 1])
    assert not judge.solve([x, y, guard])
    judge.certify()


# ----------------------------------------------------------------------
# Seeded bugs
# ----------------------------------------------------------------------


class KeepsOneLevelTooMany(SatSolver):
    """Treats the first differing position as shared."""

    def _search(self, assumptions):
        shared = 0
        for old, new in zip(self._assumed, assumptions, strict=False):
            if old != new:
                break
            shared += 1
        if shared < min(len(self._assumed), len(assumptions)):
            self._assumed = list(self._assumed)
            self._assumed[shared] = assumptions[shared]
        return super()._search(assumptions)


class AddsClausesAboveTheRoot(SatSolver):
    """``add_clause`` without its return to the root: simplifies the new
    clause against literals that only hold under the last assumptions."""

    def add_clause(self, lits):
        levels, self._trail_lim = self._trail_lim, []
        try:
            return super().add_clause(lits)
        finally:
            self._trail_lim = levels


DIVERGING = [("solve", 0, [1, 2]), ("solve", 1, [-2]), ("solve", 1, [3, -2])]
CLAUSE_UNDER_A_TRAIL = [
    ("solve", 0, [1, 2]),
    ("clause", [-1, -2, 3]),
    ("solve", 2, []),
    ("clause", [-3, 4]),
    ("solve", 0, [-3]),
]


@pytest.mark.parametrize(
    "solver_cls, script",
    [(KeepsOneLevelTooMany, DIVERGING), (AddsClausesAboveTheRoot, CLAUSE_UNDER_A_TRAIL)],
)
def test_a_seeded_bug_is_caught(solver_cls, script):
    _play(script)  # the scripts themselves are fine
    with pytest.raises((AssertionError, ProofError)):
        _play(script, solver_cls)
