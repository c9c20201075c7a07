"""The one CNF pipeline against ground truth.

There is one encoder and one kernel, so nothing here compares
implementations.  Verdicts are judged by exhaustive enumeration with the
``tests/treewalk_eval.py`` tree walk (random formulas are kept to 14
variable bits so that is cheap), SAT models are re-evaluated on the
original term, and UNSAT answers are replayed by the forward-RUP checker in
:mod:`tests.rup`.  (Test ids predate the second pipeline's deletion; kept
so the floor stays put.)
"""

import itertools
import random

import pytest

from repro.smt import Result, Solver
from repro.smt import terms as T
from repro.smt.minmodel import minimal_assignment
from repro.symbolic import PacketGenerator
from repro.symbolic import packets as packets_module
from repro.workloads import production_like_entries

from tests import test_smt_compile
from tests.full_chain_executor import FullChainExecutor
from tests.rup import check_proof
from tests.test_smt_compile import _random_bool, _random_bv
from tests.test_symbolic import decode_state
from tests.treewalk_eval import evaluate

MAX_BITS = 14


@pytest.fixture(autouse=True)
def _narrow_widths(monkeypatch):
    """The random generators' narrow-width mode: enumerable formulas."""
    monkeypatch.setattr(test_smt_compile, "WIDTHS", (1, 2, 3, 4))


def _domains(*terms):
    """name -> value range over the free variables of ``terms``."""
    return {
        name: range(1 << getattr(sort, "width", 1))
        for term in terms
        for name, sort in T.free_variables(term).items()
    }


def _enumerable(*terms):
    return sum(len(d).bit_length() - 1 for d in _domains(*terms).values()) <= MAX_BITS


def _least_model(formula):
    """Ground truth by enumeration: the lexicographically least satisfying
    assignment (sorted names, first name most significant), or None."""
    domains = _domains(formula)
    names = sorted(domains)
    for values in itertools.product(*(domains[n] for n in names)):
        assignment = dict(zip(names, values, strict=True))
        if evaluate(formula, assignment):
            return assignment
    return None


def _check(solver, asserted, *assumptions):
    """One ``check()`` judged by enumeration; returns the verdict."""
    formula = T.and_(*asserted, *assumptions)
    result = solver.check(*assumptions)
    assert (result is Result.SAT) == (_least_model(formula) is not None), formula
    if result is Result.SAT:
        model = dict(solver.model())
        assert evaluate(formula, model) == 1, f"{model} falsifies {formula!r}"
    return result


@pytest.mark.parametrize("seed", range(12))
def test_random_formulas_agree_across_encoders_and_kernels(seed):
    rng = random.Random(7000 + seed)
    verdicts = []
    while len(verdicts) < 40:
        formula = _random_bool(rng, depth=5)
        if not _enumerable(formula):
            continue
        solver = Solver(simplify_terms=bool(rng.getrandbits(1)))
        solver.proof = []
        solver.add(formula)
        verdicts.append(_check(solver, [formula]))
        if verdicts[-1] is Result.UNSAT:
            assert check_proof(solver.proof) == 1
    # A seed without both outcomes would silently weaken the test.
    assert set(verdicts) == {Result.SAT, Result.UNSAT}


@pytest.mark.parametrize("seed", range(6))
def test_assumption_sequences_agree(seed):
    # Generation's usage pattern: one base encoding, many assumptions in
    # sequence, every step judged by enumeration — each assumption is
    # encoded only in the direction a check requires (true).
    rng = random.Random(8000 + seed)
    while True:
        base = _random_bool(rng, depth=3)
        assumptions = [_random_bool(rng, depth=2) for _ in range(6)]
        if _enumerable(base, *assumptions):
            break
    solver = Solver()
    solver.proof = []
    solver.add(base)
    for a in assumptions:
        _check(solver, [base], a)
    # A joint check and a bare re-check keep the encoding reusable.
    _check(solver, [base], *assumptions)
    _check(solver, [base])
    check_proof(solver.proof)
    # Structured goals over one bitvector, shaped like entry coverage.
    width = rng.choice([4, 8, 12])
    x = T.bv_var(f"cov{width}", width)
    bound = x.ult(T.bv_const(8, width))
    solver = Solver()
    solver.proof = []
    solver.add(bound)
    goals = [x.eq(T.bv_const(v % (1 << width), width)) for v in (0, 3, 7, 250)]
    assert [_check(solver, [bound], g) for g in goals] == [
        Result.SAT, Result.SAT, Result.SAT, Result.UNSAT,
    ]
    assert check_proof(solver.proof) == 1


_ROOT_OPS = (T.OP_AND, T.OP_OR, T.OP_XOR, T.OP_ITE)


def _random_rooted(rng):
    """A random boolean term whose root gate is an AND, OR, XOR or ITE."""
    while True:
        kids = [_random_bool(rng, depth=2) for _ in range(3)]
        op = rng.choice(_ROOT_OPS)
        if op == T.OP_AND:
            term = T.and_(*kids[: rng.randrange(2, 4)])
        elif op == T.OP_OR:
            term = T.or_(*kids[: rng.randrange(2, 4)])
        elif op == T.OP_XOR:
            term = T.xor(kids[0], kids[1])
        else:
            term = T.ite(*kids)
        if term.op in _ROOT_OPS:
            return term


@pytest.mark.parametrize("seed", range(8))
def test_complement_assumptions_need_no_root_completion(seed):
    """Assumption literals are encoded in the positive direction only.  A
    complement is asked as ``not_(a)``, whose encoding must emit the
    direction ``a``'s first use left out: on one long-lived solver, every
    check of a sequence that asks a term and then its complement is
    judged by enumeration, and every UNSAT is replayed by RUP."""
    rng = random.Random(8500 + seed)
    verdicts = []
    for _ in range(10):
        while True:
            base = _random_bool(rng, depth=3)
            a, b = _random_rooted(rng), _random_rooted(rng)
            if _enumerable(base, a, b):
                break
        solver = Solver(simplify_terms=bool(rng.getrandbits(1)))
        solver.proof = []
        solver.add(base)
        sequence = (
            (a,),
            (T.not_(a),),
            (a, T.not_(b)),
            (T.not_(a), b),
            (T.not_(T.and_(a, b)),),
            (a,),
        )
        steps = [_check(solver, [base], *assumptions) for assumptions in sequence]
        assert check_proof(solver.proof) == steps.count(Result.UNSAT)
        verdicts.extend(steps)
    # A seed without both outcomes would silently weaken the test.
    assert set(verdicts) == {Result.SAT, Result.UNSAT}


def test_pooled_reuse_agrees_across_configurations():
    # Two "table states" against one long-lived solver: the second extends
    # the first's warm encoding; answers match enumeration at every step.
    x = T.bv_var("px", 6)
    y = T.bv_var("py", 6)
    state1 = [x.ult(T.bv_const(40, 6))]
    state2 = [y.eq(x + T.bv_const(1, 6))]
    s = Solver()
    s.proof = []  # attached while the solver is still empty
    s.add(*state1)
    assert _check(s, state1, x.eq(T.bv_const(3, 6))) is Result.SAT
    s.add(*state2)
    assert len(s.assertions) == 2
    both = state1 + state2
    four, five, nine = (T.bv_const(v, 6) for v in (4, 5, 9))
    assert _check(s, both, x.eq(four), y.eq(five)) is Result.SAT
    assert _check(s, both, x.eq(four), y.eq(nine)) is Result.UNSAT
    assert _check(s, both, x.eq(T.bv_const(50, 6))) is Result.UNSAT
    assert check_proof(s.proof) == 2


@pytest.mark.parametrize("seed", range(4))
def test_canonical_minimal_models_identical(seed):
    # minimal_assignment is the canonical-witness core: its output must be
    # the lexicographic minimum, whatever the solver did on the way.
    rng = random.Random(9000 + seed)
    width = rng.choice([3, 4])
    a = T.bv_var("ma", width)
    b = T.bv_var("mb", width)
    while True:
        formula = T.and_(
            _random_bv(rng, 2, width).eq(b),
            a.ult(T.bv_const((1 << width) - 2, width)),
            (a ^ b).ne(T.bv_const(0, width)),
        )
        if _enumerable(formula):
            break
    variables = {
        name: T.bv_var(name, sort.width) if isinstance(sort, T.BVSort) else T.bool_var(name)
        for name, sort in T.free_variables(formula).items()
    }
    assert minimal_assignment(Solver(), [formula], variables) == _least_model(formula)


class TestClauseEconomy:
    """Absolute pins: with no second encoder to be relatively better than,
    a clause-economy regression has to show against recorded numbers."""

    def test_constant_folding_collapses_eq_with_const(self):
        x = T.bv_var("fx", 32)
        s = Solver(simplify_terms=False)
        s.add(x.eq(T.bv_const(0xDEADBEEF, 32)))
        assert s.check() is Result.SAT
        assert s.model()["fx"] == 0xDEADBEEF
        # Per-bit iff-with-constant folds to a (possibly negated) bit
        # literal: the only variables are the 32 bits, TRUE and the AND;
        # the only clauses TRUE's unit, AND -> each bit and the assertion.
        assert s.stats["sat_vars"] == 34
        assert s.stats["cnf_clauses"] == 1 + 32 + 1

    def test_structural_hashing_shares_repeated_gates(self):
        # `x & y` and `y & x` are *different terms* (hash-consing cannot
        # merge them), but the per-bit AND gates normalize their argument
        # literals into sorted order, so the literal-level cache answers
        # the second encoding without fresh variables or clauses.
        x = T.bv_var("sx", 16)
        y = T.bv_var("sy", 16)
        f = T.and_(
            (x & y).eq(T.bv_const(0x00F0, 16)),
            (y & x).ne(T.bv_const(0, 16)),
        )
        s = Solver(simplify_terms=False)
        s.add(f)
        assert s.check() is Result.SAT
        assert evaluate(f, dict(s.model())) == 1
        assert s.stats["gates_shared"] == 16
        # 32 bits, TRUE, the 16 per-bit ANDs once (not twice), eq, ne, root.
        assert s.stats["sat_vars"] == 32 + 1 + 16 + 3

    def test_tor_cold_generation_emits_the_recorded_cnf(self, tor_program, tor_p4info):
        """ToR cold entry coverage with private solvers emits exactly the
        recorded CNF (like the benchmark's pin on ``symbolic_cold``).  The
        guards negate only the overlapping higher-priority entries, and
        fields that tables write are compared with constants by case."""
        state = decode_state(tor_p4info, production_like_entries(tor_p4info, 80, seed=1))
        stats = PacketGenerator(tor_program, state).generate().stats
        pins = (stats.cnf_clauses, stats.cnf_vars, stats.gates_shared)
        # (8777, 3182, 1592) while cascade attempts an earlier failed
        # assumption refutes were still encoded and asked; (8763, 3182,
        # 1369) while every assumption's root gate was also completed in
        # the upward direction, each completion a gate-cache hit; (8680,
        # 3182, 459) while every attempt also pinned the fields its goal
        # leaves free to background values.
        assert pins == (6367, 874, 459)

    def test_full_chain_guards_emit_the_cnf_recorded_before_pruning(
        self, tor_program, tor_p4info, monkeypatch
    ):
        """The same run with every guard negating every higher-priority entry
        (``tests/full_chain_executor.py``) emits the CNF recorded when the
        Tseitin encoder it used to be compared with was deleted, less the
        assumptions of the cascade attempts that are no longer asked."""
        monkeypatch.setattr(packets_module, "SymbolicExecutor", FullChainExecutor)
        state = decode_state(tor_p4info, production_like_entries(tor_p4info, 80, seed=1))
        stats = PacketGenerator(tor_program, state).generate().stats
        pins = (stats.cnf_clauses, stats.cnf_vars, stats.gates_shared)
        # (14897, 4081, 1672) before refuted cascade attempts were skipped;
        # (14891, 4081, 1516) while assumption roots were completed in both
        # directions; (14778, 4081, 247) while every attempt also pinned
        # the fields its goal leaves free to background values.
        assert pins == (12465, 1773, 247)

    def test_stats_surface_cnf_counters(self):
        s = Solver()
        x = T.bv_var("cx", 8)
        s.add(x.eq(T.bv_const(5, 8)))
        assert s.check() is Result.SAT
        stats = s.stats
        assert {"cnf_clauses", "gates_shared", "db_reductions", "minimized_literals"} <= set(stats)
        assert stats["cnf_clauses"] > 0
