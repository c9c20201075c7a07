"""Unit and property tests for the SAT + bit-blasting solver pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import Result, Solver, bool_var, bv_const, bv_var
from repro.smt import terms as T
from repro.smt.sat import SatSolver, neg_lit, pos_lit

from tests.rup import ProofError, check_proof
from tests.treewalk_eval import evaluate


class TestSatSolver:
    def test_trivial_sat(self):
        s = SatSolver()
        v = s.new_var()
        assert s.add_clause([pos_lit(v)])
        assert s.solve()
        assert s.model_value(v) is True

    def test_trivial_unsat(self):
        s = SatSolver()
        v = s.new_var()
        s.add_clause([pos_lit(v)])
        assert not s.add_clause([neg_lit(v)]) or not s.solve()

    def test_unit_propagation_chain(self):
        s = SatSolver()
        vs = [s.new_var() for _ in range(5)]
        # v0 and (v_i -> v_{i+1})
        s.add_clause([pos_lit(vs[0])])
        for a, b in zip(vs, vs[1:], strict=False):
            s.add_clause([neg_lit(a), pos_lit(b)])
        assert s.solve()
        assert all(s.model_value(v) for v in vs)

    def test_pigeonhole_3_into_2_unsat(self):
        # 3 pigeons, 2 holes: classic small UNSAT requiring real search.
        s = SatSolver()
        p = [[s.new_var() for _ in range(2)] for _ in range(3)]
        for i in range(3):
            s.add_clause([pos_lit(p[i][0]), pos_lit(p[i][1])])
        for h in range(2):
            for i in range(3):
                for j in range(i + 1, 3):
                    s.add_clause([neg_lit(p[i][h]), neg_lit(p[j][h])])
        assert not s.solve()

    def test_assumptions_sat_then_unsat(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([neg_lit(a), pos_lit(b)])  # a -> b
        assert s.solve([pos_lit(a)])
        assert s.model_value(b) is True
        s.add_clause([neg_lit(b)])  # now b must be false
        assert not s.solve([pos_lit(a)])
        assert s.solve([neg_lit(a)])  # formula still satisfiable without a

    def test_repeated_solves_reuse_state(self):
        s = SatSolver()
        vs = [s.new_var() for _ in range(10)]
        for i in range(9):
            s.add_clause([neg_lit(vs[i]), pos_lit(vs[i + 1])])
        for i in range(10):
            assert s.solve([pos_lit(vs[i])])

    def test_tautology_clause_ignored(self):
        s = SatSolver()
        v = s.new_var()
        assert s.add_clause([pos_lit(v), neg_lit(v)])
        assert s.solve()


class TestSolverBasics:
    def test_simple_sat_model(self):
        s = Solver()
        x = bv_var("x", 8)
        s.add(x.eq(42))
        assert s.check() is Result.SAT
        assert s.model()["x"] == 42

    def test_conflicting_constraints_unsat(self):
        s = Solver()
        x = bv_var("x", 8)
        s.add(x.eq(1), x.eq(2))
        assert s.check() is Result.UNSAT

    def test_model_raises_without_sat(self):
        s = Solver()
        x = bv_var("x", 4)
        s.add(x.ult(0))
        assert s.check() is Result.UNSAT
        with pytest.raises(RuntimeError):
            s.model()

    def test_arithmetic_constraint(self):
        s = Solver()
        x, y = bv_var("x", 8), bv_var("y", 8)
        s.add((x + y).eq(10), x.ult(y), x.ne(0))
        assert s.check() is Result.SAT
        m = s.model()
        assert (m["x"] + m["y"]) % 256 == 10
        assert 0 < m["x"] < m["y"]

    def test_overflow_wraps(self):
        s = Solver()
        x = bv_var("x", 8)
        s.add((x + 1).eq(0))
        assert s.check() is Result.SAT
        assert s.model()["x"] == 255

    def test_subtraction_and_negation(self):
        s = Solver()
        x = bv_var("x", 8)
        s.add((bv_const(0, 8) - x).eq(5))
        assert s.check() is Result.SAT
        assert s.model()["x"] == 251

    def test_multiplication(self):
        s = Solver()
        x = bv_var("x", 8)
        s.add((x * 3).eq(15), x.ult(100))
        assert s.check() is Result.SAT
        assert (s.model()["x"] * 3) % 256 == 15

    def test_signed_comparison(self):
        s = Solver()
        x = bv_var("x", 8)
        s.add(x.slt(0))
        assert s.check() is Result.SAT
        assert s.model()["x"] >= 128  # negative in two's complement

    def test_boolean_structure(self):
        s = Solver()
        p, q, r = bool_var("p"), bool_var("q"), bool_var("r")
        s.add(T.or_(p, q), T.implies(p, r), T.implies(q, r), T.not_(T.and_(p, q)))
        assert s.check() is Result.SAT
        m = s.model()
        assert m["r"] == 1
        assert (m["p"] == 1) != (m["q"] == 1)

    def test_concat_extract(self):
        s = Solver()
        x = bv_var("x", 16)
        s.add(x.extract(15, 8).eq(0xAB), x.extract(7, 0).eq(0xCD))
        assert s.check() is Result.SAT
        assert s.model()["x"] == 0xABCD

    def test_ite(self):
        s = Solver()
        c = bool_var("c")
        x = bv_var("x", 8)
        s.add(T.ite(c, bv_const(1, 8), bv_const(2, 8)).eq(x), x.eq(2))
        assert s.check() is Result.SAT
        assert s.model()["c"] == 0

    def test_non_boolean_assertion_rejected(self):
        s = Solver()
        with pytest.raises(TypeError):
            s.add(bv_var("x", 8))


class TestAssumptions:
    def test_check_under_assumptions_does_not_persist(self):
        s = Solver()
        x = bv_var("x", 8)
        s.add(x.ult(10))
        assert s.check(x.eq(3)) is Result.SAT
        assert s.model()["x"] == 3
        assert s.check(x.eq(7)) is Result.SAT
        assert s.model()["x"] == 7
        assert s.check(x.eq(100)) is Result.UNSAT
        assert s.check() is Result.SAT  # base formula unaffected

    def test_many_incremental_queries(self):
        # The p4-symbolic usage pattern: one base formula, many goals.
        s = Solver()
        x = bv_var("x", 8)
        y = bv_var("y", 8)
        s.add(y.eq(x + 1))
        for goal in range(0, 200, 17):
            assert s.check(x.eq(goal)) is Result.SAT
            m = s.model()
            assert m["y"] == (goal + 1) % 256

    def test_false_assumption_short_circuits(self):
        s = Solver()
        assert s.check(T.FALSE) is Result.UNSAT
        assert s.check(T.TRUE) is Result.SAT


class TestModelSoundness:
    """Every model returned must satisfy the asserted formula, judged by the
    independent concrete evaluator."""

    def _check_model(self, solver, formulas):
        m = solver.model()
        for f in formulas:
            assert m.evaluate(f) == 1, f"model {m!r} falsifies {f!r}"

    def test_lpm_style_constraints(self):
        # Shaped like p4-symbolic guards: prefix match + negation of a
        # higher-priority prefix.
        s = Solver()
        dst = bv_var("dst", 32)
        in_10 = dst.extract(31, 24).eq(10)
        in_10_0 = T.and_(in_10, dst.extract(23, 16).eq(0))
        f = T.and_(in_10, T.not_(in_10_0))
        s.add(f)
        assert s.check() is Result.SAT
        self._check_model(s, [f])
        m = s.model()
        assert (m["dst"] >> 24) == 10
        assert (m["dst"] >> 16) & 0xFF != 0

    def test_ternary_masked_match(self):
        s = Solver()
        x = bv_var("x", 16)
        f = (x & bv_const(0xFF00, 16)).eq(0x1200)
        s.add(f)
        assert s.check() is Result.SAT
        self._check_model(s, [f])


@st.composite
def small_formula(draw):
    """A random boolean formula over two 6-bit vars and a bool var."""
    x = bv_var("hx", 6)
    y = bv_var("hy", 6)
    p = bool_var("hp")

    def bv_atom():
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return x
        if choice == 1:
            return y
        return bv_const(draw(st.integers(0, 63)), 6)

    def bv_term(depth):
        if depth == 0:
            return bv_atom()
        op = draw(st.integers(0, 6))
        a = bv_term(depth - 1)
        b = bv_term(depth - 1)
        if op == 0:
            return a + b
        if op == 1:
            return a - b
        if op == 2:
            return a & b
        if op == 3:
            return a | b
        if op == 4:
            return a ^ b
        if op == 5:
            return ~a
        return T.ite(p, a, b)

    def bool_term(depth):
        if depth == 0:
            op = draw(st.integers(0, 3))
            a = bv_term(1)
            b = bv_term(1)
            if op == 0:
                return a.eq(b)
            if op == 1:
                return a.ult(b)
            if op == 2:
                return a.ule(b)
            return p
        op = draw(st.integers(0, 2))
        a = bool_term(depth - 1)
        b = bool_term(depth - 1)
        if op == 0:
            return T.and_(a, b)
        if op == 1:
            return T.or_(a, b)
        return T.not_(a)

    return bool_term(draw(st.integers(1, 2)))


class TestSolverProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_formula())
    def test_models_satisfy_formula(self, formula):
        s = Solver()
        s.add(formula)
        if s.check() is Result.SAT:
            assert s.model().evaluate(formula) == 1

    @settings(max_examples=40, deadline=None)
    @given(small_formula())
    def test_solver_agrees_with_exhaustive_check(self, formula):
        # 6-bit x, 6-bit y, bool p: 2^13 assignments — exhaustively decidable.
        s = Solver()
        s.add(formula)
        result = s.check()
        truly_sat = any(
            evaluate(formula, {"hx": hx, "hy": hy, "hp": hp})
            for hx in range(0, 64, 7)
            for hy in range(0, 64, 7)
            for hp in (0, 1)
        )
        if truly_sat:
            # Sampled satisfiability implies the solver must report SAT.
            assert result is Result.SAT
        if result is Result.UNSAT:
            # UNSAT claims get the full exhaustive treatment.
            assert not any(
                evaluate(formula, {"hx": hx, "hy": hy, "hp": hp})
                for hx in range(64)
                for hy in range(64)
                for hp in (0, 1)
            )

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**16 - 1),
        st.integers(0, 2**16 - 1),
        st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
    )
    def test_bitblast_matches_concrete_semantics(self, a, b, op):
        x = bv_var("bbx", 16)
        y = bv_var("bby", 16)
        expr = {
            "add": x + y,
            "sub": x - y,
            "mul": x * y,
            "and": x & y,
            "or": x | y,
            "xor": x ^ y,
        }[op]
        expected = evaluate(expr, {"bbx": a, "bby": b})
        s = Solver()
        s.add(x.eq(a), y.eq(b))
        assert s.check() is Result.SAT
        assert s.model().evaluate(expr) == expected


def _guarded_pigeonhole(pigeons, holes, proof=None):
    """PHP(pigeons, holes) clauses guarded by one activation variable.

    With the guard assumed true the instance is the classic UNSAT
    pigeonhole; with it assumed false every guarded clause is satisfied
    trivially.  Returns (solver, guard_var); ``proof`` is attached as the
    solver's proof sink before the first clause."""
    s = SatSolver()
    s.proof = proof
    g = s.new_var()
    p = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for i in range(pigeons):
        s.add_clause([neg_lit(g)] + [pos_lit(p[i][k]) for k in range(holes)])
    for k in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                s.add_clause([neg_lit(g), neg_lit(p[i][k]), neg_lit(p[j][k])])
    return s, g


class TestAssumptionSemantics:
    """The contracts a solver that answers many goals relies on: TRUE/FALSE
    short-circuits, failed-assumption subsets, and learned-clause reuse
    across checks."""

    def test_true_assumption_is_skipped_entirely(self):
        s = Solver()
        x = bv_var("x", 8)
        s.add(x.ult(10))
        before = s.stats
        assert s.check(T.TRUE) is Result.SAT
        assert s.check(T.TRUE, x.eq(3)) is Result.SAT
        assert s.model()["x"] == 3
        # TRUE adds nothing to the encoding: no conflicts were needed.
        assert s.stats["conflicts"] == before["conflicts"]

    def test_false_assumption_short_circuits_before_sat(self):
        s = Solver()
        x = bv_var("x", 8)
        s.add(x.ult(10))
        before = s.stats
        assert s.check(T.FALSE) is Result.UNSAT
        # Short-circuited: the SAT core never ran.
        after = s.stats
        assert after["decisions"] == before["decisions"]
        assert after["conflicts"] == before["conflicts"]
        # A constant-false *structure* simplifies to FALSE and also
        # short-circuits (assumptions are simplified before encoding).
        assert s.check(T.bv_const(1, 8).eq(T.bv_const(2, 8))) is Result.UNSAT
        assert after["decisions"] == s.stats["decisions"]
        # The solver is still usable afterwards.
        assert s.check(x.eq(4)) is Result.SAT

    def test_failed_assumptions_subset_of_assumptions(self):
        s = SatSolver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([neg_lit(a), pos_lit(b)])  # a -> b
        assumed = [pos_lit(a), neg_lit(b), pos_lit(c)]
        assert not s.solve(assumed)
        failed = list(s.failed_assumptions)
        assert failed
        assert set(failed) <= set(assumed)
        # The failing literal, together with the assumptions tried before
        # it, is sufficient for UNSAT (assumptions apply in order).
        prefix = assumed[: assumed.index(failed[0]) + 1]
        assert not s.solve(prefix)
        # The irrelevant assumption alone is fine.
        assert s.solve([pos_lit(c)])

    def test_solver_names_the_failed_assumption_term(self):
        """Every UNSAT check names the refuted assumption as the caller
        passed it, the short-circuited constant-false one included."""
        s = Solver()
        x = T.bv_var("x", 8)
        s.add(x.ult(10))
        low, high, never = x.ult(5), x.eq(20), T.bv_const(1, 8).eq(T.bv_const(2, 8))
        assert s.check(low, high) is Result.UNSAT
        assert s.failed_assumption is high
        assert s.check(low, never, high) is Result.UNSAT
        assert s.failed_assumption is never
        assert s.check(low) is Result.SAT
        assert s.failed_assumption is None

    def test_failed_assumptions_cleared_on_sat(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([neg_lit(a), pos_lit(b)])
        assert not s.solve([pos_lit(a), neg_lit(b)])
        assert s.failed_assumptions
        assert s.solve([pos_lit(a)])
        assert s.failed_assumptions == []

    def test_learned_clauses_reused_across_assumption_sets(self):
        # First refutation of the guarded pigeonhole does real search;
        # repeating the same assumption set must reuse what was learned
        # (the conflict counter barely moves the second time).
        s, g = _guarded_pigeonhole(6, 5)
        assert not s.solve([pos_lit(g)])
        first = s.conflicts
        assert first > 20  # genuinely hard the first time
        assert not s.solve([pos_lit(g)])
        assert s.conflicts - first < first / 4
        # Learned clauses never block the relaxed query.
        assert s.solve([neg_lit(g)])

    def test_solver_level_repeat_check_gets_cheaper(self):
        s = Solver()
        x = bv_var("mx", 12)
        y = bv_var("my", 12)
        s.add((x * y).eq(T.bv_const(3127, 12)))  # needs actual search
        goal = x.ult(200)
        assert s.check(goal) is Result.SAT
        first = s.stats["conflicts"]
        assert s.check(goal) is Result.SAT
        assert s.stats["conflicts"] - first <= max(first // 4, 1)


class TestReduceDb:
    def test_reduce_db_keeps_solver_correct_under_pressure(self):
        # PHP(8,7) drives >2000 learned clauses, so _reduce_db really
        # fires (watch remapping, suffix compaction) mid-search.
        s, g = _guarded_pigeonhole(8, 7)
        assert not s.solve([pos_lit(g)])
        learned = len(s._clauses) - s._num_problem_clauses
        # Reduction actually discarded clauses: far fewer survive than
        # the number of conflicts that each learned one.
        assert s.conflicts > 2000
        assert learned < s.conflicts
        # Verdicts stay correct on the compacted database.
        assert not s.solve([pos_lit(g)])
        assert s.solve([neg_lit(g)])
        assert s.solve([])

    def test_explicit_reduce_db_preserves_answers(self):
        s, g = _guarded_pigeonhole(6, 5)
        assert not s.solve([pos_lit(g)])
        s._cancel_until(0)
        s._reduce_db()  # below threshold: must be a no-op, not a crash
        assert not s.solve([pos_lit(g)])
        assert s.solve([neg_lit(g)])


class TestModernKernel:
    """The modernized CDCL internals: binary implication lists, blocking
    literals, on-the-fly minimization, and the geometric reduce schedule."""

    def test_binary_clauses_bypass_clause_db(self):
        s = SatSolver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([neg_lit(a), pos_lit(b)])  # a -> b
        s.add_clause([neg_lit(b), pos_lit(c)])  # b -> c
        # Binaries live in the implication lists, never in clause storage.
        assert len(s._clauses) == 0
        assert pos_lit(b) in s._bin_occurs[pos_lit(a) ^ 1]
        d = s.new_var()
        s.add_clause([pos_lit(a), pos_lit(b), pos_lit(d)])
        assert len(s._clauses) == 1
        assert s.solve([pos_lit(a)])
        assert s.model_value(c) is True
        # Binary propagation also produces usable conflict analysis:
        # ¬c ripples back through the implication lists (¬b, then ¬a), and
        # the ternary clause then forces d.
        s.add_clause([neg_lit(c)])
        assert not s.solve([pos_lit(a)])
        assert s.solve()
        assert s.model_value(d) is True

    def test_geometric_reduce_schedule_two_reductions(self):
        # Lower the cap so PHP(7,6) crosses it repeatedly: each reduction
        # must grow the cap geometrically, and verdicts must survive
        # several compaction waves.
        s, g = _guarded_pigeonhole(7, 6)
        s._reduce_cap = 50.0
        s._reduce_cap_mult = 2.0
        assert not s.solve([pos_lit(g)])
        assert s.db_reductions >= 2
        assert s._reduce_cap == 50.0 * 2.0 ** s.db_reductions
        assert not s.solve([pos_lit(g)])
        assert s.solve([neg_lit(g)])

    def test_problem_clause_added_after_learning_survives_reduction(self):
        # Incremental solving appends problem clauses *after* clauses were
        # learned; reduction must key off the learned flag, not position.
        s, g = _guarded_pigeonhole(7, 6)
        s._reduce_cap = 50.0
        assert not s.solve([pos_lit(g)])
        x, y, z = s.new_var(), s.new_var(), s.new_var()
        assert s.add_clause([pos_lit(x), pos_lit(y), pos_lit(z)])
        assert s.add_clause([neg_lit(x)])
        assert s.add_clause([neg_lit(y)])
        before = s.db_reductions
        s._cancel_until(0)
        s._reduce_db()
        assert s.db_reductions == before + 1
        # The late problem clause still constrains: x, y false force z.
        assert s.solve([neg_lit(g)])
        assert s.model_value(z) is True
        assert not s.solve([neg_lit(g), neg_lit(z)])

    def test_on_the_fly_minimization_fires(self):
        s, g = _guarded_pigeonhole(7, 6)
        assert not s.solve([pos_lit(g)])
        # Self-subsumption against reason clauses shortened learned clauses.
        assert s.minimized_literals > 0

    def test_clauses_received_counter(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([pos_lit(a)])
        s.add_clause([neg_lit(a), pos_lit(b)])
        s.add_clause([pos_lit(a), neg_lit(a)])  # tautology still counted
        assert s.clauses_received == 3

    def test_guarded_pigeonhole_unsat_is_rup_certified(self):
        # The refutation replayed by unit propagation alone.  Two forced DB
        # reductions: lemmas the kernel deleted since must not matter.
        log = []
        s, g = _guarded_pigeonhole(7, 6, proof=log)
        s._reduce_cap = 50.0
        assert not s.solve([pos_lit(g)])
        assert s.db_reductions >= 2
        assert s.solve([neg_lit(g)])
        assert [tag for tag, _ in log].count("l") == s.conflicts
        assert log[-1] == ("u", (pos_lit(g),))  # the SAT answer logs nothing
        assert check_proof(log) == 1


class TestProofChecker:
    """Negative controls for ``tests/rup.py``: each log below must be
    rejected, so a checker that accepts everything fails here."""

    def test_false_unsat_claim_is_rejected(self):
        log = []
        s, g = _guarded_pigeonhole(5, 4, proof=log)
        assert not s.solve([pos_lit(g)])
        assert s.solve([neg_lit(g)])
        assert check_proof(log) == 1
        with pytest.raises(ProofError, match="'u'"):
            check_proof([*log, ("u", (neg_lit(g),))])

    def test_log_with_half_its_lemmas_removed_is_rejected(self):
        log = []
        s, g = _guarded_pigeonhole(7, 6, proof=log)
        assert not s.solve([pos_lit(g)])
        lemmas = [i for i, (tag, _) in enumerate(log) if tag == "l"]
        dropped = set(lemmas[::2])
        with pytest.raises(ProofError):
            check_proof([step for i, step in enumerate(log) if i not in dropped])

    def test_learned_clause_missing_a_literal_is_rejected(self, monkeypatch):
        analyze = SatSolver._analyze

        def lossy(self, conflict):
            learned, backjump, lbd = analyze(self, conflict)
            return learned[: max(2, len(learned) - 1)], backjump, lbd

        monkeypatch.setattr(SatSolver, "_analyze", lossy)
        log = []
        s, g = _guarded_pigeonhole(7, 6, proof=log)
        s.solve([pos_lit(g)])  # whatever it answers, the log must not check
        with pytest.raises(ProofError, match="'l'"):
            check_proof(log)


class TestSolverPool:
    def test_formula_memo_roundtrip(self):
        from repro.smt.pool import MISS, SolverPool

        pool = SolverPool()
        x = bv_var("px", 8)
        f = x.eq(5)
        key = ("prog", f)
        assert pool.lookup_formula(key) is MISS
        pool.store_formula(key, {"px": 5})
        assert pool.lookup_formula(key) == {"px": 5}
        # Hash-consing: an equal-structure term is the same key.
        assert pool.lookup_formula(("prog", bv_var("px", 8).eq(5))) == {"px": 5}
        # UNSAT is memoised as None, distinct from MISS.
        g = T.and_(x.eq(44), x.eq(1))
        pool.store_formula(("prog", g), None)
        assert pool.lookup_formula(("prog", g)) is None


class TestPreferredPhases:
    """``Solver.check(prefer=)`` seeds the search's phases and nothing else:
    the verdict, the failed assumption's contract and proofs are those of a
    check without it."""

    @settings(max_examples=60, deadline=None)
    @given(
        small_formula(),
        small_formula(),
        small_formula(),
        st.fixed_dictionaries(
            {"hx": st.integers(0, 63), "hy": st.integers(0, 63), "hp": st.integers(0, 1)}
        ),
    )
    def test_a_preference_never_changes_a_verdict(self, base, a, b, prefer):
        plain, seeded = Solver(), Solver()
        seeded.proof = []
        plain.add(base)
        seeded.add(base)
        for assumptions in ((a,), (T.not_(a),), (a, b), (b, T.not_(a)), (a,), ()):
            verdict = plain.check(*assumptions)
            assert seeded.check(*assumptions, prefer=prefer) is verdict
            if verdict is Result.SAT:
                assert seeded.model().evaluate(T.and_(base, *assumptions)) == 1
            elif seeded.failed_assumption is not None:
                # The named assumption and those before it are UNSAT.
                named = assumptions[: assumptions.index(seeded.failed_assumption) + 1]
                fresh = Solver()
                fresh.add(base)
                assert fresh.check(*named) is Result.UNSAT
            else:
                fresh = Solver()
                fresh.add(base)
                assert fresh.check() is Result.UNSAT
        check_proof(seeded.proof)

    def test_free_bits_take_the_preferred_value(self):
        s = Solver()
        x, y = bv_var("px", 8), bv_var("py", 8)
        s.add(x.ult(200), y.ne(0))
        for want in (77, 5, 199, 0):
            assert s.check(prefer={"px": want, "py": 3}) is Result.SAT
            assert (s.model()["px"], s.model()["py"]) == (want, 3)
        # The constraints win where the preference would violate them.
        assert s.check(x.eq(9), prefer={"px": 250, "py": 0}) is Result.SAT
        assert s.model()["px"] == 9 and s.model()["py"] != 0

    def test_a_preference_on_an_unencoded_variable_is_ignored(self):
        s = Solver()
        x = bv_var("qx", 8)
        s.add(x.ult(10))
        assert s.check(prefer={"nowhere": 5, "qx": 4}) is Result.SAT
        assert s.model()["qx"] == 4
        assert "nowhere" not in s.model()
