"""Randomized equivalence guard: compiled evaluation vs the tree-walk.

``repro.smt.compile`` re-implements concrete term semantics as postorder
bytecode; ``tests/treewalk_eval.py`` stays the independent reference.
These tests generate random term DAGs covering every operator and a spread
of widths (seeded, deterministic) and assert the two evaluators agree
bit-for-bit — including on missing variables, over-width assignment values,
and truthy boolean inputs — for one-root programs and for programs that
grow root by root.
"""

import random

import pytest

from repro.smt import terms as T
from repro.smt.compile import CompiledTerm, compile_term, evaluate_compiled

from tests.treewalk_eval import evaluate

WIDTHS = (1, 2, 3, 4, 7, 8, 9, 12, 16, 17, 32, 33, 48, 64, 65, 128)


def _random_bv(rng: random.Random, depth: int, width: int) -> T.Term:
    """A random bitvector term of exactly ``width`` bits."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            return T.bv_const(rng.getrandbits(width + 2), width)
        return T.bv_var(f"v{width}_{rng.randrange(4)}", width)
    choice = rng.randrange(12)
    if choice == 0:
        return _random_bv(rng, depth - 1, width) & _random_bv(rng, depth - 1, width)
    if choice == 1:
        return _random_bv(rng, depth - 1, width) | _random_bv(rng, depth - 1, width)
    if choice == 2:
        return _random_bv(rng, depth - 1, width) ^ _random_bv(rng, depth - 1, width)
    if choice == 3:
        return _random_bv(rng, depth - 1, width) + _random_bv(rng, depth - 1, width)
    if choice == 4:
        return _random_bv(rng, depth - 1, width) - _random_bv(rng, depth - 1, width)
    if choice == 5:
        return _random_bv(rng, depth - 1, width) * _random_bv(rng, depth - 1, width)
    if choice == 6:
        return ~_random_bv(rng, depth - 1, width)
    if choice == 7:
        return T.shl(_random_bv(rng, depth - 1, width), rng.randrange(0, width + 2))
    if choice == 8:
        return T.lshr(_random_bv(rng, depth - 1, width), rng.randrange(0, width + 2))
    if choice == 9 and width > 1:
        inner = rng.randrange(1, width)
        return T.zext(_random_bv(rng, depth - 1, inner), width - inner)
    if choice == 10 and width > 1:
        inner = rng.randrange(1, width)
        return T.sext(_random_bv(rng, depth - 1, inner), width - inner)
    if choice == 11 and width > 1:
        # Build wider, then extract a window of exactly `width` bits.
        outer = width + rng.randrange(1, 9)
        lo = rng.randrange(0, outer - width + 1)
        return T.extract(_random_bv(rng, depth - 1, outer), lo + width - 1, lo)
    # ite over bitvectors
    return T.ite(
        _random_bool(rng, depth - 1),
        _random_bv(rng, depth - 1, width),
        _random_bv(rng, depth - 1, width),
    )


def _random_bool(rng: random.Random, depth: int) -> T.Term:
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.2:
            return T.TRUE if rng.random() < 0.5 else T.FALSE
        return T.bool_var(f"b{rng.randrange(4)}")
    choice = rng.randrange(9)
    if choice == 0:
        return T.not_(_random_bool(rng, depth - 1))
    if choice == 1:
        return T.and_(*[_random_bool(rng, depth - 1) for _ in range(rng.randrange(2, 5))])
    if choice == 2:
        return T.or_(*[_random_bool(rng, depth - 1) for _ in range(rng.randrange(2, 5))])
    if choice == 3:
        return T.xor(_random_bool(rng, depth - 1), _random_bool(rng, depth - 1))
    if choice == 4:
        return T.eq(_random_bool(rng, depth - 1), _random_bool(rng, depth - 1))
    if choice == 5:
        return T.ite(
            _random_bool(rng, depth - 1),
            _random_bool(rng, depth - 1),
            _random_bool(rng, depth - 1),
        )
    width = rng.choice(WIDTHS)
    a = _random_bv(rng, depth - 1, width)
    b = _random_bv(rng, depth - 1, width)
    if choice == 6:
        return a.eq(b)
    if choice == 7:
        return a.ult(b) if rng.random() < 0.5 else a.ule(b)
    return a.slt(b) if rng.random() < 0.5 else a.sle(b)


def _random_assignment(rng: random.Random, term: T.Term) -> dict:
    assignment = {}
    for name, sort in T.free_variables(term).items():
        if rng.random() < 0.15:
            continue  # missing variable: both evaluators must default to 0
        # Bit-vectors deliberately over-width sometimes (evaluators must
        # mask); booleans by truthiness, not just 0/1.
        assignment[name] = (
            rng.getrandbits(sort.width + rng.randrange(0, 3))
            if isinstance(sort, T.BVSort)
            else rng.choice([0, 1, 2, -1, 7])
        )
    return assignment


@pytest.mark.parametrize("seed", range(20))
def test_random_bool_terms_agree(seed):
    rng = random.Random(1000 + seed)
    for _ in range(25):
        term = _random_bool(rng, depth=4)
        compiled = compile_term(term)
        for _ in range(4):
            assignment = _random_assignment(rng, term)
            assert compiled.evaluate(assignment) == evaluate(term, assignment)


@pytest.mark.parametrize("seed", range(20))
def test_random_bv_terms_agree(seed):
    rng = random.Random(2000 + seed)
    for _ in range(25):
        width = rng.choice(WIDTHS)
        term = _random_bv(rng, depth=4, width=width)
        compiled = compile_term(term)
        for _ in range(4):
            assignment = _random_assignment(rng, term)
            got = compiled.evaluate(assignment)
            want = evaluate(term, assignment)
            assert got == want
            assert got == got & ((1 << width) - 1)


def test_shared_subterms_compile_to_one_slot():
    x = T.bv_var("x", 16)
    shared = (x + 1) * 3
    term = shared.eq(5) | shared.ult(9)  # `shared` appears twice in the DAG
    compiled = compile_term(term)
    # slots: x, const 1, x+1, const 3, shared, const 5, eq, const 9, ult, or
    assert compiled.size == 10
    assert compiled.variables == frozenset(["x"])
    assert compiled.var_masks == {"x": 0xFFFF}


def test_compile_cache_is_per_term_object():
    x = T.bv_var("x", 8)
    term = x.eq(3) & x.ult(7)
    again = T.bv_var("x", 8).eq(3) & T.bv_var("x", 8).ult(7)
    assert term is again  # hash-consing
    assert compile_term(term) is compile_term(again)


def test_leaf_terms_compile():
    x = T.bv_var("x", 8)
    assert compile_term(x).evaluate({"x": 0x1FF}) == 0xFF
    assert compile_term(T.bv_const(0xAB, 8)).evaluate({}) == 0xAB
    assert compile_term(T.TRUE).evaluate({}) == 1
    assert compile_term(T.FALSE).evaluate({}) == 0
    b = T.bool_var("b")
    assert compile_term(b).evaluate({"b": 5}) == 1
    assert compile_term(b).evaluate({}) == 0


def test_bool_var_masks_are_one():
    b = T.bool_var("flag")
    x = T.bv_var("x", 4)
    compiled = compile_term(T.and_(b, x.eq(3)))
    assert compiled.var_masks == {"flag": 1, "x": 0xF}


def test_sext_sign_cases():
    x = T.bv_var("x", 4)
    term = T.sext(x, 4)
    compiled = compile_term(term)
    for value in range(16):
        assert compiled.evaluate({"x": value}) == evaluate(term, {"x": value})
    assert compiled.evaluate({"x": 0x8}) == 0xF8
    assert compiled.evaluate({"x": 0x7}) == 0x07


def test_shift_beyond_width():
    x = T.bv_var("x", 8)
    assert compile_term(T.shl(x, 9)).evaluate({"x": 0xFF}) == 0
    assert compile_term(T.lshr(x, 9)).evaluate({"x": 0xFF}) == 0


def test_concat_ordering_msb_first():
    hi = T.bv_var("hi", 4)
    lo = T.bv_var("lo", 8)
    term = T.concat(hi, lo)
    compiled = compile_term(term)
    assert compiled.evaluate({"hi": 0xA, "lo": 0x5C}) == 0xA5C
    assert compiled.evaluate({"hi": 0xA, "lo": 0x5C}) == evaluate(
        term, {"hi": 0xA, "lo": 0x5C}
    )


def test_deep_ite_chain_evaluates_iteratively():
    # Guarded-command chains over big tables are the production shape; the
    # compiled form must not recurse.
    x = T.bv_var("x", 32)
    acc = T.bv_const(0, 32)
    for i in range(3000):
        acc = T.ite(x.eq(i), T.bv_const(i + 1, 32), acc)
    compiled = compile_term(acc)
    assert compiled.evaluate({"x": 2500}) == 2501
    assert compiled.evaluate({"x": 99999}) == 0


def test_evaluate_compiled_convenience():
    x = T.bv_var("x", 8)
    assert evaluate_compiled(x + 1, {"x": 0xFF}) == 0
    assert evaluate_compiled(x.ule(10), {"x": 10}) == 1


def test_compiled_term_direct_construction_matches_cache():
    x = T.bv_var("x", 8)
    term = (x + 3).eq(7)
    direct = CompiledTerm(term)
    assert direct.evaluate({"x": 4}) == 1
    assert direct.evaluate({"x": 5}) == 0


# ----------------------------------------------------------------------
# Multi-root programs
# ----------------------------------------------------------------------


def _dag_size(*terms):
    seen = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(t.args)
    return len(seen)


@pytest.mark.parametrize("seed", range(10))
def test_every_root_of_a_growing_program_agrees_with_the_tree_walk(seed):
    rng = random.Random(3000 + seed)
    program = CompiledTerm()
    roots = []
    for _ in range(12):
        # Grow between evaluations, re-offering an old root now and then.
        term = rng.choice(roots) if roots and rng.random() < 0.2 else (
            _random_bool(rng, depth=3) if rng.random() < 0.5
            else _random_bv(rng, depth=3, width=rng.choice(WIDTHS))
        )
        index = program.add_root(term)
        if term in roots:
            assert index == roots.index(term)
        else:
            assert index == len(roots)
            roots.append(term)
        assert program.size == _dag_size(*roots)  # shared nodes compiled once
        assignment = {}
        for root in roots:
            assignment.update(_random_assignment(rng, root))
        assert program.evaluate_roots(assignment) == [evaluate(r, assignment) for r in roots]
        assert program.evaluate(assignment) == evaluate(roots[0], assignment)
    assert program.variables == set().union(*(T.free_variables(r) for r in roots))


def test_a_later_root_appends_only_what_no_earlier_root_reached():
    x = T.bv_var("x", 16)
    shared = (x + 1) * 3
    program = CompiledTerm(shared.eq(5))  # x, 1, x+1, 3, shared, 5, eq
    assert program.size == 7
    assert program.add_root(shared.ult(9)) == 1  # 9, ult
    assert program.size == 9
    assert program.add_root(shared) == 2  # an interior node: nothing new
    assert program.size == 9
    assert program.evaluate_roots({"x": 0}) == [0, 1, 3]
    assert program.evaluate({"x": 0}) == 0  # the first root


def test_free_variables_hands_out_a_read_only_view():
    term = T.bv_var("x", 8).eq(T.bv_var("y", 8))
    variables = T.free_variables(term)
    assert dict(variables) == {"x": T.BVSort(8), "y": T.BVSort(8)}
    assert T.free_variables(term) is variables  # the memo itself, not a copy
    with pytest.raises(TypeError):
        variables["z"] = T.BoolSort()
