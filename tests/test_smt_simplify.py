"""Tests for the term simplifier: equivalence-preserving rewrites."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import terms as T
from repro.smt.simplify import simplify

from tests.treewalk_eval import evaluate


X = T.bv_var("x", 8)
Y = T.bv_var("y", 8)
P = T.bool_var("p")


class TestIdentities:
    def test_and_with_zero(self):
        assert simplify(X & T.bv_const(0, 8)) is T.bv_const(0, 8)

    def test_and_with_ones(self):
        assert simplify(X & T.bv_const(0xFF, 8)) is X

    def test_or_with_zero(self):
        assert simplify(X | T.bv_const(0, 8)) is X

    def test_or_with_ones(self):
        assert simplify(X | T.bv_const(0xFF, 8)) is T.bv_const(0xFF, 8)

    def test_xor_self_cancels(self):
        assert simplify(X ^ X) is T.bv_const(0, 8)

    def test_xor_zero(self):
        assert simplify(X ^ T.bv_const(0, 8)) is X

    def test_add_zero(self):
        assert simplify(X + T.bv_const(0, 8)) is X

    def test_sub_self(self):
        assert simplify(X - X) is T.bv_const(0, 8)

    def test_mul_identities(self):
        assert simplify(X * T.bv_const(1, 8)) is X
        assert simplify(X * T.bv_const(0, 8)) is T.bv_const(0, 8)

    def test_double_bvnot(self):
        assert simplify(~~X) is X

    def test_ult_zero_is_false(self):
        assert simplify(X.ult(T.bv_const(0, 8))) is T.FALSE

    def test_ule_from_zero_is_true(self):
        assert simplify(T.bv_const(0, 8).ule(X)) is T.TRUE

    def test_nested_folding(self):
        # (x & 0) | (5 + 3) -> 8
        t = (X & T.bv_const(0, 8)) | (T.bv_const(5, 8) + T.bv_const(3, 8))
        assert simplify(t).value == 8

    def test_ite_folds_through(self):
        t = T.ite(T.and_(P, T.TRUE), X, X)
        assert simplify(t) is X

    def test_extract_of_zext_inside(self):
        t = T.extract(T.zext(X, 8), 7, 0)
        assert simplify(t) is X

    def test_extract_of_zext_outside(self):
        t = T.extract(T.zext(X, 8), 15, 8)
        assert simplify(t).value == 0


@st.composite
def random_term(draw):
    def bv(depth):
        if depth == 0:
            pick = draw(st.integers(0, 2))
            return (X, Y, T.bv_const(draw(st.integers(0, 255)), 8))[pick]
        op = draw(st.integers(0, 5))
        a, b = bv(depth - 1), bv(depth - 1)
        return (a + b, a - b, a & b, a | b, a ^ b, ~a)[op]

    a = bv(draw(st.integers(1, 3)))
    b = bv(draw(st.integers(1, 3)))
    return draw(st.sampled_from([a.eq(b), a.ult(b), a.ule(b)]))


class TestEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(random_term(), st.integers(0, 255), st.integers(0, 255))
    def test_simplify_preserves_semantics(self, term, x, y):
        env = {"x": x, "y": y}
        assert evaluate(simplify(term), env) == evaluate(term, env)
