"""Unit tests for the SMT term language and concrete evaluator."""

import pytest

from repro.smt import terms as T

from tests.treewalk_eval import evaluate


class TestConstruction:
    def test_hash_consing_returns_identical_objects(self):
        a = T.bv_var("x", 8) + T.bv_const(1, 8)
        b = T.bv_var("x", 8) + T.bv_const(1, 8)
        assert a is b

    def test_const_truncates_to_width(self):
        assert T.bv_const(256, 8).value == 0
        assert T.bv_const(257, 8).value == 1
        assert T.bv_const(-1, 8).value == 255

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            T.bv_const(0, 0)
        with pytest.raises(ValueError):
            T.BVSort(-3)

    def test_width_mismatch_rejected(self):
        with pytest.raises(TypeError):
            T.bv_var("x", 8) + T.bv_var("y", 16)
        with pytest.raises(TypeError):
            T.bv_var("x", 8).eq(T.bv_var("y", 4))

    def test_bool_bv_mix_rejected(self):
        with pytest.raises(TypeError):
            T.and_(T.bv_var("x", 8), T.TRUE)
        with pytest.raises(TypeError):
            T.ite(T.bool_var("c"), T.bv_var("x", 8), T.TRUE)

    def test_int_coercion_in_operators(self):
        x = T.bv_var("x", 8)
        t = x + 3
        assert t.args[1].value == 3
        assert t.args[1].width == 8

    def test_value_and_name_accessors(self):
        x = T.bv_var("x", 8)
        assert x.name == "x"
        with pytest.raises(TypeError):
            _ = x.value
        c = T.bv_const(5, 8)
        assert c.value == 5
        with pytest.raises(TypeError):
            _ = c.name

    def test_terms_are_immutable(self):
        x = T.bv_var("x", 8)
        with pytest.raises(AttributeError):
            x.op = "const"


class TestConstantFolding:
    def test_and_or_short_circuit(self):
        p = T.bool_var("p")
        assert T.and_(p, T.FALSE) is T.FALSE
        assert T.and_(p, T.TRUE) is p
        assert T.or_(p, T.TRUE) is T.TRUE
        assert T.or_(p, T.FALSE) is p

    def test_and_flattens_and_dedups(self):
        p, q = T.bool_var("p"), T.bool_var("q")
        t = T.and_(T.and_(p, q), p)
        assert t.op == T.OP_AND
        assert t.args == (p, q)

    def test_double_negation(self):
        p = T.bool_var("p")
        assert T.not_(T.not_(p)) is p

    def test_eq_on_identical_terms(self):
        x = T.bv_var("x", 8)
        assert T.eq(x, x) is T.TRUE

    def test_ite_constant_condition(self):
        x, y = T.bv_var("x", 8), T.bv_var("y", 8)
        assert T.ite(T.TRUE, x, y) is x
        assert T.ite(T.FALSE, x, y) is y
        assert T.ite(T.bool_var("c"), x, x) is x

    def test_concat_and_extract_of_constants(self):
        t = T.concat(T.bv_const(0xAB, 8), T.bv_const(0xCD, 8))
        assert t.value == 0xABCD
        assert t.width == 16
        assert T.extract(t, 15, 8).value == 0xAB
        assert T.extract(t, 7, 0).value == 0xCD

    def test_extract_full_range_is_identity(self):
        x = T.bv_var("x", 8)
        assert T.extract(x, 7, 0) is x

    def test_extract_bounds_checked(self):
        x = T.bv_var("x", 8)
        with pytest.raises(ValueError):
            T.extract(x, 8, 0)
        with pytest.raises(ValueError):
            T.extract(x, 3, 5)

    def test_sext_of_negative_constant(self):
        assert T.sext(T.bv_const(0x80, 8), 8).value == 0xFF80
        assert T.sext(T.bv_const(0x7F, 8), 8).value == 0x007F

    def test_shifts_of_constants(self):
        assert T.shl(T.bv_const(1, 8), 3).value == 8
        assert T.lshr(T.bv_const(0x80, 8), 7).value == 1
        assert T.shl(T.bv_const(0xFF, 8), 4).value == 0xF0


class TestEvaluate:
    def test_arith(self):
        x, y = T.bv_var("x", 8), T.bv_var("y", 8)
        env = {"x": 200, "y": 100}
        assert evaluate(x + y, env) == 44  # wraps mod 256
        assert evaluate(x - y, env) == 100
        assert evaluate(y - x, env) == 156
        assert evaluate(x * y, env) == (200 * 100) % 256

    def test_comparisons(self):
        x, y = T.bv_var("x", 8), T.bv_var("y", 8)
        env = {"x": 0x80, "y": 0x7F}  # signed: -128 vs 127
        assert evaluate(x.ult(y), env) == 0
        assert evaluate(x.slt(y), env) == 1
        assert evaluate(x.sle(y), env) == 1
        assert evaluate(y.ule(x), env) == 1

    def test_bool_ops(self):
        p, q = T.bool_var("p"), T.bool_var("q")
        env = {"p": 1, "q": 0}
        assert evaluate(T.and_(p, q), env) == 0
        assert evaluate(T.or_(p, q), env) == 1
        assert evaluate(T.xor(p, q), env) == 1
        assert evaluate(T.implies(p, q), env) == 0
        assert evaluate(T.implies(q, p), env) == 1

    def test_missing_vars_default_to_zero(self):
        x = T.bv_var("x", 8)
        assert evaluate(x + 1, {}) == 1

    def test_structure_ops(self):
        x = T.bv_var("x", 16)
        env = {"x": 0xABCD}
        assert evaluate(T.extract(x, 15, 8), env) == 0xAB
        assert evaluate(T.zext(x, 8), env) == 0xABCD
        assert evaluate(T.sext(x, 8), env) == 0xFFABCD
        assert evaluate(T.concat(x, x), env) == 0xABCDABCD

    def test_free_variables(self):
        x, y = T.bv_var("x", 8), T.bool_var("p")
        t = T.and_(x.eq(3), y)
        fv = T.free_variables(t)
        assert set(fv) == {"x", "p"}
        assert fv["x"] == T.BVSort(8)
        assert fv["p"] == T.BoolSort()
